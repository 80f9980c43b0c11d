"""Grouping in the A&R paradigm (paper §IV-E).

The approximation is a device-side *pre-grouping*: hash-assign group ids
based on approximate values, positionally aligned with the input.  When the
grouping columns are fully device-resident — the common case the paper
expects, since high-cardinality groupings are rare and low-cardinality
columns compress into few bits — the pre-grouping is already exact and the
refinement only has to eliminate surviving false-positive rows (a
translucent join handled upstream by the selection refinements).

For distributed grouping columns, :func:`group_refine` sub-divides each
approximate group by the residual bits on the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..device.gpu import SimulatedGPU
from ..device.cpu import Cpu
from ..device.model import OpClass
from ..device.timeline import Timeline
from ..errors import ExecutionError
from ..storage.bitpack import code_dtype
from ..storage.decompose import BwdColumn
from ..util import bits_for_range, unique_inverse
from .candidates import Approximation

_COMBINE_LIMIT = 1 << 62


@dataclass
class GroupAssignment:
    """Group ids positionally aligned with a candidate set.

    Both ends of the id range are checked here, once; the grouped kernels
    of :mod:`repro.core.aggregates` take an assignment on trust.

    ``starts`` is the word of a producer that put the rows in *group-major*
    order (:func:`group_ordered`): group ``g`` is the slice
    ``starts[g]:starts[g + 1]`` of them, so a fold is a reduction of
    contiguous slices.  ``None`` — rows in any order — scatters.
    """

    gids: np.ndarray
    n_groups: int
    exact: bool
    starts: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.gids = gids = np.asarray(self.gids, dtype=np.int64)
        ordered = self.starts is not None
        if ordered and (
            len(self.starts) != self.n_groups + 1 or self.starts[-1] != gids.size
        ):
            raise ExecutionError("group boundaries misaligned")
        if gids.size:
            # ascending ids: the two end rows hold the extremes
            lo, hi = (gids[0], gids[-1]) if ordered else (gids.min(), gids.max())
            if int(lo) < 0 or int(hi) >= self.n_groups:
                raise ExecutionError("group id out of range")

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per group — counted once however many averages divide by it."""
        if self.starts is not None:
            return np.diff(self.starts)
        return np.bincount(self.gids, minlength=self.n_groups)

    @cached_property
    def sums(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(values, their per-group sums)`` scattered over this assignment
        so far (:func:`~repro.core.aggregates.grouped_sum`), found again by
        the identity of ``values``: the approximate ``sum`` over error-free
        bounds, the refined ``sum`` and the refined ``avg`` of one
        expression are one scatter."""
        return []

    def representatives(self, read) -> np.ndarray:
        """One key per group, ``read(rows)`` returning the keys at those
        rows — any row's, which is sound where the exact keys define the
        groups (every result's GROUP BY columns).  One row per group is
        read: a group's first where there are ``starts``."""
        if self.starts is None:
            rows = np.zeros(self.n_groups, dtype=np.int64)
            rows[self.gids] = np.arange(self.gids.size)
        else:
            rows = self.starts[:-1]
        live = self.counts > 0
        out = np.zeros(self.n_groups, dtype=np.int64)
        out[live] = read(rows[live])
        return out


def combine_keys(gids: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Fold one more key column into composite group ids.

    Pairs ``(gid, code)`` are renumbered densely in sorted-pair order
    (:func:`~repro.util.unique_inverse`); the intermediate pairing key must
    fit in 62 bits, which holds for any realistic grouping (the paper argues
    high-cardinality groupings are rare precisely because they are useless).
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size == 0:
        return np.empty(0, dtype=np.int64), 0
    span = int(codes.max()) + 1
    if int(gids.max(initial=0) + 1) * span >= _COMBINE_LIMIT:
        raise ExecutionError("composite grouping key exceeds 62 bits")
    uniques, new_gids = unique_inverse(gids * span + codes)
    return new_gids, len(uniques)


def key_range(keys: np.ndarray) -> tuple[int, int]:
    """``(lowest key, span)`` of one grouping key column — the span, highest
    minus lowest plus one, taken in Python ints: an int64 subtraction wraps
    for keys more than int64 apart and numbers them out of key order.  A
    span of 62 bits or more is refused; below it ``keys - lowest`` cannot
    wrap and is what :func:`combine_keys` folds.
    """
    lo, hi = (int(keys.min()), int(keys.max())) if len(keys) else (0, 0)
    span = hi - lo + 1
    if span >= _COMBINE_LIMIT:
        raise ExecutionError("composite grouping key exceeds 62 bits")
    return lo, span


def group_approx_from_keys(
    gpu: SimulatedGPU,
    timeline: Timeline,
    keyed: list[tuple[str, np.ndarray, bool]],
) -> GroupAssignment:
    """Device-side pre-grouping over already-materialized key columns.

    ``keyed`` holds ``(label, keys, exact)`` triples — typically the bucket
    floors of candidate payloads (projections or FK-join outputs, including
    dimension columns), whose gather cost was charged when they were
    produced.  Only the hash grouping itself is charged here, one pass per
    column.

    Group ids are the dense ranks of the key tuples in lexicographic
    order.  The columns fold into one composite — each shifted to its
    minimum, at the narrowest unsigned width holding their value box —
    that is ranked once; the ranks stand in for the columns folded so far
    only where the box would pass 62 bits.
    """
    if not keyed:
        raise ExecutionError("group_approx_from_keys needs at least one column")
    n = len(keyed[0][1])
    composite, box = None, 1  # the columns folded so far; how many values
    folded: list[tuple[str, int]] = []  # their (label, span), yet to be billed
    for label, keys, _ in keyed:
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) != n:
            raise ExecutionError(f"grouping key {label!r} misaligned")
        lo, span = key_range(keys)
        if box * span >= _COMBINE_LIMIT and folded:
            composite, box = _rank(gpu, timeline, composite, folded)
            folded = []
        if box * span >= _COMBINE_LIMIT:
            raise ExecutionError("composite grouping key exceeds 62 bits")
        dtype = code_dtype(bits_for_range(box * span - 1))
        shifted = np.subtract(
            keys, lo, out=np.empty(n, dtype=dtype), casting="unsafe"
        )
        if box > 1:  # a one-value prefix tells no two rows apart
            shifted += composite.astype(dtype, copy=False) * dtype.type(span)
        composite, box = shifted, box * span
        folded.append((label, span))
    gids, n_groups = _rank(gpu, timeline, composite, folded)
    return GroupAssignment(
        gids=gids, n_groups=n_groups, exact=all(exact for _, _, exact in keyed)
    )


def _rank(
    gpu: SimulatedGPU,
    timeline: Timeline,
    composite: np.ndarray,
    folded: list[tuple[str, int]],
) -> tuple[np.ndarray, int]:
    """Dense ranks of ``composite`` and how many there are, billing the
    ``folded`` columns (:func:`_bill`)."""
    uniques, gids = unique_inverse(composite)
    _bill(gpu, timeline, len(gids), uniques, folded)
    return gids, len(uniques)


def _bill(
    gpu: SimulatedGPU,
    timeline: Timeline,
    n: int,
    uniques: np.ndarray,
    folded: list[tuple[str, int]],
) -> None:
    """Each of the ``folded`` columns' hash pass over ``n`` rows: the table
    a column's pass fills has one entry per distinct key prefix through
    that column, counted off the composite's sorted ``uniques``."""
    keys = uniques.astype(np.int64)
    divisor = math.prod(span for _, span in folded)
    for label, span in folded:
        divisor //= span
        prefixes = np.count_nonzero(np.diff(keys // divisor)) + min(1, len(keys))
        gpu.charge_hash_group(n, prefixes, timeline, f"group.approx({label})")


def code_composite(
    coded: list[tuple[str, np.ndarray, int]],
) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Key columns' approximation codes — ``(label, codes, code bits)``,
    most significant first — packed into one unsigned composite as wide as
    their bits add up to, and the columns' ``(label, span)``.

    Codes order as the bucket floors they stand for do, so the composite's
    ranks are the group ids :func:`group_approx_from_keys` assigns.
    """
    dtype = code_dtype(sum(bits for _, _, bits in coded))
    composite = None
    for _, codes, bits in coded:
        codes = codes.astype(dtype, copy=False)
        if composite is not None:
            codes = (composite << dtype.type(bits)) | codes
        composite = codes
    return composite, [(label, 1 << bits) for label, _, bits in coded]


def group_ordered(
    gpu: SimulatedGPU,
    timeline: Timeline,
    composite: np.ndarray,
    folded: list[tuple[str, int]],
    exact: bool,
) -> GroupAssignment:
    """Pre-grouping of rows that already lie in the order of ``composite``
    (:func:`code_composite`'s, sorted): a group starts where the key
    changes, so the ranks are a ``diff`` and the assignment knows its
    ``starts``.  Billed as :func:`group_approx_from_keys` bills the same
    columns in any order.
    """
    n = len(composite)
    cuts = np.flatnonzero(composite[1:] != composite[:-1]) + 1
    starts = np.concatenate(([0], cuts, [n])) if n else np.zeros(1, dtype=np.int64)
    _bill(gpu, timeline, n, composite[starts[:-1]], folded)
    n_groups = len(starts) - 1
    gids = np.repeat(np.arange(n_groups), np.diff(starts))
    return GroupAssignment(gids, n_groups, exact, starts)


def group_refine(
    cpu: Cpu,
    timeline: Timeline,
    assignment: GroupAssignment,
    residual_columns: list[tuple[str, BwdColumn]],
    candidates: Approximation,
) -> GroupAssignment:
    """Sub-divide approximate groups by host-resident residual bits.

    Rows sharing an approximate group id but differing in residuals belong
    to different exact groups; one :func:`combine_keys` pass per residual
    column renumbers them densely.  A no-op when the pre-grouping was exact.
    """
    if assignment.exact:
        return assignment
    gids, n_groups = assignment.gids, assignment.n_groups
    for label, column in residual_columns:
        if column.decomposition.residual_bits == 0:
            continue
        residuals = column.residual_at(candidates.ids)
        cpu.charge_gather(
            timeline, f"group.refine({label})",
            items=len(candidates),
            item_bytes=max(1, column.decomposition.residual_bits // 8),
            source_rows=column.length,
        )
        cpu.charge(
            timeline, f"group.refine.hash({label})", 0,
            tuples=len(candidates), op_class=OpClass.HASH,
        )
        gids, n_groups = combine_keys(gids, residuals.astype(np.int64))
    return GroupAssignment(gids=gids, n_groups=n_groups, exact=True)
