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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..device.gpu import SimulatedGPU
from ..device.cpu import Cpu
from ..device.model import AccessPattern, OpClass
from ..device.timeline import Timeline
from ..errors import ExecutionError
from ..storage.decompose import BwdColumn
from ..util import unique_inverse
from .candidates import Approximation

_OID_BYTES = 8
_COMBINE_LIMIT = 1 << 62


@dataclass
class GroupAssignment:
    """Group ids positionally aligned with a candidate set.

    Both ends of the id range are checked here, once; the grouped kernels
    of :mod:`repro.core.aggregates` take an assignment on trust.
    """

    gids: np.ndarray
    n_groups: int
    exact: bool

    def __post_init__(self) -> None:
        self.gids = np.asarray(self.gids, dtype=np.int64)
        if self.gids.size and (
            int(self.gids.min()) < 0 or int(self.gids.max()) >= self.n_groups
        ):
            raise ExecutionError("group id out of range")

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per group — counted once however many averages divide by it."""
        return np.bincount(self.gids, minlength=self.n_groups)

    @cached_property
    def sums(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(values, their per-group sums)`` scattered over this assignment
        so far (:func:`~repro.core.aggregates.grouped_sum`), found again by
        the identity of ``values``: the approximate ``sum`` over error-free
        bounds, the refined ``sum`` and the refined ``avg`` of one
        expression are one scatter."""
        return []

    def representatives(self, keys: np.ndarray) -> np.ndarray:
        """One of ``keys`` per group — any row's, which is sound where the
        exact keys define the groups (every result's GROUP BY columns)."""
        out = np.zeros(self.n_groups, dtype=np.int64)
        out[self.gids] = keys
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


def group_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    candidates: Approximation,
    columns: list[tuple[str, BwdColumn]],
) -> GroupAssignment:
    """Device-side pre-grouping of the candidate rows on approximate values.

    Gathers each grouping column's approximation codes at the candidate ids
    and hash-groups the composite key.  ``exact`` is set when every column
    is fully device-resident.
    """
    if not columns:
        raise ExecutionError("group_approx needs at least one column")
    gids = np.zeros(len(candidates), dtype=np.int64)
    n_groups = min(1, len(candidates))
    exact = True
    for label, column in columns:
        codes = gpu.gather_codes(
            column, candidates.ids, timeline, op=f"group.gather({label})"
        )
        span = int(codes.max(initial=0)) + 2
        if (n_groups + 1) * span >= _COMBINE_LIMIT:
            raise ExecutionError("composite grouping key exceeds 62 bits")
        hashed_gids, uniques = gpu.hash_group(
            gids * span + codes.astype(np.int64),
            timeline,
            op=f"group.approx({label})",
        )
        gids, n_groups = hashed_gids, len(uniques)
        exact = exact and column.decomposition.residual_bits == 0
    return GroupAssignment(gids=gids, n_groups=n_groups, exact=exact)


def group_approx_from_keys(
    gpu: SimulatedGPU,
    timeline: Timeline,
    keyed: list[tuple[str, np.ndarray, bool]],
) -> GroupAssignment:
    """Device-side pre-grouping over already-materialized key columns.

    ``keyed`` holds ``(label, keys, exact)`` triples — typically the bucket
    floors of candidate payloads (projections or FK-join outputs, including
    dimension columns), whose gather cost was charged when they were
    produced.  Only the hash grouping itself is charged here.
    """
    if not keyed:
        raise ExecutionError("group_approx_from_keys needs at least one column")
    n = len(keyed[0][1])
    gids = np.zeros(n, dtype=np.int64)
    n_groups = min(1, n)
    exact = True
    for label, keys, key_exact in keyed:
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) != n:
            raise ExecutionError(f"grouping key {label!r} misaligned")
        shifted = keys - int(keys.min()) if len(keys) else keys
        span = int(shifted.max(initial=0)) + 2
        if (n_groups + 1) * span >= _COMBINE_LIMIT:
            raise ExecutionError("composite grouping key exceeds 62 bits")
        hashed_gids, uniques = gpu.hash_group(
            gids * span + shifted, timeline, op=f"group.approx({label})"
        )
        gids, n_groups = hashed_gids, len(uniques)
        exact = exact and key_exact
    return GroupAssignment(gids=gids, n_groups=n_groups, exact=exact)


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
