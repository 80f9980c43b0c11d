"""Approximation operators: the device-side halves of the A&R pairs.

Each function mirrors one red node of the paper's Fig 3/Fig 4 plans.  They
run on the :class:`~repro.device.gpu.SimulatedGPU`, consume approximation
streams (packed major bits) and produce :class:`~repro.core.candidates.
Approximation` objects: over-approximated candidate ids plus device-side
payloads (per-row error-bound intervals) for the refinement half.

When a column is fully device-resident (no residual bits) the operator's
output is already exact — the candidate set equals the true result and
payload intervals are degenerate.  The all-GPU TPC-H runs of §VI-D exercise
exactly this fast path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..device.gpu import SimulatedGPU
from ..device.timeline import Timeline
from ..errors import ExecutionError
from ..storage.decompose import BwdColumn
from .candidates import Approximation, CarvedHits
from .intervals import IntervalColumn
from .relax import ValueRange, relax_to_code_range


def _payload_from_codes(column: BwdColumn, codes: np.ndarray) -> IntervalColumn:
    """Bucket bounds of approximation codes as an interval payload."""
    dec = column.decomposition
    lo = dec.approx_lower_bounds(codes)
    if dec.residual_bits == 0 or lo.size == 0:
        return IntervalColumn.exact(lo)
    # max_error > 0: the ends differ in every row, no need to compare them
    return IntervalColumn.inexact(lo, lo + dec.max_error)


def _bounds_at(gpu: SimulatedGPU, column: BwdColumn, ids: np.ndarray) -> IntervalColumn:
    """``column``'s bucket bounds at ``ids``, whose lookup the caller billed:
    gathered when first read (:meth:`SimulatedGPU.codes_at`)."""
    return IntervalColumn.deferred(
        ids, column.decomposition.residual_bits == 0,
        lambda rows: _payload_from_codes(column, gpu.codes_at(column, rows)),
    )


def select_conjunction_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    conjuncts: Sequence[tuple[BwdColumn, str, ValueRange]],
    *,
    candidates: Approximation | None = None,
    scramble: bool = True,
    precomputed_hits: CarvedHits | None = None,
    in_order: bool = True,
) -> Approximation:
    """Approximate a conjunction of selections in one device pass.

    ``conjuncts`` are ``(column, label, value range)`` in evaluation order.
    Alone, the first is the relaxed scan of its approximation stream and
    the others probe its survivors (random access on the device); after
    ``candidates`` every one probes those, whose order is kept, so
    translucent-join preconditions stay intact.  Returns the candidate
    superset with each column's bucket bounds attached as payload
    ``label`` — for the rows that pass every conjunct, gathered when read;
    bounds the incoming candidates already carry under a label are kept.
    Scan output is scrambled like a real massively parallel scatter unless
    ``scramble`` is disabled or no row is returned ``in_order`` (a set has
    no order to scatter: its ids stay ascending).  ``precomputed_hits``
    (the first conjunct's hits carved by a shared cooperative pass) skips
    the NumPy scan only;
    results and modeled charges are byte-identical.  A lone scan answered
    by them is billed and *counted* here, its rows left to their first
    reader (:meth:`Approximation.deferred`) — who gets them in the scan's
    order, unless the caller's plan returns no row ``in_order`` (it only
    aggregates): candidates are a set then, and form as the carved run
    stands, ids and codes the slices they are.
    """
    ranges = [
        (column, label, *relax_to_code_range(vrange, column.decomposition))
        for column, label, vrange in conjuncts
    ]

    def formed(out: Approximation) -> Approximation:
        for column, label, _ in conjuncts:
            if label not in out.payloads:
                out.payloads[label] = _bounds_at(gpu, column, out.ids)
            out.exact = out.exact and column.decomposition.residual_bits == 0
        return out

    if candidates is not None:
        _, index = gpu.select_code_ranges(ranges, timeline, positions=candidates.ids)
        return formed(candidates.narrowed(index))
    if precomputed_hits is not None and len(ranges) == 1:
        (column, label, vrange), = conjuncts
        hits, carve = precomputed_hits, (label, vrange, precomputed_hits)
        ids = gpu.select_carved(ranges[0], timeline, hits, scramble=scramble)

        def form() -> Approximation:
            if in_order:  # the scan's: ascending, lane-major scattered
                return formed(Approximation(ids(), not scramble, exact=True))
            # A set: the run as it stands, its bounds from the codes beside it.
            bounds = _payload_from_codes(column, hits.codes)
            return formed(Approximation(
                hits.run, False, {label: bounds}, exact=True, carve=carve
            ))

        return Approximation.deferred(
            hits.size, (label,), form,
            order_preserved=in_order and not scramble,
            exact=column.decomposition.residual_bits == 0,
            carve=carve,
        )
    scramble = scramble and in_order  # a set has no order to scatter
    ids, _ = gpu.select_code_ranges(
        ranges, timeline, scramble=scramble, precomputed_hits=precomputed_hits
    )
    return formed(Approximation(ids, not scramble, exact=True))


def select_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    column: BwdColumn,
    label: str,
    vrange: ValueRange,
    *,
    scramble: bool = True,
    precomputed_hits: CarvedHits | None = None,
    in_order: bool = True,
) -> Approximation:
    """Approximate a selection: :func:`select_conjunction_approx` of one."""
    return select_conjunction_approx(
        gpu, timeline, [(column, label, vrange)], scramble=scramble,
        precomputed_hits=precomputed_hits, in_order=in_order,
    )


def project_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    column: BwdColumn,
    label: str,
    candidates: Approximation,
) -> Approximation:
    """Approximate a projection: invisible join of ids with the approximation.

    A positional lookup of the candidates' codes (paper §IV-C), billed here
    from their count; attaches the bucket bounds as payload ``label``,
    gathered when an operator first reads them (:meth:`IntervalColumn.
    deferred`), and leaves ids untouched, so the output is positionally
    aligned with its input.  On a column the candidates already carry
    (``select sum(a) … where a between``) the payload stays: it is these
    bounds.
    """
    gpu.charge_gather(column, len(candidates), timeline, f"project.approx({label})")
    if label not in candidates.labels:
        candidates.payloads[label] = _bounds_at(gpu, column, candidates.ids)
    if column.decomposition.residual_bits != 0:
        candidates.exact = False
    return candidates


def fk_join_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    fk_column: BwdColumn,
    target_column: BwdColumn,
    label: str,
    candidates: Approximation,
) -> Approximation:
    """Approximate a foreign-key (projective) join — paper §IV-D.

    With a pre-built FK index, the join is a double positional lookup:
    gather the FK values at the candidate ids, then gather the target
    column at those positions.  Requires the FK column to be device-resident
    at full precision: a lossy FK would point at the wrong dimension rows.
    The target gather runs here, read or not: it refuses a dangling FK.
    """
    if fk_column.decomposition.residual_bits != 0:
        raise ExecutionError(
            "approximate FK join requires the key column at full resolution; "
            "decompose the payload columns instead"
        )
    fk_codes = gpu.gather_codes(
        fk_column, candidates.ids, timeline, op=f"join.approx.fk({label})"
    )
    fk_values = fk_column.decomposition.combine(fk_codes, None)
    target_codes = gpu.gather_codes(
        target_column, fk_values, timeline, op=f"join.approx.gather({label})"
    )
    payload = _payload_from_codes(target_column, target_codes)
    candidates.payloads[label] = payload
    # The refinement must gather the *target's* residual, which lives at the
    # dimension positions, not the fact ids — ship the positions along.
    candidates.payloads[fk_position_payload(label)] = IntervalColumn.exact(fk_values)
    if target_column.decomposition.residual_bits != 0:
        candidates.exact = False
    return candidates


def fk_position_payload(label: str) -> str:
    """Payload key carrying the dimension-row positions behind ``label``."""
    return f"{label}@fkpos"
