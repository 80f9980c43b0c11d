"""Refinement operators: the host-side halves of the A&R pairs.

Each function mirrors one blue node of the paper's Fig 3/Fig 4 plans.  A
refinement operator accepts the candidate result of its approximation
counterpart plus the residual (minor bits) and produces an exact result:
false positives are eliminated by re-evaluating precise predicates over
reconstructed values (Algorithm 2), and approximate payloads are upgraded
to exact ones.

Candidate ids arriving from the device cross the PCI-E bus exactly once
(:func:`ship_candidates`); alignment between an earlier approximation and a
later refined subset uses the translucent join (Algorithm 1).
"""

from __future__ import annotations

import numpy as np

from ..device.bus import PciBus
from ..device.cpu import Cpu
from ..device.timeline import Timeline
from ..device.model import OpClass
from ..storage.decompose import BwdColumn
from .candidates import Approximation, RunPairCandidates
from .intervals import IntervalColumn
from .relax import ValueRange
from .translucent import translucent_join

_OID_BYTES = 8

#: Candidate oids cross the bus as 32-bit values (n < 2^32 throughout the
#: paper's workloads).  A range selection's refinement only needs to know,
#: per candidate, whether it sits in the lower/upper boundary bucket — the
#: bucket floor is then one of two query constants — and that classification
#: rides in the oid's spare bits.  This is exactly the "compression of the
#: approximation results that go through the PCI-E bus" opportunity the
#: paper points out in §VII-B.
_SHIP_OID_BYTES = 4


def ship_candidates(
    bus: PciBus,
    timeline: Timeline,
    candidates: Approximation,
    payload_bytes_per_row: int = 0,
) -> None:
    """Move a candidate set device→host: the one unavoidable PCI transfer.

    Ships 32-bit candidate oids plus ``payload_bytes_per_row`` for payloads
    whose approximate values the host genuinely needs (projected codes,
    computed bounds).  This is the A&R paradigm's whole bandwidth story:
    only the (usually small) candidate set crosses the bus, never the
    full-resolution input.
    """
    nbytes = len(candidates) * (_SHIP_OID_BYTES + payload_bytes_per_row)
    bus.transfer(timeline, nbytes, "candidates", phase="refine")


def ship_pairs(
    bus: PciBus,
    timeline: Timeline,
    pairs: RunPairCandidates,
) -> None:
    """Move a theta join's candidate pairs device→host.

    Two 32-bit position oids per pair cross the bus.  The transfer is a
    pure function of the pair *count*, which the runs carry exactly —
    run-length candidates are *not* billed less, because the paper's
    device would emit per-pair oids here.
    """
    bus.transfer(
        timeline, len(pairs) * 2 * _SHIP_OID_BYTES, "pairs", phase="refine"
    )


def select_refine(
    cpu: Cpu,
    timeline: Timeline,
    column: BwdColumn,
    label: str,
    vrange: ValueRange,
    candidates: Approximation,
) -> Approximation:
    """Refine a selection — Algorithm 2.

    Translucently joins the candidates with the column's residual (an
    invisible join against persistent residuals), reconstructs exact values
    by bitwise concatenation, re-evaluates the precise condition and drops
    false positives.  The refined payload for ``label`` is exact.

    Candidates still deferred behind the relaxed scan of this very
    selection are refined without being formed: only their boundary rows
    (:meth:`Approximation.boundary`) can fail the precise condition, so
    those alone are reconstructed and re-tested.  The bill is Algorithm 2's
    over every candidate either way, and the refined set — its count exact
    — forms its rows by running Algorithm 2 over its formed parent.  Over
    a parent formed in run order (:meth:`Approximation.certain_run`) the
    precise condition is again put to the two end buckets only, and the
    refined set is their survivors around the certain run: three slices
    joined.
    """
    if column.decomposition.residual_bits == 0:
        # Fully device-resident: the approximation was already exact.
        return candidates

    dec = column.decomposition
    boundary = candidates.boundary(label, vrange)
    if boundary is None and candidates.payload(label).is_exact:
        # A second predicate on an already-refined column: no residual work.
        cpu.charge(
            timeline, f"select.refine({label})",
            len(candidates) * _OID_BYTES,
            tuples=len(candidates), op_class=OpClass.SCAN,
        )
    else:
        cpu.charge_gather(
            timeline, f"select.refine({label})",
            items=len(candidates),
            item_bytes=max(1, dec.residual_bits // 8),
            source_rows=column.length,
        )

    def refined() -> Approximation:
        payload = candidates.payload(label)
        values = payload.lo
        if not payload.is_exact:
            residuals = column.residual_at(candidates.ids)
            values = values + residuals.astype(np.int64)
        sure = candidates.certain_run(label, vrange)
        if sure is None:
            keep = np.flatnonzero(vrange.evaluate(values))
            exact = values.take(keep)
        else:  # run order: only the rows around the certain run can fail
            head = vrange.evaluate(values[: sure.start])
            tail = vrange.evaluate(values[sure.stop :])

            def keep(rows: np.ndarray) -> np.ndarray:
                return np.concatenate(
                    (rows[: sure.start][head], rows[sure], rows[sure.stop :][tail])
                )
            exact = keep(values)
        # Align every payload with the refined subset via the translucent
        # join.  Its traversal is fused into the refinement loop above ("the
        # two operations can be performed in one loop", §IV-B): the rows the
        # predicate kept *are* the join's output positions, so no membership
        # recomputation runs and no extra pass is charged; correctness still
        # follows Algorithm 1 (narrowing preserves the shared permutation).
        return candidates.narrowed(keep, {label: IntervalColumn.exact(exact)})

    if boundary is None:
        return refined()
    kept = np.count_nonzero(vrange.evaluate(column.reconstruct(boundary)))
    return Approximation.deferred(
        len(candidates) - boundary.size + int(kept), candidates.labels, refined,
        order_preserved=candidates.order_preserved, exact=candidates.exact,
    )


def project_refine(
    cpu: Cpu,
    timeline: Timeline,
    column: BwdColumn,
    label: str,
    candidates: Approximation,
) -> Approximation:
    """Refine a projection: join the residual onto the approximate payload.

    "Essentially a translucent (potentially invisible) join of the output
    of the approximation and the residual of the input" (§IV-C) — against
    a persistent residual this is the cheap invisible join, a positional
    gather by candidate id.
    """
    if column.decomposition.residual_bits == 0:
        return candidates
    payload = candidates.payload(label)
    if payload.is_exact:
        # An earlier refinement (e.g. of a selection on the same column)
        # already reconstructed exact values.
        return candidates
    residuals = column.residual_at(candidates.ids)
    cpu.charge_gather(
        timeline, f"project.refine({label})",
        items=len(candidates),
        item_bytes=max(1, column.decomposition.residual_bits // 8),
        source_rows=column.length,
    )
    values = payload.lo + residuals.astype(np.int64)
    candidates.payloads[label] = IntervalColumn.exact(values)
    return candidates


def fk_join_refine(
    cpu: Cpu,
    timeline: Timeline,
    target_column: BwdColumn,
    label: str,
    candidates: Approximation,
) -> Approximation:
    """Refine a foreign-key (projective) join: residual gather at FK positions.

    The approximation shipped the dimension-row position of every candidate
    (see :func:`repro.core.approximate.fk_join_approx`); the refinement
    gathers the target's residual bits at those positions and concatenates.
    Shares its shape with :func:`project_refine`, as the paper notes the two
    operators share code.
    """
    from .approximate import fk_position_payload

    if target_column.decomposition.residual_bits == 0:
        return candidates
    payload = candidates.payload(label)
    if payload.is_exact:
        return candidates
    positions = candidates.payload(fk_position_payload(label)).lo
    residuals = target_column.residual_at(positions)
    cpu.charge_gather(
        timeline, f"join.refine({label})",
        items=len(candidates),
        item_bytes=max(1, target_column.decomposition.residual_bits // 8),
        source_rows=target_column.length,
    )
    payload = candidates.payload(label)
    values = payload.lo + residuals.astype(np.int64)
    candidates.payloads[label] = IntervalColumn.exact(values)
    return candidates


def align_via_translucent(
    cpu: Cpu,
    timeline: Timeline,
    earlier: Approximation,
    refined_ids: np.ndarray,
    *,
    positions: np.ndarray | None = None,
) -> Approximation:
    """Join an earlier approximation with a refined id subset (Algorithm 1).

    The canonical use is Fig 3's plan: the refined selection's ids must be
    joined with the approximate projection's output.  Both inputs share a
    permutation and the refined ids are a subset, so the translucent join
    applies; its output aligns every payload of ``earlier`` with
    ``refined_ids``.

    When the caller just computed ``refined_ids = earlier.ids.take(
    positions)``, passing those ascending ``positions`` skips the membership
    recomputation entirely — they are the join's output.  The modeled charge
    is identical either way (the real system fuses the traversal too).
    """
    if positions is None:
        positions = translucent_join(earlier.ids, refined_ids)
    cpu.charge(
        timeline, "translucent.join",
        (len(earlier) + len(refined_ids)) * _OID_BYTES,
        tuples=len(earlier) + len(refined_ids), op_class=OpClass.SCAN,
    )
    return Approximation(
        ids=np.asarray(refined_ids, dtype=np.int64),
        order_preserved=earlier.order_preserved,
        payloads={k: v.take(positions) for k, v in earlier.payloads.items()},
        exact=earlier.exact,
    )
