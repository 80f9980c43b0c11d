"""Cooperative approximation scans — the §VII-B throughput extension.

"The original solution uses a technique that is similar to the idea of
cooperative scans ... this indicates that they may yield a significant
performance boost."

The device-side approximation scan is the one operator every selection
query repeats; when several queries over the same column are in flight,
one pass over the packed approximation stream can evaluate *all* their
relaxed predicates.  The stream is read once; each query still pays for
its own candidate materialization and its own refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.approximate import _payload_from_codes
from ..core.candidates import Approximation, CarvedHits
from ..core.relax import ValueRange, certain_code_range, relax_to_code_range
from ..device.gpu import SimulatedGPU, scrambled_like_parallel_scatter
from ..device.model import OpClass
from ..device.timeline import Timeline
from ..errors import ExecutionError
from ..storage.bitpack import clip_code_range, code_range_mask, packed_nbytes
from ..storage.decompose import BwdColumn

_OID_BYTES = 8

#: Per-tuple cost share of each *additional* predicate in the fused kernel.
#: Unpacking a code from the bit-packed stream dominates the per-tuple work
#: and is done once; every further predicate adds only a compare against a
#: register-resident value.
_EXTRA_PREDICATE_FRACTION = 0.35


@dataclass(frozen=True)
class ScanRequest:
    """One pending selection: a label and its (precise) value range."""

    label: str
    vrange: ValueRange


def cooperative_scan_hits(
    column: BwdColumn, requests: list[ScanRequest]
) -> dict[str, CarvedHits]:
    """One shared pass answering every request's relaxed scan — zero charges.

    The wall-clock mechanism behind the serve layer's fused batches: the
    column's memoized sorted-code view (one "pass over the packed stream",
    built once, shared by every query that ever scans this column) turns
    each request's relaxed and certain code ranges into positions of that
    view — two ``searchsorted`` calls for the whole batch — instead of one
    O(n) stream comparison per query.  Nothing is sorted here: a request's
    hits are a slice of the sort permutation beside the same slice of the
    sorted codes, *counted*, with the sub-run of certain codes marked and
    the ids outside it (relaxed range ∋ code ∉ certain range: the boundary
    rows) set apart.

    Each label's :class:`~repro.core.candidates.CarvedHits`, once read
    through ``ascending()``, is **identical** to what the solo kernel's
    ``flatnonzero`` emits (the ascending set of positions whose code falls
    in the relaxed range), so callers can feed them back into
    :meth:`~repro.device.gpu.SimulatedGPU.select_code_ranges` as
    ``precomputed_hits`` and keep every per-query modeled ledger
    byte-identical to its solo run.  This function itself charges nothing;
    modeled accounting stays with the per-query kernels.
    """
    perm = column.sort_permutation("lo")
    key = column.sorted_approx_codes()
    dec = column.decomposition
    # Needles of the key's dtype, so neither search copies the key.
    bounds = np.array(
        [
            clip_code_range(*relax_to_code_range(r.vrange, dec), key.dtype)
            + clip_code_range(*certain_code_range(r.vrange, dec), key.dtype)
            for r in requests
        ],
        dtype=key.dtype,
    ).reshape(-1, 4)  # relaxed lo, relaxed hi, certain lo, certain hi
    starts = np.searchsorted(key, bounds[:, 0::2], side="left").tolist()
    stops = np.searchsorted(key, bounds[:, 1::2], side="right").tolist()
    hits_by_label: dict[str, CarvedHits] = {}
    for request, (start, sure_start), (stop, sure_stop) in zip(
        requests, starts, stops
    ):
        stop = max(stop, start)  # an empty range searches to stop < start
        # The certain run lies inside the relaxed one; an empty certain
        # range (searched to anywhere) leaves the whole run as boundary.
        sure_start = min(max(sure_start, start), stop)
        sure_stop = min(max(sure_stop, sure_start), stop)
        hits_by_label[request.label] = CarvedHits(
            perm[start:stop], key[start:stop],
            slice(sure_start - start, sure_stop - start),
            np.concatenate((perm[start:sure_start], perm[sure_stop:stop])),
        )
    return hits_by_label


def cooperative_pass_seconds(
    gpu: SimulatedGPU,
    column: BwdColumn,
    n_requests: int,
    total_hits: int,
) -> float:
    """Modeled seconds of one fused cooperative pass (stats, not charges).

    What :func:`cooperative_select_approx` would bill for ``n_requests``
    fused predicates emitting ``total_hits`` candidates in total.  The
    serve layer surfaces this next to the per-query solo charges so the
    modeled sharing gain is visible without ever entering a query's
    ledger (batched ledgers stay byte-identical to solo runs).
    """
    timeline = Timeline()
    _charge_fused_pass(gpu, timeline, column, n_requests, total_hits * _OID_BYTES)
    return timeline.total_seconds()


def _charge_fused_pass(
    gpu: SimulatedGPU,
    timeline: Timeline,
    column: BwdColumn,
    n_requests: int,
    output_bytes: int,
) -> None:
    """Charge one fused pass: a single stream read plus per-request compares."""
    stream_bytes = packed_nbytes(
        column.length, max(column.decomposition.approx_bits, 1)
    )
    # One stream read and one unpack per tuple; each additional predicate
    # contributes only its fused compare.
    fused_tuples = int(
        column.length * (1 + (n_requests - 1) * _EXTRA_PREDICATE_FRACTION)
    )
    gpu._charge(
        timeline, f"select.approx.coop(x{n_requests})",
        stream_bytes + output_bytes,
        tuples=fused_tuples, op_class=OpClass.SCAN,
    )


def cooperative_select_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    column: BwdColumn,
    requests: list[ScanRequest],
    *,
    scramble: bool = True,
) -> dict[str, Approximation]:
    """Evaluate many relaxed selections in one pass over the stream.

    Charges a *single* sequential read of the approximation stream plus one
    predicate evaluation and one output materialization per request —
    versus ``len(requests)`` full reads for individual scans.
    """
    if not requests:
        raise ExecutionError("cooperative scan needs at least one request")
    labels = [r.label for r in requests]
    if len(set(labels)) != len(labels):
        raise ExecutionError(f"duplicate scan labels: {labels}")
    gpu._require_resident(column)

    codes = column.approx_codes()
    results: dict[str, Approximation] = {}
    output_bytes = 0
    for request in requests:
        lo, hi = clip_code_range(
            *relax_to_code_range(request.vrange, column.decomposition),
            codes.dtype,
        )
        hits = np.flatnonzero(code_range_mask(codes, lo, hi))
        if scramble:
            hits = scrambled_like_parallel_scatter(hits)
        # Reuse the codes the fused scan already read — no per-request
        # gather back into the packed stream.
        payload = _payload_from_codes(column, codes[hits])
        results[request.label] = Approximation(
            ids=hits,
            order_preserved=not scramble,
            payloads={request.label: payload},
            exact=column.decomposition.residual_bits == 0,
        )
        output_bytes += hits.size * _OID_BYTES
    _charge_fused_pass(gpu, timeline, column, len(requests), output_bytes)
    return results


def individual_scan_seconds(
    gpu: SimulatedGPU,
    column: BwdColumn,
    requests: list[ScanRequest],
) -> float:
    """Modeled cost of running the same scans separately (the baseline)."""
    total = 0.0
    for request in requests:
        tl = Timeline()
        lo, hi = relax_to_code_range(request.vrange, column.decomposition)
        gpu.select_code_ranges([(column, request.label, lo, hi)], tl)
        total += tl.total_seconds()
    return total
