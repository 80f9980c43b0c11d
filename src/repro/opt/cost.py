"""Costing plans and the serve gate through the device charge model.

Two cost ledgers live here, both expressed as :class:`DeviceSpec` charges
accumulated on scratch :class:`Timeline`\\ s:

* :data:`SIM_HOST` — a spec calibrated to *this simulation's* NumPy
  wall-clock (the machine the kernels actually run on), for the serve
  layer's fuse-or-solo gate: modeled seconds are charge-neutral across
  execution shapes, so only the host spec can rank them, and ranking
  through it keeps the invariant — the gate changes which kernels run,
  never what they charge.

* :func:`estimated_plan_spans` — predicted *modeled* spans for a plan,
  walking the operator list with estimated cardinalities through the
  paper-calibrated presets (``GTX_680``/``XEON_E5_2650_X2``/
  ``PCIE_GEN2``).  ``explain()`` renders these; ``repro.opt.report``
  lines them up against a run's actual Timeline so mispredictions are
  visible.  An operator type without a cost rule raises
  :class:`~repro.errors.PlanError` — never a silently uncosted plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from ..core.theta import Theta, ThetaOp
from ..device.model import (
    GTX_680,
    PCIE_GEN2,
    XEON_E5_2650_X2,
    DeviceSpec,
    OpClass,
)
from ..device.timeline import Timeline
from ..errors import PlanError
from ..plan.physical import (
    AllRows,
    ApproxAggregate,
    ApproxFkJoin,
    ApproxGroup,
    ApproxMinMaxPrune,
    ApproxPairAggregate,
    ApproxPayloadSelect,
    ApproxProbeSelect,
    ApproxProject,
    ApproxScanSelect,
    ApproxThetaJoin,
    CpuProject,
    CpuSelect,
    PhysicalPlan,
    RefineAggregate,
    RefineFkJoin,
    RefineGroup,
    RefinePairAggregate,
    RefinePairGroup,
    RefinePairSelect,
    RefineProject,
    RefineSelect,
    RefineThetaJoin,
    ShardMerge,
    ShipCandidates,
    ShipPairs,
)
from ..storage.bitpack import packed_nbytes

#: The simulation host: effective NumPy kernel throughput on one core.
#: ``SCAN`` = one vectorized stream compare, ``GATHER`` = one fancy-index
#: element, ``HASH`` = one binary-search needle; bandwidths model
#: materializing outputs (hit lists).
SIM_HOST = DeviceSpec(
    name="sim-host",
    kind="cpu",
    memory_capacity=None,
    seq_bandwidth=6.0e9,
    random_bandwidth=1.5e9,
    launch_overhead=4e-6,  # one NumPy kernel dispatch
    per_tuple=MappingProxyType({
        OpClass.SCAN: 1.3e-9,
        OpClass.GATHER: 3.5e-9,
        OpClass.HASH: 16.0e-9,
    }),
)

#: Host cost per element of sorting freshly-gathered positions
#: (``np.sort`` of int64 — the cooperative scan's per-request tail).
SORT_SECONDS_PER_ELEMENT = 45e-9


def _charge(
    timeline: Timeline,
    op: str,
    *,
    nbytes: int = 0,
    tuples: int = 0,
    op_class: OpClass = OpClass.SCAN,
) -> None:
    seconds = SIM_HOST.transfer_seconds(nbytes) + SIM_HOST.tuple_seconds(
        op_class, tuples
    )
    timeline.record(SIM_HOST.name, SIM_HOST.kind, op, nbytes, seconds, "approximate")


# ----------------------------------------------------------------------
# Cooperative-batch membership (the serve gate)
# ----------------------------------------------------------------------
def cost_fused_scan(n_rows: int, est_hits: list[int]) -> Timeline:
    """Host cost of one cooperative pass serving every member.

    Each member pays two binary searches on the shared sorted-code view
    plus a gather-and-sort of its own hit positions (``O(h log h)``) —
    cheap at low selectivity, worse than a solo stream compare as hit
    counts approach ``n_rows``.
    """
    tl = Timeline()
    for hits in est_hits:
        _charge(tl, "sim.fused.bounds", tuples=2, op_class=OpClass.HASH)
        _charge(tl, "sim.fused.gather", tuples=hits, op_class=OpClass.GATHER)
        seconds = SORT_SECONDS_PER_ELEMENT * hits + SIM_HOST.launch_overhead
        tl.record(SIM_HOST.name, "cpu", "sim.fused.sort", hits * 8, seconds)
    return tl


def cost_solo_scans(n_rows: int, est_hits: list[int]) -> Timeline:
    """Host cost of each member running its own full-stream compare."""
    tl = Timeline()
    for hits in est_hits:
        _charge(tl, "sim.solo.compare", tuples=n_rows, op_class=OpClass.SCAN)
        _charge(tl, "sim.solo.materialize", nbytes=hits * 8)
    return tl


# ----------------------------------------------------------------------
# Predicted modeled spans (the paper ledger, from estimates)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EstimatedSpan:
    """One operator's predicted modeled charge."""

    op_index: int
    op: str  # the operator's describe() text
    device: str  # "gpu" | "cpu" | "bus"
    est_items: int  # rows or pairs flowing through
    est_seconds: float


class _EstimateState:
    """Cardinalities threaded through the plan walk."""

    __slots__ = ("catalog", "plan", "rows", "pairs", "n_rows", "n_right")

    def __init__(self, catalog, plan: PhysicalPlan, n_rows: int) -> None:
        self.catalog = catalog
        self.plan = plan
        self.n_rows = n_rows
        self.rows = n_rows
        self.pairs = 0
        self.n_right = 0


def _gpu(state, op, nbytes=0, tuples=0, op_class=OpClass.SCAN):
    spec = GTX_680
    return "gpu", spec.transfer_seconds(nbytes) + spec.tuple_seconds(op_class, tuples)


def _cpu(state, op, nbytes=0, tuples=0, op_class=OpClass.SCAN):
    spec = XEON_E5_2650_X2
    return "cpu", spec.transfer_seconds(nbytes) + spec.tuple_seconds(op_class, tuples)


def _bus(nbytes):
    return "bus", PCIE_GEN2.transfer_seconds(nbytes)


def _approx_nbytes(bwd) -> int:
    """Device bytes of a decomposition's approximation stream.

    ``approx_bits`` can legitimately be 0 (prefix compression absorbed the
    whole device slice); the stream is then empty, not an error.
    """
    bits = bwd.decomposition.approx_bits
    return packed_nbytes(bwd.length, bits) if bits else 0


def _scan_nbytes(state: _EstimateState, column: str, hits: int) -> int:
    bwd = state.catalog.decomposition_of(state.plan.query.table, column)
    if bwd is None:
        return state.n_rows * 8 + hits * 8
    return _approx_nbytes(bwd) + hits * 8


def _est_scan(state: _EstimateState, op: ApproxScanSelect):
    from .estimates import estimate_scan_candidates

    hits = estimate_scan_candidates(state.catalog, state.plan.query.table, op.predicate)
    kind, sec = _gpu(state, op, nbytes=_scan_nbytes(state, op.column, hits),
                     tuples=state.n_rows, op_class=OpClass.SCAN)
    state.rows = hits
    return kind, hits, sec


def _est_probe(state: _EstimateState, op: ApproxProbeSelect):
    from .estimates import estimate_selectivity

    before = state.rows
    sel = estimate_selectivity(state.catalog, state.plan.query.table, op.predicate)
    kind, sec = _gpu(state, op, nbytes=before * 8, tuples=before,
                     op_class=OpClass.GATHER)
    state.rows = int(round(before * sel))
    return kind, before, sec


def _est_gather(state: _EstimateState, op):
    kind, sec = _gpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.GATHER)
    return kind, state.rows, sec


def _est_payload_select(state: _EstimateState, op):
    kind, sec = _gpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.SCAN)
    return kind, state.rows, sec


def _est_group(state: _EstimateState, op):
    kind, sec = _gpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.HASH)
    return kind, state.rows, sec


def _est_reduce(state: _EstimateState, op):
    kind, sec = _gpu(state, op, nbytes=8, tuples=state.rows, op_class=OpClass.AGG)
    return kind, state.rows, sec


def _est_theta(state: _EstimateState, op: ApproxThetaJoin):
    from .estimates import _delta_rows, estimate_theta_cardinality

    query = state.plan.query
    tj = op.theta
    left = state.catalog.decomposition_of(query.table, tj.left_column)
    right = state.catalog.decomposition_of(tj.right_table, tj.right_column)
    card = estimate_theta_cardinality(
        left, right, Theta(ThetaOp(tj.op), tj.delta),
        left_hist=state.catalog.histogram_of(query.table, tj.left_column),
        right_hist=state.catalog.histogram_of(tj.right_table, tj.right_column),
        left_delta_rows=_delta_rows(state.catalog, query.table),
        right_delta_rows=_delta_rows(state.catalog, tj.right_table),
    )
    if state.n_rows:
        card = card.scaled(state.rows / state.n_rows)
    state.n_right = right.length
    state.pairs = card.candidate_pairs
    nbytes = (
        _approx_nbytes(left)
        + _approx_nbytes(right)
        + card.candidate_pairs * 16
    )
    kind, sec = _gpu(state, op, nbytes=nbytes,
                     tuples=state.rows * right.length, op_class=OpClass.ARITH)
    return kind, card.candidate_pairs, sec


def _est_pair_reduce(state: _EstimateState, op):
    kind, sec = _gpu(state, op, nbytes=8, tuples=state.pairs, op_class=OpClass.AGG)
    return kind, state.pairs, sec


def _est_ship_candidates(state: _EstimateState, op):
    kind, sec = _bus(state.rows * 8)
    return kind, state.rows, sec


def _est_ship_pairs(state: _EstimateState, op):
    kind, sec = _bus(state.pairs * 16)
    return kind, state.pairs, sec


def _est_refine_rows(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.GATHER)
    return kind, state.rows, sec


def _est_cpu_scan_rows(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.SCAN)
    return kind, state.rows, sec


def _est_refine_group(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.HASH)
    return kind, state.rows, sec


def _est_refine_agg(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=8, tuples=state.rows, op_class=OpClass.AGG)
    return kind, state.rows, sec


def _est_pair_select(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=state.rows * 8, tuples=state.rows,
                     op_class=OpClass.GATHER)
    return kind, state.rows, sec


def _est_refine_theta(state: _EstimateState, op):
    before = state.pairs
    kind, sec = _cpu(state, op, nbytes=before * 16, tuples=before,
                     op_class=OpClass.GATHER)
    state.pairs = max(before // 2, 0)  # midpoint of [certain≈0, candidates]
    return kind, before, sec


def _est_pair_group(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=state.pairs * 8, tuples=state.pairs,
                     op_class=OpClass.HASH)
    return kind, state.pairs, sec


def _est_refine_pair_agg(state: _EstimateState, op):
    kind, sec = _cpu(state, op, nbytes=8, tuples=state.pairs, op_class=OpClass.AGG)
    return kind, state.pairs, sec


def _est_all_rows(state: _EstimateState, op):
    state.rows = state.n_rows
    return "gpu", state.n_rows, 0.0


def _est_shard_merge(state: _EstimateState, op: ShardMerge):
    items = state.pairs if op.kind == "pairs" else max(state.rows, 1)
    kind, sec = _cpu(state, op, nbytes=items * 8 * op.n_shards,
                     tuples=items * op.n_shards, op_class=OpClass.GATHER)
    return kind, items * op.n_shards, sec


#: Operator type → estimator. A type missing here is a PlanError.
_ESTIMATORS = {
    AllRows: _est_all_rows,
    ApproxScanSelect: _est_scan,
    ApproxProbeSelect: _est_probe,
    ApproxProject: _est_gather,
    ApproxFkJoin: _est_gather,
    ApproxPayloadSelect: _est_payload_select,
    ApproxGroup: _est_group,
    ApproxMinMaxPrune: _est_reduce,
    ApproxAggregate: _est_reduce,
    ApproxThetaJoin: _est_theta,
    ApproxPairAggregate: _est_pair_reduce,
    ShipCandidates: _est_ship_candidates,
    ShipPairs: _est_ship_pairs,
    RefineSelect: _est_refine_rows,
    CpuSelect: _est_cpu_scan_rows,
    RefineProject: _est_refine_rows,
    RefineFkJoin: _est_refine_rows,
    CpuProject: _est_refine_rows,
    RefineGroup: _est_refine_group,
    RefineAggregate: _est_refine_agg,
    RefinePairSelect: _est_pair_select,
    RefineThetaJoin: _est_refine_theta,
    RefinePairGroup: _est_pair_group,
    RefinePairAggregate: _est_refine_pair_agg,
    ShardMerge: _est_shard_merge,
}


def estimated_plan_spans(plan: PhysicalPlan, catalog) -> list[EstimatedSpan]:
    """Predicted modeled spans for every operator of ``plan``.

    Raises :class:`PlanError` for an operator type the cost model does not
    know — an uncosted plan must be loud, not approximately silent.
    """
    try:
        n_rows = len(catalog.table(plan.query.table))
    except Exception as exc:  # unknown table: surface as a plan problem
        raise PlanError(f"cannot estimate plan over {plan.query.table!r}: {exc}")
    state = _EstimateState(catalog, plan, n_rows)
    spans: list[EstimatedSpan] = []
    for i, op in enumerate(plan.ops):
        estimator = _ESTIMATORS.get(type(op))
        if estimator is None:
            raise PlanError(
                f"no cost-model rule for operator {type(op).__name__!r}"
            )
        device, items, seconds = estimator(state, op)
        spans.append(EstimatedSpan(
            op_index=i, op=op.describe(), device=device,
            est_items=int(items), est_seconds=float(seconds),
        ))
    return spans
