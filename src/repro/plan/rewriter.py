"""The ``bwd_pipe`` micro-optimizer: logical query → physical A&R plan.

Mirrors the paper's §V-B: the plan a classic optimizer would emit is
rewritten into pairs of approximate & refine operators, then a simple
rule-based pass pushes approximate selections below refinements (§III-A) so
the whole approximation subplan executes before the first refinement —
which is also what makes the free "fast approximate answer" possible.

The rewriter consults the catalog to decide, per column:

* decomposed, residual = 0   → device-resident at full precision: exact on
  the GPU, refinement is a no-op;
* decomposed, residual > 0   → distributed: approximate on the GPU,
  residual join on the CPU;
* not decomposed             → host-only: the classic CPU operators handle
  it during the refinement phase.
"""

from __future__ import annotations

from ..errors import PlanError
from ..storage.catalog import Catalog
from .expr import ColRef, Predicate
from .logical import Aggregate, Query
from .physical import (
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
    PhysicalOp,
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
    ShipCandidates,
    ShipPairs,
)


class _ColumnInfo:
    """Per-column placement facts the rewriter decides operators with."""

    def __init__(self, query: Query, catalog: Catalog) -> None:
        self._query = query
        self._catalog = catalog

    def physical_site(self, name: str) -> tuple[str, str]:
        """Resolve a (possibly dim-qualified) name to (table, column)."""
        dim = self._query.dim_table_of(name)
        if dim is not None:
            return dim, name.split(".", 1)[1]
        if "." in name:
            raise PlanError(f"column {name!r} references an unjoined table")
        return self._query.table, name

    def is_dim(self, name: str) -> bool:
        return self._query.dim_table_of(name) is not None

    def fk_for(self, name: str) -> str:
        dim = self._query.dim_table_of(name)
        for join in self._query.joins:
            if join.dim_table == dim:
                return join.fk_column
        raise PlanError(f"no join provides column {name!r}")

    def is_decomposed(self, name: str) -> bool:
        table, column = self.physical_site(name)
        return self._catalog.is_decomposed(table, column)

    def residual_bits(self, name: str) -> int:
        table, column = self.physical_site(name)
        bwd = self._catalog.decomposition_of(table, column)
        if bwd is None:
            raise PlanError(f"column {name!r} is not decomposed")
        return bwd.decomposition.residual_bits

    def device_available(self, name: str) -> bool:
        """Column reachable on the device (itself or via FK gather)."""
        if self.is_dim(name):
            return self.is_decomposed(name) and self.is_decomposed(self.fk_for(name))
        return self.is_decomposed(name)

    def needs_exact_refinement(self, name: str) -> bool:
        """True when exact values require host work for this column."""
        if not self.is_decomposed(name):
            return True
        return self.residual_bits(name) > 0


def rewrite_to_ar_plan(
    query: Query,
    catalog: Catalog,
    *,
    pushdown: bool = True,
    predicate_order: str = "query",
    optimizer: str = "heuristic",
) -> PhysicalPlan:
    """Rewrite one logical block into a validated physical A&R plan.

    ``predicate_order`` selects how drivable approximate selections are
    sequenced: ``"query"`` keeps the WHERE-clause order (the paper's simple
    rule-based baseline), ``"selectivity"`` orders them most-selective
    first using the code histograms — the cost-based extension §III-A
    leaves for future work.

    ``optimizer="cost"`` gives the plan an audit: :mod:`repro.opt`'s
    predicted modeled spans per operator and the scan-order decision with
    its rejected competitor, computed the first time something reads them
    (:class:`PhysicalPlan`).  The operators are the same as under
    ``"heuristic"``, so Result and modeled Timeline are too.
    """
    if predicate_order not in ("query", "selectivity"):
        raise PlanError(f"unknown predicate order {predicate_order!r}")
    from ..opt.planner import check_optimizer

    check_optimizer(optimizer)
    if query.theta_joins:
        plan = _rewrite_theta_plan(query, catalog, pushdown=pushdown)
        return _audited(plan, catalog, optimizer)
    info = _ColumnInfo(query, catalog)

    drivable: list[Predicate] = []
    payload_preds: list[Predicate] = []
    host_preds: list[Predicate] = []
    for pred in query.where:
        if pred.is_simple_column and not info.is_dim(pred.target.name) \
                and info.is_decomposed(pred.target.name):
            drivable.append(pred)
        elif all(info.device_available(c) for c in pred.columns()):
            payload_preds.append(pred)
        else:
            host_preds.append(pred)
    if predicate_order == "selectivity" and len(drivable) > 1:
        from ..opt.estimates import estimate_selectivity

        drivable.sort(
            key=lambda p: estimate_selectivity(catalog, query.table, p)
        )

    # Columns whose approximation must be gathered onto the candidates.
    payload_columns: list[str] = []

    def want_payload(name: str) -> None:
        if info.device_available(name) and name not in payload_columns:
            payload_columns.append(name)

    referenced = sorted(query.referenced_columns())
    for pred in payload_preds:
        for col in sorted(pred.columns()):
            want_payload(col)
    for col in query.group_by:
        want_payload(col)
    for agg in query.aggregates:
        if agg.func == "count":
            continue  # counting needs ids only, never the values
        for col in sorted(agg.columns()):
            want_payload(col)
    for col in query.select:
        want_payload(col)
    # Host-only dim columns are gathered on the CPU via the FK values, so
    # the FK itself must reach the host exactly.
    for col in referenced:
        if info.is_dim(col) and not info.device_available(col):
            fk = info.fk_for(col)
            if info.is_decomposed(fk):
                want_payload(fk)

    # The min/max candidate pruning (§IV-F) discards rows that cannot win
    # the extremum; that is only sound when the extremum is the query's
    # sole output.
    prune_ok = (
        len(query.aggregates) == 1
        and not query.group_by
        and not query.select
        and query.aggregates[0].func in ("min", "max")
    )

    ops: list[PhysicalOp] = []

    # ------------------------------------------------------------------
    # Approximation subplan
    # ------------------------------------------------------------------
    def emit_approx_selects(preds: list[Predicate], first: bool) -> None:
        for i, pred in enumerate(preds):
            assert isinstance(pred.target, ColRef)
            if first and i == 0:
                ops.append(ApproxScanSelect(pred.target.name, pred))
            else:
                ops.append(ApproxProbeSelect(pred.target.name, pred))

    def emit_payload_stage() -> None:
        for col in payload_columns:
            if info.is_dim(col):
                ops.append(ApproxFkJoin(info.fk_for(col), query.dim_table_of(col), col))
            else:
                ops.append(ApproxProject(col))
        for pred in payload_preds:
            ops.append(ApproxPayloadSelect(pred))
        if query.group_by and any(info.device_available(c) for c in query.group_by):
            ops.append(
                ApproxGroup(tuple(c for c in query.group_by if info.device_available(c)))
            )
        for agg in query.aggregates:
            if prune_ok:
                ops.append(ApproxMinMaxPrune(agg))
            ops.append(ApproxAggregate(agg))

    def emit_refine_stage() -> None:
        for pred in drivable:
            assert isinstance(pred.target, ColRef)
            if info.residual_bits(pred.target.name) > 0:
                ops.append(RefineSelect(pred.target.name, pred))
        exact_needed: list[str] = []

        def want_exact(name: str) -> None:
            # A host gather of a dim column dereferences the FK on the CPU,
            # so the FK's exact values must be refined first.
            if name not in exact_needed and info.is_dim(name) \
                    and not info.device_available(name):
                fk = info.fk_for(name)
                if info.is_decomposed(fk) and fk not in exact_needed:
                    exact_needed.append(fk)
            if name not in exact_needed:
                exact_needed.append(name)

        for pred in payload_preds + host_preds:
            for col in sorted(pred.columns()):
                want_exact(col)
        for col in query.group_by:
            want_exact(col)
        for agg in query.aggregates:
            if agg.func == "count":
                continue  # refined candidate ids suffice for counting
            agg_cols = sorted(agg.columns())
            if any(info.needs_exact_refinement(c) for c in agg_cols):
                for col in agg_cols:
                    want_exact(col)
        for col in query.select:
            want_exact(col)

        for col in exact_needed:
            if not info.is_decomposed(col) or (
                info.is_dim(col) and not info.device_available(col)
            ):
                ops.append(CpuProject(col))
            elif info.is_dim(col):
                if info.residual_bits(col) > 0:
                    ops.append(RefineFkJoin(col))
            elif info.residual_bits(col) > 0:
                ops.append(RefineProject(col))

        for pred in payload_preds + host_preds:
            ops.append(CpuSelect(pred))
        if query.group_by:
            ops.append(RefineGroup(tuple(query.group_by)))
        for agg in query.aggregates:
            ops.append(RefineAggregate(agg))

    if pushdown:
        if drivable:
            emit_approx_selects(drivable, first=True)
        else:
            ops.append(AllRows())
        emit_payload_stage()
        ops.append(ShipCandidates())
        emit_refine_stage()
    else:
        # Ablation: no pushdown — each selection's refinement runs before
        # the next approximate selection, crossing the bus every time.
        if drivable:
            for i, pred in enumerate(drivable):
                assert isinstance(pred.target, ColRef)
                if i == 0:
                    ops.append(ApproxScanSelect(pred.target.name, pred))
                else:
                    ops.append(ApproxProbeSelect(pred.target.name, pred))
                ops.append(ShipCandidates())
                if info.residual_bits(pred.target.name) > 0:
                    ops.append(RefineSelect(pred.target.name, pred))
        else:
            ops.append(AllRows())
        emit_payload_stage()
        ops.append(ShipCandidates())
        # Refinements for drivable predicates already ran above.
        saved = list(drivable)
        drivable.clear()
        emit_refine_stage()
        drivable.extend(saved)

    plan = PhysicalPlan(query=query, ops=ops, pushdown=pushdown).validate()
    return _audited(plan, catalog, optimizer, predicate_order)


def _audited(
    plan: PhysicalPlan, catalog: Catalog, optimizer: str,
    predicate_order: str = "query",
) -> PhysicalPlan:
    """Arm a ``"cost"`` plan's audit, which is computed when first read.

    The statistics the audit would read stay eager: every drivable
    predicate's histogram and both theta sides'.  ``CodeHistogram.build``
    decodes the column through ``approx_codes()``, which seeds the
    column's view; under ``solo.evict``'s 8 MiB view budget that side
    effect is the only thing keeping Q6's probe column ``discount``
    resident (deferred with the audit, ``q6_ar`` went 3.6 → 6.0 ms).
    """
    if optimizer != "cost":
        return plan
    table = plan.query.table
    for op in plan.ops:
        if isinstance(op, (ApproxScanSelect, ApproxProbeSelect)):
            catalog.histogram_of(table, op.column)
        elif isinstance(op, ApproxThetaJoin):
            catalog.histogram_of(table, op.theta.left_column)
            catalog.histogram_of(op.theta.right_table, op.theta.right_column)
    plan.catalog = catalog
    plan.predicate_order = predicate_order
    return plan


def _rewrite_theta_plan(
    query: Query, catalog: Catalog, *, pushdown: bool
) -> PhysicalPlan:
    """Lower a theta-join block into the Approx → Ship → Refine pair plan.

    Selections under the join run as relaxed device scans when their column
    is decomposed (the join then only compares surviving left rows);
    everything uncertain — residual bits of drivable predicates, host-only
    predicates, the join condition itself — re-checks exactly on the host,
    over the shipped candidate pairs, without ever exploding a run.
    """
    if not pushdown:
        raise PlanError(
            "the no-pushdown ablation does not support theta joins; "
            "run the ThetaJoin plan with pushdown=True"
        )
    theta = query.theta_joins[0]
    for table, column in (
        (query.table, theta.left_column),
        (theta.right_table, theta.right_column),
    ):
        if not catalog.is_decomposed(table, column):
            raise PlanError(f"column '{table}.{column}' is not decomposed")

    drivable: list[Predicate] = []
    host_preds: list[Predicate] = []
    for pred in query.where:
        if pred.is_simple_column and catalog.is_decomposed(
            query.table, pred.target.name
        ):
            drivable.append(pred)
        else:
            host_preds.append(pred)

    ops: list[PhysicalOp] = []
    for i, pred in enumerate(drivable):
        assert isinstance(pred.target, ColRef)
        if i == 0:
            ops.append(ApproxScanSelect(pred.target.name, pred))
        else:
            ops.append(ApproxProbeSelect(pred.target.name, pred))
    ops.append(ApproxThetaJoin(theta))
    for agg in query.aggregates:
        ops.append(ApproxPairAggregate(agg))
    ops.append(ShipPairs())
    for pred in drivable:
        assert isinstance(pred.target, ColRef)
        bwd = catalog.decomposition_of(query.table, pred.target.name)
        if bwd.decomposition.residual_bits > 0:
            ops.append(RefinePairSelect(pred))
    for pred in host_preds:
        ops.append(RefinePairSelect(pred))
    ops.append(RefineThetaJoin(theta))
    if query.group_by:
        ops.append(RefinePairGroup(tuple(query.group_by)))
    for agg in query.aggregates:
        ops.append(RefinePairAggregate(agg))
    return PhysicalPlan(query=query, ops=ops, pushdown=pushdown).validate()
