"""Lowering logical plans onto the shards: routing, pruning, merge spec.

One logical query becomes one *fragment* per shard that could contribute,
plus an explicit :class:`~repro.plan.physical.ShardMerge` step.  Three
placement rules:

* a query routes only to the shards holding its table's rows — a
  replicated table runs one fragment (shard 0 holds the full relation);
* a selection over a decomposed column **prunes** every shard whose code
  band is disjoint from the predicate's relaxed code range — provably
  zero candidates under the approximation, hence zero exact rows and a
  zero certain floor, so the skipped fragment is charge-free in every
  mode;
* a theta join requires its right side replicated (every fragment probes
  it in full) and prunes shards whose left approximation hull cannot
  satisfy θ against the right hull (:meth:`Theta.possible` on the
  interval hulls — monotone under interval inclusion, hence sound).

Fragment queries are *lowered* (:func:`repro.engine.merge.lower_aggregates`:
``avg(e) AS a`` becomes ``sum(e) AS "a#sum"`` plus ``count AS "a#cnt"``);
the merge performs the single float64 division — which is exactly what the
single-device engines compute, so the merged value is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core.relax import relax_to_code_range
from ..core.theta import Theta, ThetaOp
from ..engine.merge import lower_aggregates
from ..errors import PlanError
from ..plan.logical import Query
from ..plan.physical import PhysicalPlan, ShardMerge
from ..plan.rewriter import rewrite_to_ar_plan
from .catalog import ShardedCatalog, ShardStats


@dataclass(frozen=True)
class Fragment:
    """One shard's share of a sharded plan."""

    shard_index: int
    query: Query
    plan: PhysicalPlan | None  # None in classic mode


@dataclass
class ShardedPlan:
    """Per-shard fragments plus the explicit merge step."""

    query: Query
    mode: str
    pushdown: bool
    predicate_order: str
    fragments: list[Fragment] = field(default_factory=list)
    pruned: list[int] = field(default_factory=list)
    merge: ShardMerge | None = None
    #: The planner that audits a ``"cost"`` plan (None: no audit).
    auditor: "ShardPlanner | None" = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def decisions(self) -> list:
        """``(shard_index, Decision)`` pairs of a cost plan, built (with
        the fragments' estimates) on first read: see
        :meth:`ShardPlanner.fragment_decisions`."""
        if self.auditor is None:
            return []
        return self.auditor.fragment_decisions(self)

    def describe(self) -> str:
        lines = [
            f"ShardedPlan(mode={self.mode}, fragments={len(self.fragments)}, "
            f"pruned={self.pruned})"
        ]
        if self.fragments and self.fragments[0].plan is not None:
            plan = self.fragments[0].plan
            lines.append(f"  fragment[shard {self.fragments[0].shard_index}]:")
            for op in plan.ops:
                lines.append(f"    {op.describe()}")
        if self.merge is not None:
            lines.append(f"  {self.merge.describe()}")
        if self.decisions:
            lines.append("  optimizer decisions:")
            for shard_index, decision in self.decisions:
                where = (
                    "coordinator" if shard_index is None
                    else f"shard {shard_index}"
                )
                for text in decision.describe():
                    lines.append(f"    [{where}] {text}")
        return "\n".join(lines)


class ShardPlanner:
    """Routes logical queries onto a :class:`ShardedCatalog`."""

    def __init__(self, catalog: ShardedCatalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def plan(
        self,
        query: Query,
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
        optimizer: str = "heuristic",
    ) -> ShardedPlan:
        self._check_scope(query)
        fragment_aggs = lower_aggregates(query.aggregates)
        routed = self._route(query)
        kind = self._merge_kind(query, mode)
        plan = ShardedPlan(
            query=query, mode=mode, pushdown=pushdown,
            predicate_order=predicate_order,
        )
        for shard_index in range(self.catalog.n_shards):
            if shard_index not in routed:
                plan.pruned.append(shard_index)
                continue
            fragment_query = Query(
                table=query.table,
                where=query.where,
                group_by=query.group_by,
                aggregates=fragment_aggs,
                select=query.select,
                theta_joins=query.theta_joins,
            )
            if mode == "classic":
                fragment_plan = None
            else:
                fragment_plan = rewrite_to_ar_plan(
                    fragment_query,
                    self.catalog.shards[shard_index].catalog,
                    pushdown=pushdown,
                    predicate_order=predicate_order,
                    optimizer=optimizer,
                )
            plan.fragments.append(
                Fragment(shard_index, fragment_query, fragment_plan)
            )
        plan.merge = ShardMerge(n_shards=len(plan.fragments), kind=kind)
        if optimizer == "cost" and mode != "classic":
            plan.auditor = self
        return plan

    def fragment_decisions(self, plan: ShardedPlan) -> list:
        """The costed fragment-shape decisions of ``plan``.

        One coordinator-level decision per shard: routed shards show the
        estimated modeled seconds of running their fragment (the sum of
        its estimated spans) against the inadmissible zero-cost prune;
        pruned shards show the scan cost pruning avoided.  Both sides are
        ``forced`` — run-vs-prune is a *soundness* call (zero candidates
        proven from the code bands), the costs only make the trade
        visible.  Each fragment plan's own optimizer decisions are
        re-tagged with their shard index.
        """
        from ..opt.cost import SIM_HOST, OpClass
        from ..opt.planner import Alternative, Decision

        table = plan.query.table
        row_maps = self.catalog.row_maps.get(table)
        per_tuple = SIM_HOST.per_tuple[OpClass.SCAN]
        merge_kind = plan.merge.kind
        decisions = []
        for fragment in plan.fragments:
            est = sum(s.est_seconds for s in fragment.plan.estimated_spans)
            n_rows = (
                len(row_maps[fragment.shard_index]) if row_maps is not None
                else len(self.catalog.global_catalog.table(table))
            )
            decisions.append((None, Decision(
                kind="fragment-shape",
                target=f"{table} shard {fragment.shard_index}",
                chosen="run",
                alternatives=(
                    Alternative("run", est, f"{n_rows:,} rows → {merge_kind} merge"),
                    Alternative(
                        "prune", 0.0,
                        "inadmissible: code band may contribute candidates",
                    ),
                ),
                estimates={"rows": n_rows},
                forced=True,
            )))
            for decision in fragment.plan.decisions:
                decisions.append((fragment.shard_index, decision))
        for shard_index in plan.pruned:
            n_rows = len(row_maps[shard_index]) if row_maps is not None else 0
            decisions.append((None, Decision(
                kind="fragment-shape",
                target=f"{table} shard {shard_index}",
                chosen="prune",
                alternatives=(
                    Alternative(
                        "prune", 0.0,
                        "zero candidates under the approximation",
                    ),
                    Alternative(
                        "run", n_rows * per_tuple,
                        f"{n_rows:,} rows scanned for nothing",
                    ),
                ),
                estimates={"rows": n_rows},
                forced=True,
            )))
        return decisions

    # ------------------------------------------------------------------
    def _check_scope(self, query: Query) -> None:
        if query.joins:
            raise PlanError("sharded execution does not support FK joins")
        if query.select:
            raise PlanError(
                "sharded execution supports aggregation and theta blocks; "
                "bare projections over scrambled candidates have no "
                "reproducible cross-shard order"
            )
        if not query.is_aggregation() and not query.theta_joins:
            raise PlanError(
                "sharded execution supports aggregation and theta blocks"
            )
        if query.table in self.catalog.replicated and query.theta_joins:
            raise PlanError(
                "a theta join's left table must be partitioned; "
                f"{query.table!r} is replicated"
            )
        for tj in query.theta_joins:
            if tj.right_table not in self.catalog.replicated:
                raise PlanError(
                    f"theta right table {tj.right_table!r} must be "
                    "replicated (create_table(..., partition=False)): every "
                    "fragment probes the full right side"
                )

    def _merge_kind(self, query: Query, mode: str) -> str:
        if mode == "approximate":
            return "approximate"
        if query.theta_joins and not query.is_aggregation():
            return "pairs"
        return "aggregate"

    # ------------------------------------------------------------------
    # Routing + pruning
    # ------------------------------------------------------------------
    def _route(self, query: Query) -> set[int]:
        """Shard indexes whose fragment could contribute rows."""
        catalog = self.catalog
        if query.table in catalog.replicated:
            return {0}
        if query.table not in catalog.row_maps:
            # Unknown placement (table never created through this layer).
            raise PlanError(f"table {query.table!r} is not sharded")
        routed = {
            i for i, rows in enumerate(catalog.row_maps[query.table])
            if len(rows) > 0
        }
        for pred in query.where:
            if not pred.is_simple_column:
                continue
            routed &= self._scan_survivors(query.table, pred)
        for tj in query.theta_joins:
            routed &= self._theta_survivors(query, tj)
        return routed

    def _scan_survivors(self, table: str, pred) -> set[int]:
        """Shards whose code band intersects the predicate's relaxed range."""
        column = pred.target.name
        global_bwd = self.catalog.global_catalog.decomposition_of(
            table, column
        )
        stats = self.catalog.shard_stats(table, column)
        if global_bwd is None or stats is None:
            return set(range(self.catalog.n_shards))  # no pruning facts
        lo, hi = relax_to_code_range(pred.vrange, global_bwd.decomposition)
        survivors = set()
        for i, st in enumerate(stats):
            if st is None:
                continue  # empty shard never contributes
            if hi < st.code_lo or lo > st.code_hi:
                continue  # disjoint band: provably zero candidates
            survivors.add(i)
        return survivors

    def _theta_survivors(self, query: Query, tj) -> set[int]:
        """Shards whose left hull could satisfy θ against the right hull."""
        catalog = self.catalog
        left_stats = catalog.shard_stats(query.table, tj.left_column)
        right_stats = catalog.shard_stats(tj.right_table, tj.right_column)
        left_bwd = catalog.global_catalog.decomposition_of(
            query.table, tj.left_column
        )
        right_bwd = catalog.global_catalog.decomposition_of(
            tj.right_table, tj.right_column
        )
        everyone = set(range(catalog.n_shards))
        if None in (left_stats, right_stats, left_bwd, right_bwd):
            return everyone  # no pruning facts (ar planning will validate)
        theta = Theta(ThetaOp(tj.op), tj.delta)
        right_hull = _approx_hull(right_stats[0], right_bwd)
        survivors = set()
        for i, st in enumerate(left_stats):
            if st is None:
                continue  # empty shard never contributes
            lo, hi = _approx_hull(st, left_bwd)
            possible = theta.possible(
                np.asarray([lo]), np.asarray([hi]),
                np.asarray([right_hull[0]]), np.asarray([right_hull[1]]),
            )
            if bool(possible[0]):
                survivors.add(i)
        return survivors


def _approx_hull(stats: ShardStats, global_bwd) -> tuple[int, int]:
    """The approximation-interval hull of one shard's column slice.

    ``value_floor``/``value_ceil`` are monotone in the code, so the hull
    of per-row intervals is the interval of the extreme codes.  Pruning on
    the *approximate* hull (rather than exact min/max) keeps skipped
    fragments neutral in every mode: not even a relaxed candidate pair
    could have come from them.
    """
    dec = global_bwd.decomposition
    return int(dec.value_floor(stats.code_lo)), int(dec.value_ceil(stats.code_hi))
