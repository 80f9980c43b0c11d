"""The A&R interpreter: runs physical plans across GPU, bus and CPU.

Executes the approximation subplan on the simulated GPU (producing the free
approximate answer), ships the surviving candidates across the PCI-E model
once (with pushdown), then runs the refinement subplan on the CPU to the
exact result.  Execution follows the dataflow of the paper's Fig 7 plan.
"""

from __future__ import annotations

import numpy as np

from ..core import aggregates as agg_kernels
from ..core.approximate import (
    fk_join_approx,
    project_approx,
    select_conjunction_approx,
)
from ..core.candidates import Approximation, CarvedHits
from ..core.grouping import (
    GroupAssignment,
    code_composite,
    combine_keys,
    group_approx_from_keys,
    group_ordered,
    group_refine,
    key_range,
)
from ..core.intervals import Interval, IntervalColumn
from ..core.pair_agg import (
    group_pair_rows,
    pair_result_columns,
    pair_rows,
    right_run_partials,
)
from ..core.refine import (
    align_via_translucent,
    fk_join_refine,
    project_refine,
    select_refine,
    ship_candidates,
    ship_pairs,
)
from ..core.theta import (
    Theta,
    ThetaOp,
    theta_certain_pair_count,
    theta_join_approx,
    theta_join_refine,
)
from ..core.relax import ValueRange
from ..device.machine import Machine
from ..device.model import AccessPattern, OpClass
from ..device.timeline import Timeline
from ..errors import BoundOverflowError, ExecutionError, PlanError
from ..core.candidates import RunPairCandidates
from ..plan.expr import ColRef, Expr, Predicate
from ..plan.logical import Aggregate, Query, ThetaJoin
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
    ShipCandidates,
    ShipPairs,
)
from ..storage.catalog import Catalog
from ..storage.decompose import BwdColumn
from ..util import unique_inverse
from .result import ApproximateAnswer, Result

_OID_BYTES = 8


def _at(values: np.ndarray, certain: np.ndarray) -> np.ndarray:
    """``values`` at the ``certain`` rows — whole when all are."""
    return values if certain.all() else values.take(np.flatnonzero(certain))


class _ExecState:
    """Mutable dataflow state threaded through the operator list."""

    def __init__(self, query: Query, catalog: Catalog, machine: Machine) -> None:
        self.query = query
        self.catalog = catalog
        self.machine = machine
        #: Candidates that only feed aggregates are a set; a row that
        #: leaves the engine (or enters a theta join) does so in order.
        self.rows_in_order = bool(query.theta_joins) or not query.is_aggregation()
        self.candidates = None
        self.groups: GroupAssignment | None = None
        #: the candidates ``groups`` was computed over: operators that
        #: narrow hand back a new set, so while this is still the current
        #: one the pre-grouping is aligned with it as it stands
        self.grouped: Approximation | None = None
        self.approximate = ApproximateAnswer()
        self.exact_aggregates: dict[str, np.ndarray] = {}
        self.shipped = False
        # Theta-join plans flow a candidate *pair* set instead of (or after)
        # the unary candidate set.
        self.pairs: RunPairCandidates | None = None
        #: the refined pairs' grouping; ``None`` for an ungrouped block
        self.pair_groups: GroupAssignment | None = None
        self.pair_group_keys: dict[str, np.ndarray] = {}
        self._pair_rows: tuple[np.ndarray, np.ndarray] | None = None
        self._pair_values: dict[str, np.ndarray] = {}
        # Serve-layer injection: id(physical op) -> scan hits carved by a
        # shared cooperative pass (wall-clock only; charges and results
        # stay byte-identical to a solo run).
        self.scan_hits: dict[int, CarvedHits] | None = None

    # Every operator hands its output back through the ``candidates`` setter,
    # which drops what the aggregates memoized over the previous candidate
    # set, so a memo never outlives the candidates it was computed from.
    @property
    def candidates(self) -> Approximation | None:
        return self._candidates

    @candidates.setter
    def candidates(self, value: Approximation | None) -> None:
        self._candidates = value
        #: interval bounds of (sub-)expressions over the payloads
        self.interval_memo: dict[Expr, IntervalColumn] = {}
        #: rows certainly satisfying every predicate (``_certainty``)
        self.certain: np.ndarray | None = None
        #: the pre-grouping re-aligned by narrowing (``_candidate_groups``)
        self.aligned_groups: GroupAssignment | None = None

    def eval_interval(self, expr: Expr) -> IntervalColumn | None:
        """Interval bounds of ``expr`` over the candidates' payloads, or
        ``None`` when a bound leaves int64: the exact values then wrap, as
        classic's do, and only they say what the expression is."""
        try:
            return expr.eval_interval(self.interval_resolver, self.interval_memo)
        except BoundOverflowError:
            return None

    # ------------------------------------------------------------------
    def pair_left_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted left-row view of the refined pairs (cached)."""
        assert self.pairs is not None
        if self._pair_rows is None:
            self._pair_rows = pair_rows(self.pairs)
        return self._pair_rows

    def pair_left_values(self, name: str) -> np.ndarray:
        """Exact fact-column values at the pairs' left rows (cached gather)."""
        if name not in self._pair_values:
            rows, _ = self.pair_left_rows()
            rel = self.catalog.table(self.query.table)
            self._pair_values[name] = np.asarray(
                rel.values(name), dtype=np.int64
            )[rows]
        return self._pair_values[name]

    def invalidate_pair_rows(self) -> None:
        """Drop the row view and value gathers after the pair set changed."""
        self._pair_rows = None
        self._pair_values.clear()

    # ------------------------------------------------------------------
    def site(self, name: str) -> tuple[str, str]:
        dim = self.query.dim_table_of(name)
        if dim is not None:
            return dim, name.split(".", 1)[1]
        if "." in name:
            raise ExecutionError(f"column {name!r} references an unjoined table")
        return self.query.table, name

    def bwd(self, name: str) -> BwdColumn:
        table, column = self.site(name)
        col = self.catalog.decomposition_of(table, column)
        if col is None:
            raise PlanError(f"column {name!r} is not decomposed")
        return col

    def interval_resolver(self, name: str) -> IntervalColumn:
        assert self.candidates is not None
        return self.candidates.payload(name)

    def exact_resolver(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        """Exact values at the current candidates (refine-phase only), or at
        their ``rows`` alone: an exact payload is read at those rows only."""
        assert self.candidates is not None
        payload = self.candidates.payloads.get(name)
        if payload is not None and payload.is_exact:
            return payload.lo if rows is None else payload.take(rows).lo
        table, column = self.site(name)
        if self.catalog.is_decomposed(table, column):
            raise PlanError(
                f"decomposed column {name!r} was not refined before exact use"
            )
        # Host-only column: classic gather from relation storage.
        values = self._host_gather(name)
        return values if rows is None else values.take(rows)

    def _host_gather(self, name: str) -> np.ndarray:
        assert self.candidates is not None
        table, column = self.site(name)
        rel = self.catalog.table(table)
        width = max(1, rel.type_of(column).storage_bits // 8)
        timeline = self.timeline
        if table == self.query.table:
            values = rel.values(column)[self.candidates.ids]
        else:
            fk = self._fk_for(name)
            fk_values = self.exact_resolver(fk)
            if len(fk_values) and (
                int(fk_values.min()) < 0 or int(fk_values.max()) >= len(rel)
            ):
                raise ExecutionError(f"FK {fk!r} points outside {table!r}")
            values = rel.values(column)[fk_values]
        self.machine.cpu.charge_gather(
            timeline, f"cpu.project({name})",
            items=len(values), item_bytes=width, source_rows=len(rel),
        )
        self.candidates = self.candidates.with_payload(
            name, IntervalColumn.exact(values)
        )
        return values

    def _fk_for(self, name: str) -> str:
        dim = self.query.dim_table_of(name)
        for join in self.query.joins:
            if join.dim_table == dim:
                return join.fk_column
        raise ExecutionError(f"no join provides {name!r}")

    timeline: Timeline  # assigned by the executor per run


class ArExecutor:
    """Interprets physical A&R plans against a machine and a catalog."""

    def __init__(self, catalog: Catalog, machine: Machine) -> None:
        self._catalog = catalog
        self._machine = machine

    # ------------------------------------------------------------------
    def run(
        self,
        plan: PhysicalPlan,
        timeline: Timeline | None = None,
        *,
        approximate_only: bool = False,
        scan_hits: dict[int, CarvedHits] | None = None,
    ) -> Result:
        """Execute a plan; with ``approximate_only`` stop before shipping.

        The approximate-only mode is the paper's advantage (4): evaluating
        just the approximation subplan yields a fast approximate answer
        "without wasting resources".

        ``scan_hits`` maps ``id(op)`` of an :class:`ApproxScanSelect` to
        the hits a shared cooperative pass already carved (the serve
        layer's fused batches).  It short-circuits only the NumPy
        evaluation; the operator's modeled charge and emitted candidates
        are byte-identical to the solo scan — and a plan that only counts
        them never forms a row (:meth:`Approximation.deferred`).
        """
        timeline = timeline if timeline is not None else Timeline()
        state = _ExecState(plan.query, self._catalog, self._machine)
        state.timeline = timeline
        state.scan_hits = scan_hits

        ops, i = plan.ops, 0
        while i < len(ops):
            op, stop = ops[i], i + 1
            if approximate_only and op.phase == "refine":
                break
            if isinstance(op, (ApproxScanSelect, ApproxProbeSelect)):
                # A scan and the probes behind it are one device pass.
                while stop < len(ops) and isinstance(ops[stop], ApproxProbeSelect):
                    stop += 1
                self._select_conjunction(ops[i:stop], state)
            elif isinstance(op, ApproxProject) and not state.rows_in_order:
                # So are the projections that end in the pre-grouping, over
                # candidates that may first be put in group order.
                while stop < len(ops) and isinstance(ops[stop], ApproxProject):
                    stop += 1
                if stop < len(ops) and isinstance(ops[stop], ApproxGroup):
                    stop += 1
                if not self._group_major(ops[i:stop], state):
                    for each in ops[i:stop]:
                        self._dispatch(each, state)
            else:
                self._dispatch(op, state)
            i = stop

        if approximate_only:
            if state.pairs is not None:
                state.approximate.candidate_rows = len(state.pairs)
            else:
                state.approximate.candidate_rows = (
                    len(state.candidates) if state.candidates is not None else 0
                )
            return Result(
                columns={},
                row_count=0,
                timeline=timeline,
                approximate=state.approximate,
            )
        if plan.query.theta_joins:
            return self._finalize_theta(state)
        return self._finalize(state)

    # ------------------------------------------------------------------
    # Theta-join plan support
    # ------------------------------------------------------------------
    def _theta_bwd(self, table: str, column: str) -> BwdColumn:
        col = self._catalog.decomposition_of(table, column)
        if col is None:
            raise PlanError(f"column '{table}.{column}' is not decomposed")
        return col

    @staticmethod
    def _theta_of(tj: ThetaJoin) -> Theta:
        return Theta(ThetaOp(tj.op), tj.delta)

    # ------------------------------------------------------------------
    def _select_conjunction(self, ops: list, state: _ExecState) -> None:
        """Consecutive relaxed selections — a scan with the probes behind
        it, or probes continuing from the current candidates — as one call
        of the conjunction kernel; each still bills as its own operator."""
        scan = ops[0] if isinstance(ops[0], ApproxScanSelect) else None
        assert scan is not None or state.candidates is not None
        hits = None
        if scan is not None and state.scan_hits is not None:
            hits = state.scan_hits.get(id(scan))
        state.candidates = select_conjunction_approx(
            self._machine.gpu, state.timeline,
            [(state.bwd(op.column), op.column, op.predicate.vrange) for op in ops],
            candidates=None if scan is not None else state.candidates,
            precomputed_hits=hits,
            in_order=state.rows_in_order,
        )

    def _group_major(self, ops: list, state: _ExecState) -> bool:
        """Projections ending in the pre-grouping of a plan that only
        aggregates, over candidates first put in *group-major* order.

        The key columns' codes at the ids fold into one narrow composite;
        one stable sort of it orders the ids and the payloads the set
        carries; then every projection bills, from counts, in plan order,
        bounds deferred over the reordered ids, and the grouping is read off
        the sorted composite (:func:`group_ordered`), so each aggregate
        behind it reduces contiguous slices.  Declines, nothing done, for
        a run that ends in no grouping, a set that still carries its carve
        (its run order is what certainty and the boundary refinement
        read), keys reached through an FK join, and a composite wider than
        the 16 bits NumPy sorts by radix.
        """
        *projects, group = ops
        candidates = state.candidates
        assert candidates is not None
        if (
            not isinstance(group, ApproxGroup)
            or candidates.carved
            or any(state.query.dim_table_of(c) is not None for c in group.columns)
        ):
            return False
        keys = [state.bwd(c) for c in group.columns]
        bits = [max(column.decomposition.approx_bits, 1) for column in keys]
        if sum(bits) > 16:
            return False
        composite, folded = code_composite([
            (c, column.approx_at(candidates.ids), width)
            for c, column, width in zip(group.columns, keys, bits)
        ])
        order = np.argsort(composite, kind="stable")
        state.candidates = candidates.narrowed(order)
        state.candidates.order_preserved = False
        for op in projects:
            self._dispatch(op, state)
        self._pre_grouped(state, group_ordered(
            self._machine.gpu, state.timeline, composite[order], folded,
            all(state.candidates.payload(c).is_exact for c in group.columns),
        ))
        return True

    @staticmethod
    def _pre_grouped(state: _ExecState, groups: GroupAssignment) -> None:
        """Group ids ride along as a payload so that every subsequent
        candidate narrowing (a translucent join) re-aligns them."""
        assert state.candidates is not None
        state.groups = groups
        state.candidates = state.grouped = state.candidates.with_payload(
            "@gids", IntervalColumn.exact(groups.gids)
        )

    def _dispatch(self, op, state: _ExecState) -> None:
        machine, tl = self._machine, state.timeline
        if isinstance(op, AllRows):
            n = len(self._catalog.table(state.query.table))
            state.candidates = Approximation(ids=np.arange(n, dtype=np.int64))
        elif isinstance(op, ApproxProject):
            assert state.candidates is not None
            state.candidates = project_approx(
                machine.gpu, tl, state.bwd(op.column), op.column, state.candidates
            )
        elif isinstance(op, ApproxFkJoin):
            assert state.candidates is not None
            state.candidates = fk_join_approx(
                machine.gpu, tl, state.bwd(op.fk_column),
                state.bwd(op.target_column), op.target_column, state.candidates,
            )
        elif isinstance(op, ApproxPayloadSelect):
            assert state.candidates is not None
            mask = op.predicate.candidate_mask(state.interval_resolver)
            machine.gpu.reduce(len(mask), tl, op="select.approx.bounds")
            state.candidates = state.candidates.narrowed(np.flatnonzero(mask))
        elif isinstance(op, ApproxGroup):
            assert state.candidates is not None
            # Group on the candidates' payloads (bucket floors): they are
            # already aligned with the candidate ids, including dimension
            # columns reached through FK joins.
            keyed = []
            for c in op.columns:
                payload = state.candidates.payload(c)
                keyed.append((c, payload.lo, payload.is_exact))
            self._pre_grouped(state, group_approx_from_keys(machine.gpu, tl, keyed))
        elif isinstance(op, ApproxMinMaxPrune):
            self._minmax_prune(op.aggregate, state)
        elif isinstance(op, ApproxAggregate):
            self._approx_aggregate(op.aggregate, state)
        elif isinstance(op, ApproxThetaJoin):
            tj = op.theta
            left_ids = (
                state.candidates.ids if state.candidates is not None else None
            )
            state.pairs = theta_join_approx(
                machine.gpu, tl,
                self._theta_bwd(state.query.table, tj.left_column),
                self._theta_bwd(tj.right_table, tj.right_column),
                self._theta_of(tj), left_ids=left_ids,
            )
            # The free approximate answer reports the device-side candidate
            # pair count.
            state.approximate.candidate_rows = len(state.pairs)
        elif isinstance(op, ApproxPairAggregate):
            assert state.pairs is not None
            agg = op.aggregate
            n = len(state.pairs)
            machine.gpu.reduce(
                max(n, 1), tl, op=f"agg.{agg.func}.approx(pairs:{agg.alias})"
            )
            if agg.func == "count" and not state.query.group_by:
                # Strict bounds: no pair outside the candidates can appear,
                # and a pair whose buckets satisfy θ for every residual
                # assignment cannot vanish — provided no selection under
                # the join could still drop its left row (with a WHERE
                # clause the sound certain floor stays 0).
                certain = 0
                if not state.query.where:
                    tj = state.query.theta_joins[0]
                    certain = theta_certain_pair_count(
                        self._theta_bwd(state.query.table, tj.left_column),
                        self._theta_bwd(tj.right_table, tj.right_column),
                        self._theta_of(tj),
                    )
                state.approximate.aggregates[agg.alias] = Interval(
                    float(certain), float(n)
                )
            else:
                state.approximate.aggregates[agg.alias] = None
        elif isinstance(op, ShipPairs):
            assert state.pairs is not None
            ship_pairs(machine.bus, tl, state.pairs)
            state.shipped = True
        elif isinstance(op, RefinePairSelect):
            self._refine_pair_select(op.predicate, state)
        elif isinstance(op, RefineThetaJoin):
            assert state.pairs is not None
            tj = op.theta
            state.pairs = theta_join_refine(
                machine.cpu, tl,
                self._theta_bwd(state.query.table, tj.left_column),
                self._theta_bwd(tj.right_table, tj.right_column),
                self._theta_of(tj), state.pairs,
            )
            state.invalidate_pair_rows()
        elif isinstance(op, RefinePairGroup):
            self._refine_pair_group(op.columns, state)
        elif isinstance(op, RefinePairAggregate):
            self._refine_pair_aggregate(op.aggregate, state)
        elif isinstance(op, ShipCandidates):
            assert state.candidates is not None
            # Approximation codes travel packed into the oids' spare high
            # bits; only computed interval payloads add bytes.
            extra = 8 * sum(
                1 for label in state.candidates.labels
                if self._payload_bits(label, state) is None
            )
            ship_candidates(machine.bus, tl, state.candidates, extra)
            state.shipped = True
        elif isinstance(op, RefineSelect):
            assert state.candidates is not None
            state.candidates = select_refine(
                machine.cpu, tl, state.bwd(op.column), op.column,
                op.predicate.vrange, state.candidates,
            )
        elif isinstance(op, CpuSelect):
            assert state.candidates is not None
            mask = op.predicate.evaluate_exact(state.exact_resolver)
            keep = np.flatnonzero(mask)
            machine.cpu.charge(
                tl, f"cpu.select{op.predicate!r}",
                len(mask) + keep.size * _OID_BYTES,
                tuples=len(mask) * max(1, op.predicate.target.op_count()),
                op_class=OpClass.SCAN,
            )
            state.candidates = align_via_translucent(
                machine.cpu, tl, state.candidates,
                state.candidates.ids.take(keep), positions=keep,
            )
        elif isinstance(op, RefineProject):
            assert state.candidates is not None
            state.candidates = project_refine(
                machine.cpu, tl, state.bwd(op.column), op.column, state.candidates
            )
        elif isinstance(op, RefineFkJoin):
            assert state.candidates is not None
            state.candidates = fk_join_refine(
                machine.cpu, tl, state.bwd(op.target_column), op.target_column,
                state.candidates,
            )
        elif isinstance(op, CpuProject):
            state._host_gather(op.column)
        elif isinstance(op, RefineGroup):
            self._refine_group(op.columns, state)
        elif isinstance(op, RefineAggregate):
            self._refine_aggregate(op.aggregate, state)
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unknown physical operator {op!r}")

    # ------------------------------------------------------------------
    def _payload_bits(self, label: str, state: _ExecState) -> int | None:
        """Approximation-code width behind a payload, or None if computed."""
        try:
            return state.bwd(label).decomposition.approx_bits or 1
        except (PlanError, ExecutionError):
            return None

    # ------------------------------------------------------------------
    # Aggregation (approximate side)
    # ------------------------------------------------------------------
    @staticmethod
    def _sole_selection(state: _ExecState) -> tuple[str, ValueRange] | None:
        """``(label, value range)`` of the query's one predicate when it is
        a plain column range — the only certainty a carved scan decides by
        itself (:meth:`Approximation.certain_count`, :meth:`~Approximation.
        certain_run`)."""
        where = state.query.where
        if len(where) == 1 and where[0].is_simple_column:
            return where[0].target.name, where[0].vrange
        return None

    def _certainty(self, state: _ExecState) -> np.ndarray:
        """Rows certainly satisfying every predicate, judged on the device.

        Predicates not decidable on the device (host-only columns) force
        uncertainty — their rows may yet be eliminated in refinement.
        Candidates in the run order of the carve that answered the query's
        one predicate are certain in one slice of it, an exact set throughout
        (:attr:`Approximation.exact`): nothing is tested, no bound is read.
        """
        assert state.candidates is not None
        if state.certain is None:
            sole = self._sole_selection(state)
            sure = state.candidates.certain_run(*sole) if sole else None
            if sure is not None:
                state.certain = np.zeros(len(state.candidates), dtype=bool)
                state.certain[sure] = True
                return state.certain
            labels = state.candidates.labels
            where = state.query.where
            decidable = all(c in labels for pred in where for c in pred.columns())
            state.certain = np.full(len(state.candidates), decidable)
            if decidable and not state.candidates.exact:
                for pred in where:
                    state.certain &= pred.certain_mask(state.interval_resolver)
        return state.certain

    def _certain_count(self, state: _ExecState) -> int:
        """How many candidates :meth:`_certainty` marks.

        Candidates as the scan of the query's one predicate carved them —
        still deferred, or formed in its run order — are certain off their
        boundary (the rows whose bucket reaches outside the range), so they
        are counted, not formed.
        """
        assert state.candidates is not None
        sole = self._sole_selection(state)
        known = state.candidates.certain_count(*sole) if sole else None
        if known is not None:
            return known
        return int(np.count_nonzero(self._certainty(state)))

    @staticmethod
    def _candidate_groups(state: _ExecState) -> GroupAssignment:
        """The pre-grouping aligned with the current candidates.

        Group ids ride along as the ``@gids`` payload, so every narrowing
        since the pre-grouping re-aligned them; a narrowed subset of checked
        ids is checked once more here, then trusted by every kernel.
        Candidates nothing narrowed keep the pre-grouping itself.
        """
        assert state.candidates is not None and state.groups is not None
        if (
            "@gids" not in state.candidates.payloads
            or state.candidates is state.grouped
        ):
            return state.groups
        if state.aligned_groups is None:
            state.aligned_groups = GroupAssignment(
                gids=state.candidates.payload("@gids").lo,
                n_groups=state.groups.n_groups,
                exact=state.groups.exact,
            )
        return state.aligned_groups

    def _approx_aggregate(self, agg: Aggregate, state: _ExecState) -> None:
        assert state.candidates is not None
        machine, tl = self._machine, state.timeline
        candidates = state.candidates
        n = len(candidates)
        machine.gpu.reduce(max(n, 1), tl, op=f"agg.{agg.func}.approx({agg.alias})")

        bounds = None  # counting needs no value bounds
        if agg.expr is not None and agg.func != "count":
            needed = agg.expr.columns()
            if all(c in candidates.payloads for c in needed):
                bounds = state.eval_interval(agg.expr)
            if bounds is None:
                state.approximate.aggregates[agg.alias] = None
                return

        grouped = state.groups is not None and state.query.group_by
        if agg.func == "count" and not grouped:
            state.approximate.aggregates[agg.alias] = Interval(
                float(self._certain_count(state)), float(n)
            )
            return
        certain = self._certainty(state)
        if grouped:
            groups = self._candidate_groups(state)
            state.approximate.n_groups = groups.n_groups
            if agg.func == "count":
                out = agg_kernels.grouped_count_interval(certain, groups)
            elif agg.func == "sum":
                out = agg_kernels.grouped_sum_interval(
                    bounds, groups, certain=certain
                )
            elif agg.func in ("avg", "min", "max"):
                lo = agg_kernels.grouped_min(bounds.lo, groups)
                hi = agg_kernels.grouped_max(bounds.hi, groups)
                out = [Interval(float(a), float(b)) for a, b in zip(lo, hi)]
            else:  # pragma: no cover
                raise ExecutionError(f"unknown aggregate {agg.func!r}")
            state.approximate.aggregates[agg.alias] = out
            return

        if n == 0:
            iv = Interval(0.0, 0.0) if agg.func == "sum" else None
        elif agg.func == "sum":
            iv, = agg_kernels.grouped_sum_interval(bounds, None, certain=certain)
        elif agg.func == "avg":
            iv = Interval(float(bounds.lo.min()), float(bounds.hi.max()))
        elif agg.func == "min":
            hi_bound = _at(bounds.hi, certain).min() if certain.any() else bounds.hi.max()
            iv = Interval(float(bounds.lo.min()), float(hi_bound))
        elif agg.func == "max":
            lo_bound = _at(bounds.lo, certain).max() if certain.any() else bounds.lo.min()
            iv = Interval(float(lo_bound), float(bounds.hi.max()))
        else:  # pragma: no cover
            raise ExecutionError(f"unknown aggregate {agg.func!r}")
        state.approximate.aggregates[agg.alias] = iv

    def _minmax_prune(self, agg: Aggregate, state: _ExecState) -> None:
        assert state.candidates is not None and agg.expr is not None
        machine, tl = self._machine, state.timeline
        needed = agg.expr.columns()
        if not all(c in state.candidates.payloads for c in needed):
            return
        if len(state.candidates) == 0:
            return
        bounds = state.eval_interval(agg.expr)
        if bounds is None:
            return
        certain = self._certainty(state)
        machine.gpu.reduce(len(state.candidates), tl, op=f"agg.minmax.prune({agg.alias})")
        if not certain.any():
            return
        if agg.func == "min":
            keep = bounds.lo <= int(_at(bounds.hi, certain).min())
        else:
            keep = bounds.hi >= int(_at(bounds.lo, certain).max())
        # Rows that are certain must survive as well (they are real results
        # even if they cannot win the extremum — other aggregates need them).
        state.candidates = state.candidates.narrowed(np.flatnonzero(keep | certain))

    # ------------------------------------------------------------------
    # Refinement side: theta-join pair plans
    # ------------------------------------------------------------------
    def _refine_pair_select(self, pred: Predicate, state: _ExecState) -> None:
        """Exact re-check of a left-side predicate over the candidate pairs.

        The simulation evaluates the predicate once per left row and drops
        failing rows whole — rows a counted set names without forming a
        run, so it stays counted (:meth:`RunPairCandidates.rows_narrowed`);
        the modeled host, which received per-pair oids over the bus,
        re-checks every pair, so the charge is a function of the pair
        counts only, like every other modeled theta charge.
        """
        assert state.pairs is not None
        machine, tl = self._machine, state.timeline
        pairs = state.pairs
        rows = pairs.left_rows
        rel = self._catalog.table(state.query.table)

        def resolve(name: str) -> np.ndarray:
            return np.asarray(rel.values(name), dtype=np.int64)[rows]

        mask = pred.evaluate_exact(resolve)
        n_before = len(pairs)
        state.pairs = pairs.rows_narrowed(mask)
        state.invalidate_pair_rows()
        machine.cpu.charge(
            tl, f"cpu.select.pairs{pred!r}",
            (n_before + len(state.pairs)) * _OID_BYTES,
            tuples=n_before * max(1, pred.target.op_count()),
            op_class=OpClass.SCAN, pattern=AccessPattern.RANDOM,
        )

    def _refine_pair_group(
        self, columns: tuple[str, ...], state: _ExecState
    ) -> None:
        """Group the refined pairs by exact left-side keys — run-weighted.

        The charge is per *pair* (the modeled host hashes every pair's
        key), while the simulation only gathers and hashes per run entry.
        """
        machine, tl = self._machine, state.timeline
        n_pairs = len(state.pairs)
        key_columns: list[np.ndarray] = []
        for name in columns:
            keys = state.pair_left_values(name)
            machine.cpu.charge(
                tl, f"group.refine.pairs({name})",
                n_pairs * (_OID_BYTES + _OID_BYTES),
                tuples=n_pairs, op_class=OpClass.HASH,
                pattern=AccessPattern.RANDOM,
            )
            state.pair_group_keys[name] = keys
            key_columns.append(keys)
        state.pair_groups = group_pair_rows(key_columns)

    def _refine_pair_aggregate(self, agg: Aggregate, state: _ExecState) -> None:
        """One exact aggregate over the refined pair set, never materialized.

        Billed per pair (the modeled host reduces over the shipped pair
        oids); computed per weighted left-row entry.
        """
        machine, tl = self._machine, state.timeline
        n_pairs = len(state.pairs)
        assert (state.pair_groups is not None) == bool(state.query.group_by)
        op_count = 1 if agg.expr is None else 1 + agg.expr.op_count()
        machine.cpu.charge(
            tl, f"agg.{agg.func}.refine.pairs({agg.alias})",
            n_pairs * _OID_BYTES,
            tuples=n_pairs * op_count, op_class=OpClass.AGG,
        )
        if agg.func == "count" and state.pair_groups is None:
            # the pair total itself: no row, no multiplicity is read
            state.exact_aggregates[agg.alias] = agg_kernels.fold(
                "count", {"count": n_pairs}, None
            )
            return
        rows, weights = state.pair_left_rows()
        if self._is_right_side_agg(agg, state.query):
            state.exact_aggregates[agg.alias] = agg_kernels.fold(
                agg.func, self._right_pair_partials(agg, state), state.pair_groups
            )
            return
        if agg.expr is not None:
            values = np.broadcast_to(
                agg.expr.eval_exact(state.pair_left_values), rows.shape
            ).astype(np.int64)
        else:
            values = None
        state.exact_aggregates[agg.alias] = agg_kernels.fold(
            agg.func, agg_kernels.row_partials(agg.func, values, weights),
            state.pair_groups,
        )

    @staticmethod
    def _is_right_side_agg(agg: Aggregate, query: Query) -> bool:
        """Does this aggregate project the theta join's *right* column?"""
        if agg.expr is None or not query.theta_joins:
            return False
        tj = query.theta_joins[0]
        qualified = f"{tj.right_table}.{tj.right_column}"
        return qualified in agg.expr.columns()

    def _right_pair_partials(self, agg: Aggregate, state: _ExecState) -> dict:
        """The right-side theta values *at the pairs*, as partials to fold.

        The pair set stays exploded-free: the refined runs index the
        exact-sorted right permutation, so per-run count/sum/min/max
        payloads (:func:`right_run_partials`) replace a per-pair gather.
        """
        tj = state.query.theta_joins[0]
        rel = self._catalog.table(tj.right_table)
        vals = np.asarray(rel.values(tj.right_column), dtype=np.int64)
        qualified = f"{tj.right_table}.{tj.right_column}"
        if not isinstance(agg.expr, ColRef):
            raise ExecutionError(
                f"aggregate {agg.alias!r}: right-side theta aggregates must "
                f"be a bare column reference, got {agg.expr!r}"
            )
        assert agg.expr.name == qualified
        pairs = state.pairs
        if pairs.order_key != "exact" and len(pairs) > 0:
            raise ExecutionError(
                "right-side aggregate over unrefined runs "
                f"(order_key={pairs.order_key!r})"
            )
        return right_run_partials(vals[pairs.order], pairs.starts, pairs.stops)

    def _finalize_theta(self, state: _ExecState) -> Result:
        """Result construction for theta-join plans.

        The bare join canonicalizes the pair set here — the single
        materialization point.  Aggregation queries never reach it: their
        results were computed from the weighted left-row view, so a
        ``count(*)`` over a band join allocates no per-pair arrays at all
        (and bills no presentation sort, because the modeled machine would
        not perform one either).
        """
        assert state.pairs is not None
        query = state.query
        machine, tl = self._machine, state.timeline
        if not query.is_aggregation():
            final = state.pairs.canonicalized()
            # The presentation sort is billed on the host; it depends only
            # on the refined pair count.
            machine.cpu.charge(
                tl, "join.theta.materialize",
                len(final) * 2 * _OID_BYTES,
                tuples=len(final), op_class=OpClass.SCAN,
            )
            return Result(
                columns={
                    "left_pos": final.left_positions,
                    "right_pos": final.right_positions,
                },
                row_count=len(final),
                timeline=tl,
                approximate=state.approximate,
            )
        groups = state.pair_groups
        columns = pair_result_columns(
            query.group_by, state.pair_group_keys, groups,
            {a.alias: state.exact_aggregates[a.alias] for a in query.aggregates},
        )
        return Result(
            columns=columns,
            row_count=1 if groups is None else groups.n_groups,
            timeline=tl,
            approximate=state.approximate,
        )

    # ------------------------------------------------------------------
    # Refinement side
    # ------------------------------------------------------------------
    def _refine_group(self, columns: tuple[str, ...], state: _ExecState) -> None:
        assert state.candidates is not None
        machine, tl = self._machine, state.timeline
        device_grouped = (
            state.groups is not None and "@gids" in state.candidates.payloads
        )

        def fold(site: str, c: str, gids: np.ndarray) -> np.ndarray:
            """Sub-divide the groups by one more exact key column."""
            keys = state.exact_resolver(c)
            machine.cpu.charge(
                tl, f"group.refine.{site}({c})",
                len(keys) * (_OID_BYTES + _OID_BYTES),
                tuples=len(keys), op_class=OpClass.HASH,
                pattern=AccessPattern.RANDOM,
            )
            return combine_keys(gids, keys - key_range(keys)[0])[0]

        if device_grouped:
            # The pre-grouping's ids, re-aligned by the narrowing joins.
            aligned = self._candidate_groups(state)
            # Fact columns with residual bits sub-group via the residual
            # stream; dimension columns cannot (their residual lives at
            # dim positions) and are folded from their exact payloads below.
            residual_cols = []
            exact_fold: list[str] = []
            for c in columns:
                if c not in state.candidates.payloads:
                    continue
                if state.query.dim_table_of(c) is not None:
                    if not state.candidates.payload(c).is_exact:
                        exact_fold.append(c)
                    continue
                try:
                    residual_cols.append((c, state.bwd(c)))
                except PlanError:
                    pass
            groups = group_refine(
                machine.cpu, tl, aligned, residual_cols, state.candidates
            )
            gids = groups.gids
            for c in exact_fold:
                gids = fold("dim", c, gids)
            device_cols = {c for c, _ in residual_cols} | {
                c for c in columns if c in state.candidates.payloads
            }
        else:
            gids = np.zeros(len(state.candidates), dtype=np.int64)
            device_cols = set()
        # Fold in host-only grouping columns.
        for c in columns:
            if c in device_cols:
                continue
            gids = fold("host", c, gids)
        if device_grouped and groups is state.groups and gids is groups.gids:
            # The exact pre-grouping over candidates nothing narrowed, and
            # no key folded in: every group still has its rows.
            return
        # Refinement may have emptied approximate groups: re-densify so the
        # result has exactly the surviving groups (none at all when nothing
        # survived).
        uniques, gids = unique_inverse(gids)
        state.groups = GroupAssignment(gids=gids, n_groups=len(uniques), exact=True)

    def _refine_aggregate(self, agg: Aggregate, state: _ExecState) -> None:
        assert state.candidates is not None
        machine, tl = self._machine, state.timeline
        n = len(state.candidates)
        grouped = bool(state.query.group_by)
        if grouped:
            assert state.groups is not None and state.groups.exact

        groups = state.groups if grouped else None  # ungrouped: one fold
        if agg.func == "count":
            machine.cpu.charge(
                tl, f"agg.count.refine({agg.alias})", n * _OID_BYTES,
                tuples=n, op_class=OpClass.AGG,
            )
            state.exact_aggregates[agg.alias] = agg_kernels.fold(
                "count", {"count": n}, groups
            )
            return

        assert agg.expr is not None
        bounds = None
        if all(c in state.candidates.payloads for c in agg.expr.columns()):
            bounds = state.eval_interval(agg.expr)
        if bounds is not None and bounds.is_exact and state.candidates.exact:
            # All-device fast path: the approximate result is already exact
            # (no residuals anywhere); reuse it instead of recomputing.
            values = bounds.lo
            machine.gpu.reduce(max(n, 1), tl, op=f"agg.{agg.func}.exact({agg.alias})")
        else:
            # Destructive distributivity (§IV-G): recompute from exact
            # values on the host.
            values = np.broadcast_to(
                agg.expr.eval_exact(state.exact_resolver), (n,)
            ).astype(np.int64)
            machine.cpu.charge(
                tl, f"agg.{agg.func}.refine({agg.alias})",
                max(len(agg.expr.columns()), 1) * n * _OID_BYTES,
                tuples=n * (1 + agg.expr.op_count()), op_class=OpClass.AGG,
            )
        state.exact_aggregates[agg.alias] = agg_kernels.fold(
            agg.func, agg_kernels.row_partials(agg.func, values, n), groups
        )

    # ------------------------------------------------------------------
    def _finalize(self, state: _ExecState) -> Result:
        assert state.candidates is not None
        query = state.query
        state.approximate.candidate_rows = len(state.candidates)

        if not query.is_aggregation():
            columns = {
                name: state.exact_resolver(name).copy() for name in query.select
            }
            return Result(
                columns=columns,
                row_count=len(state.candidates),
                timeline=state.timeline,
                approximate=state.approximate,
            )

        n_groups = 1  # an ungrouped block is one row, even over no candidates
        columns: dict[str, np.ndarray] = {}
        if query.group_by:
            assert state.groups is not None
            n_groups = state.groups.n_groups
            for name in query.group_by:
                columns[name] = state.groups.representatives(
                    lambda rows: state.exact_resolver(name, rows)
                )
        for agg in query.aggregates:
            columns[agg.alias] = state.exact_aggregates[agg.alias]
        return Result(
            columns=columns,
            row_count=n_groups,
            timeline=state.timeline,
            approximate=state.approximate,
        )
