"""The classic baseline: full-precision, single-threaded bulk processing.

This is the comparator the paper labels "MonetDB" in every chart: the
``sequential_pipe`` optimizer pipeline over fully decomposed (column-store)
data, evaluated entirely on the CPU with materializing bulk operators.
Costs are charged per operator from the declared storage widths, so the
baseline's modeled time reflects what the real system's bandwidth-bound
scans did.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.aggregates import fold, row_partials
from ..core.candidates import RunPairCandidates
from ..core.pair_agg import (
    group_pair_rows,
    pair_result_columns,
    pair_rows,
    right_run_partials,
)
from ..core.theta import Theta, ThetaOp, exact_run_bounds
from ..device.cpu import Cpu
from ..device.model import AccessPattern, OpClass
from ..device.timeline import Timeline
from ..errors import ExecutionError
from ..storage.catalog import Catalog
from ..plan.logical import Query
from .result import Result

_OID_BYTES = 8


class ClassicExecutor:
    """Interprets logical queries with classic CPU bulk operators."""

    def __init__(self, catalog: Catalog, cpu: Cpu) -> None:
        self._catalog = catalog
        self._cpu = cpu

    # ------------------------------------------------------------------
    def run(self, query: Query, timeline: Timeline | None = None) -> Result:
        timeline = timeline if timeline is not None else Timeline()
        fact = self._catalog.table(query.table)
        n = len(fact)

        # Exact value resolution, restricted to the current candidate rows.
        candidate_ids: np.ndarray | None = None  # None = all rows
        cache: dict[str, np.ndarray] = {}

        def width_of(name: str) -> int:
            table, column = self._site(query, name)
            return max(1, self._catalog.table(table).type_of(column).storage_bits // 8)

        def resolve(name: str) -> np.ndarray:
            if name in cache:
                return cache[name]
            table, column = self._site(query, name)
            if table == query.table:
                values = fact.values(column)
                if candidate_ids is not None:
                    # MonetDB's candidate-list fetch join is a dependent
                    # positional fetch per oid — not density-adaptive.
                    values = values[candidate_ids]
                    self._cpu.charge(
                        timeline, f"cpu.gather({name})",
                        len(values) * (width_of(name) + _OID_BYTES),
                        tuples=len(values), op_class=OpClass.GATHER,
                        pattern=AccessPattern.RANDOM, phase="approximate",
                    )
                else:
                    self._cpu.charge(
                        timeline, f"cpu.scan({name})",
                        len(values) * width_of(name),
                        tuples=len(values), op_class=OpClass.SCAN,
                        phase="approximate",
                    )
            else:
                fk = self._fk_for(query, name)
                fk_values = resolve(fk)
                dim = self._catalog.table(table)
                dim_values = dim.values(column)
                if len(fk_values) and (
                    int(fk_values.min()) < 0 or int(fk_values.max()) >= len(dim)
                ):
                    raise ExecutionError(f"FK {fk!r} points outside {table!r}")
                values = dim_values[fk_values]
                self._cpu.charge(
                    timeline, f"cpu.fkjoin({name})",
                    len(values) * (width_of(name) + _OID_BYTES),
                    tuples=len(values), op_class=OpClass.GATHER,
                    pattern=AccessPattern.RANDOM, phase="approximate",
                )
            cache[name] = values
            return values

        # --------------------------------------------------------------
        # Selections: candidate list narrowing, one bulk operator per
        # predicate (MonetDB's uselect chain).
        # --------------------------------------------------------------
        # What the query reads behind its predicates: the group-by, the
        # aggregates, the select list, the FKs, the theta join.
        read_after = replace(query, where=()).referenced_columns()
        for k, pred in enumerate(query.where):
            mask = pred.evaluate_exact(resolve)
            # The mask becomes ascending positions once and every aligned
            # array is taken at them: NumPy's boolean compress branches per
            # element and costs 2-5x a flatnonzero + take at the densities a
            # predicate chain sees (PERFORMANCE.md, "row subsets cut at
            # positions").
            # The charges read counts only.
            keep = np.flatnonzero(mask)
            kept = keep.size
            self._cpu.charge(
                timeline, f"cpu.select{pred!r}",
                len(mask) * 1 + kept * _OID_BYTES,
                tuples=len(mask) * max(1, pred.target.op_count()),
                op_class=OpClass.SCAN, phase="approximate",
            )
            candidate_ids = (
                keep if candidate_ids is None else candidate_ids.take(keep)
            )
            # Only a column something still reads is worth narrowing; one
            # dropped here is never resolved again.
            live = read_after.union(*(p.columns() for p in query.where[k + 1:]))
            cache = {name: v.take(keep) for name, v in cache.items() if name in live}

        if candidate_ids is None:
            candidate_ids = np.arange(n, dtype=np.int64)

        if query.theta_joins:
            return self._run_theta(query, timeline, candidate_ids, resolve)

        # --------------------------------------------------------------
        # Plain projection queries
        # --------------------------------------------------------------
        if not query.is_aggregation():
            columns = {name: resolve(name).copy() for name in query.select}
            return Result(
                columns=columns, row_count=len(candidate_ids), timeline=timeline
            )

        # --------------------------------------------------------------
        # Grouping
        # --------------------------------------------------------------
        groups = None  # ungrouped: one group, no ids to say so
        key_columns = []
        for name in query.group_by:
            keys = resolve(name)
            self._cpu.charge(
                timeline, f"cpu.group({name})",
                len(keys) * (_OID_BYTES + _OID_BYTES),
                tuples=len(keys), op_class=OpClass.HASH,
                pattern=AccessPattern.RANDOM, phase="approximate",
            )
            key_columns.append(keys)
        if key_columns:
            groups = group_pair_rows(key_columns)

        # --------------------------------------------------------------
        # Aggregation
        # --------------------------------------------------------------
        columns = {
            name: groups.representatives(keys.take)
            for name, keys in zip(query.group_by, key_columns)
        }
        for agg in query.aggregates:
            if agg.expr is not None:
                values = np.broadcast_to(
                    agg.expr.eval_exact(resolve), (len(candidate_ids),)
                )
                self._cpu.charge(
                    timeline, f"cpu.eval({agg.alias})",
                    len(values) * _OID_BYTES,
                    tuples=len(values) * max(1, agg.expr.op_count()),
                    op_class=OpClass.ARITH, phase="approximate",
                )
            else:
                values = None
            self._cpu.charge(
                timeline, f"cpu.{agg.func}({agg.alias})",
                len(candidate_ids) * _OID_BYTES,
                tuples=len(candidate_ids), op_class=OpClass.AGG,
                phase="approximate",
            )
            columns[agg.alias] = fold(
                agg.func, row_partials(agg.func, values, len(candidate_ids)), groups
            )

        n_groups = 1 if groups is None else groups.n_groups
        return Result(columns=columns, row_count=n_groups, timeline=timeline)

    # ------------------------------------------------------------------
    # Classic theta join (PR 4): the full-precision CPU comparator
    # ------------------------------------------------------------------
    def _run_theta(
        self,
        query: Query,
        timeline: Timeline,
        candidate_ids: np.ndarray,
        resolve,
    ) -> Result:
        """Answer a theta-join block with classic bulk operators.

        Modeled as the bulk engine's nested-loop theta join over exact
        values (|candidates|·|R| comparisons — the classic baseline has no
        approximation to prune with); the simulation *computes* the same
        pair set by sorting both sides and ranking one in the other, so
        large classic runs stay feasible wall-clock.  Results — bare pairs in
        canonical order, or (grouped) aggregates over the pair set — equal
        the A&R modes by construction: both feed the same exact values,
        as the same weighted rows (:mod:`repro.core.pair_agg`), through the
        one :func:`repro.core.aggregates.fold`.
        """
        tj = query.theta_joins[0]
        theta = Theta(ThetaOp(tj.op), tj.delta)
        left_vals = np.asarray(resolve(tj.left_column), dtype=np.int64)
        right_rel = self._catalog.table(tj.right_table)
        right_vals = np.asarray(
            right_rel.values(tj.right_column), dtype=np.int64
        )
        right_width = max(
            1, right_rel.type_of(tj.right_column).storage_bits // 8
        )
        self._cpu.charge(
            timeline, f"cpu.scan({tj.right_table}.{tj.right_column})",
            len(right_vals) * right_width,
            tuples=len(right_vals), op_class=OpClass.SCAN,
            phase="approximate",
        )
        order = np.argsort(right_vals, kind="stable").astype(np.int64)
        key = right_vals[order]
        by_value = np.argsort(left_vals)
        starts, stops = exact_run_bounds(key, left_vals[by_value], theta)
        pairs = RunPairCandidates(
            candidate_ids[by_value], starts, stops, order, order_key="exact"
        )
        self._cpu.charge(
            timeline, f"cpu.join.theta({tj.op})",
            (len(left_vals) + len(right_vals)) * _OID_BYTES
            + len(pairs) * 2 * _OID_BYTES,
            tuples=len(left_vals) * len(right_vals),
            op_class=OpClass.ARITH, phase="approximate",
        )

        if not query.is_aggregation():
            final = pairs.canonicalized()
            self._cpu.charge(
                timeline, "join.theta.materialize",
                len(final) * 2 * _OID_BYTES,
                tuples=len(final), op_class=OpClass.SCAN,
                phase="approximate",
            )
            return Result(
                columns={
                    "left_pos": final.left_positions,
                    "right_pos": final.right_positions,
                },
                row_count=len(final), timeline=timeline,
            )

        # Aggregates over the pair set: weighted left-row view, no pair
        # ever materialized (the same fast path the A&R refinement takes).
        # The modeled bulk engine works per pair, so every charge below is
        # a function of the pair count; only the simulation's wall-clock
        # work is per run entry.
        n_pairs = len(pairs)
        rows, weights = pair_rows(pairs)
        fact = self._catalog.table(query.table)
        row_cache: dict[str, np.ndarray] = {}

        def resolve_rows(name: str) -> np.ndarray:
            if name not in row_cache:
                values = np.asarray(fact.values(name), dtype=np.int64)[rows]
                self._cpu.charge(
                    timeline, f"cpu.gather.pairs({name})",
                    n_pairs * (_OID_BYTES + _OID_BYTES),
                    tuples=n_pairs, op_class=OpClass.GATHER,
                    pattern=AccessPattern.RANDOM, phase="approximate",
                )
                row_cache[name] = values
            return row_cache[name]

        groups = None
        if query.group_by:
            key_columns = []
            for name in query.group_by:
                keys = resolve_rows(name)
                self._cpu.charge(
                    timeline, f"cpu.group({name})",
                    n_pairs * (_OID_BYTES + _OID_BYTES),
                    tuples=n_pairs, op_class=OpClass.HASH,
                    pattern=AccessPattern.RANDOM, phase="approximate",
                )
                key_columns.append(keys)
            groups = group_pair_rows(key_columns)

        right_qualified = f"{tj.right_table}.{tj.right_column}"
        right_partials: dict[str, np.ndarray] | None = None
        aggregate_columns: dict[str, np.ndarray] = {}
        for agg in query.aggregates:
            if agg.expr is not None and right_qualified in agg.expr.columns():
                # Right-side projection: the runs index the value-sorted
                # right permutation (``key``), so run payloads replace the
                # per-pair gather.  Billed per pair, like the left gathers.
                if right_partials is None:
                    # Billed once per column, like the left-side row_cache.
                    self._cpu.charge(
                        timeline, f"cpu.gather.pairs({right_qualified})",
                        n_pairs * (_OID_BYTES + _OID_BYTES),
                        tuples=n_pairs, op_class=OpClass.GATHER,
                        pattern=AccessPattern.RANDOM, phase="approximate",
                    )
                    right_partials = right_run_partials(
                        key, pairs.starts, pairs.stops
                    )
                self._cpu.charge(
                    timeline, f"cpu.{agg.func}.pairs({agg.alias})",
                    n_pairs * _OID_BYTES,
                    tuples=n_pairs, op_class=OpClass.AGG,
                    phase="approximate",
                )
                aggregate_columns[agg.alias] = fold(
                    agg.func, right_partials, groups
                )
                continue
            if agg.expr is not None:
                values = np.broadcast_to(
                    agg.expr.eval_exact(resolve_rows), rows.shape
                ).astype(np.int64)
            else:
                values = None
            self._cpu.charge(
                timeline, f"cpu.{agg.func}.pairs({agg.alias})",
                n_pairs * _OID_BYTES,
                tuples=n_pairs, op_class=OpClass.AGG,
                phase="approximate",
            )
            aggregate_columns[agg.alias] = fold(
                agg.func, row_partials(agg.func, values, weights), groups
            )
        columns = pair_result_columns(
            query.group_by, row_cache, groups, aggregate_columns
        )
        n_groups = 1 if groups is None else groups.n_groups
        return Result(columns=columns, row_count=n_groups, timeline=timeline)

    # ------------------------------------------------------------------
    def _site(self, query: Query, name: str) -> tuple[str, str]:
        dim = query.dim_table_of(name)
        if dim is not None:
            return dim, name.split(".", 1)[1]
        if "." in name:
            raise ExecutionError(f"column {name!r} references an unjoined table")
        return query.table, name

    @staticmethod
    def _fk_for(query: Query, name: str) -> str:
        dim = query.dim_table_of(name)
        for join in query.joins:
            if join.dim_table == dim:
                return join.fk_column
        raise ExecutionError(f"no join provides {name!r}")
