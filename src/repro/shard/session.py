"""The sharded session: Session's public surface over N simulated devices.

Drop-in shape: ``create_table`` / ``bwdecompose`` / ``table`` (the lazy
builder) / ``query`` / ``explain`` / ``serve``, so everything written
against :class:`~repro.engine.session.Session` runs sharded unchanged.
``query`` lowers through :class:`~repro.shard.planner.ShardPlanner` and
executes through :class:`~repro.shard.executor.ShardExecutor`; the
returned :class:`~repro.shard.executor.ShardedResult` carries the
max-over-shards wall clock next to the byte-identical merged columns.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping

from ..device.timeline import Timeline
from ..errors import PlanError
from ..faults.policy import RetryPolicy
from ..faults.profile import FaultInjector, FaultProfile
from ..ingest.union import DELTA_PHASE, run_with_delta
from ..obs import trace as obs_trace
from ..opt.planner import check_optimizer
from ..plan.logical import Query
from ..storage import decompose
from ..storage.column import ColumnType
from ..storage.relation import Relation, Schema
from .catalog import ShardedCatalog
from .executor import ShardedResult, ShardExecutor
from .planner import ShardPlanner

MODES = ("ar", "classic", "approximate")


class ShardedSession:
    """One logical session whose data lives on ``n_shards`` machines."""

    def __init__(
        self,
        n_shards: int,
        *,
        retry_policy: RetryPolicy | None = None,
        **catalog_kwargs,
    ) -> None:
        self.sharded_catalog = ShardedCatalog(n_shards, **catalog_kwargs)
        self.planner = ShardPlanner(self.sharded_catalog)
        self.executor = ShardExecutor(
            self.sharded_catalog, retry_policy=retry_policy
        )
        self.tracer = None
        #: Column -> why the latest table compaction rebuilt it (always:
        #: a sharded compaction re-cuts the bands).
        self.last_compaction: dict[str, str] = {}

    def attach_tracer(self, tracer) -> None:
        """Attach an :class:`~repro.obs.trace.Tracer` (None detaches)."""
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Fault injection (chaos testing)
    # ------------------------------------------------------------------
    def inject_faults(
        self,
        profile_or_injector: FaultProfile | FaultInjector,
        *,
        seed: int = 0,
    ) -> FaultInjector:
        """Wire a fault profile (or prebuilt injector) into execution.

        Installs the injector's allocator hook on every shard's device
        pool and routes every fragment attempt through its seeded fault
        decisions.  Returns the injector for imperative control
        (``crash`` / ``restore`` / ``slow_next``).
        """
        injector = (
            profile_or_injector
            if isinstance(profile_or_injector, FaultInjector)
            else FaultInjector(profile_or_injector, seed=seed)
        )
        self.executor.set_injector(injector)
        return injector

    def clear_faults(self) -> None:
        """Detach the fault injector; execution is healthy again."""
        self.executor.set_injector(None)

    @property
    def n_shards(self) -> int:
        return self.sharded_catalog.n_shards

    @property
    def catalog(self):
        """The global (planning) catalog — what the builder introspects."""
        return self.sharded_catalog.global_catalog

    @property
    def machine(self):
        """The coordinator: where fragments merge and pending delta rows
        are evaluated (``ingest.delta.*`` spans bill on its CPU)."""
        return self.sharded_catalog.coordinator

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema | Mapping[str, ColumnType],
        data: Mapping[str, Iterable],
        *,
        partition: bool = True,
    ) -> Relation:
        """Create a table on every shard (partitioned or replicated)."""
        return self.sharded_catalog.create_table(
            name, schema, data, partition=partition
        )

    def bwdecompose(
        self,
        table: str,
        column: str,
        device_bits: int | None = None,
        *,
        residual_bits: int | None = None,
        prefix_compression: bool = True,
    ):
        """Decompose globally and per shard; see ShardedCatalog.bwdecompose."""
        return self.sharded_catalog.bwdecompose(
            table, column, device_bits,
            residual_bits=residual_bits,
            prefix_compression=prefix_compression,
        )

    def drop(self, table: str) -> None:
        """Drop ``table`` on every shard and globally; see
        :meth:`ShardedCatalog.drop`."""
        self.sharded_catalog.drop(table)

    def set_view_budget(
        self, per_shard_nbytes: int | None, *, segment_rows: int | None = None
    ) -> None:
        """Give each shard ``per_shard_nbytes`` of decoded-view cache.

        The view cache is keyed per decomposition object and per-shard
        decompositions are distinct objects, so an aggregate budget of
        ``n_shards × per_shard_nbytes`` models N per-shard caches sharing
        LRU pressure.  Views are charge-neutral, so any budget (including
        an aggressively evicting one) leaves results and modeled charges
        untouched.
        """
        total = (
            None if per_shard_nbytes is None
            else per_shard_nbytes * self.n_shards
        )
        decompose.set_view_budget(total, segment_rows=segment_rows)

    def view_cache_bytes(self) -> int:
        """Bytes of decoded views currently held, all shards together."""
        return decompose.view_cache_bytes()

    def view_eviction_stats(self) -> tuple[int, int]:
        """Lifetime ``(eviction events, bytes released)`` under the budget."""
        return decompose.view_eviction_stats()

    # ------------------------------------------------------------------
    # Streaming ingestion (PR 9)
    # ------------------------------------------------------------------
    def append(self, table: str, rows: Mapping[str, Iterable]) -> int:
        """Land rows in ``table``'s delta, routed to owning shards by
        approximation-code band (catch-all spill for un-bandable rows)."""
        return self.sharded_catalog.append(table, rows)

    def compact(self, table: str | None = None) -> int:
        """Fold pending delta into rebuilt, re-sharded base segments.

        Rebuilds the global relation (base + delta in arrival order), then
        walks the *bulk-load path* over it: fresh round-robin partition and
        a replay of the recorded ``bwdecompose`` DDL in call order — the
        first decomposition re-runs the code-band repartition over the
        union, rebalancing any catch-all spill.  The rebuilt shards are
        byte-identical to bulk-loading the same rows.  Bumps the global
        catalog epoch.  Returns total rows compacted.
        """
        tables = (
            [table] if table is not None
            else self.catalog.tables_with_delta()
        )
        return sum(self._compact_table(t) for t in tables)

    def _compact_table(self, table: str) -> int:
        import numpy as np

        from ..ingest import compact as ingest_compact

        sc = self.sharded_catalog
        gcat = sc.global_catalog
        store = gcat.delta_store(table)
        if store is None or store.row_count == 0:
            return 0
        base = gcat.table(table)
        delta = store.arrays()
        data = {
            col: np.concatenate([base.values(col), delta[col]])
            for col in base.schema.names
        }
        new_rel = Relation.create(table, base.schema, data)
        args_list = gcat.decompose_args_for(table)
        if ingest_compact.fail_hook is not None:
            ingest_compact.fail_hook(table)  # crash seam: nothing committed
        n = store.row_count
        epoch_before = gcat.epoch
        gcat.replace_table(new_rel)
        if sc.is_partitioned(table):
            m = len(new_rel)
            maps = [
                np.arange(i, m, sc.n_shards, dtype=np.int64)
                for i in range(sc.n_shards)
            ]
            sc.row_maps[table] = maps
            sc._build_shard_relations(new_rel, maps)
            sc.partition_columns.pop(table, None)
            sc.band_cuts.pop(table, None)
        else:
            for shard in sc.shards:
                shard.catalog._tables[table] = new_rel
        for column, args in args_list:
            sc.bwdecompose(
                table, column, args["device_bits"],
                residual_bits=args["residual_bits"],
                prefix_compression=args["prefix_compression"],
            )
        sc.clear_routed_delta(table)
        store.clear()
        # The DDL replay above went through bwdecompose (each call bumps);
        # a committed compaction must read as exactly one epoch step.
        gcat._epoch = epoch_before + 1
        self.last_compaction = {c: "re-sharded" for c, _ in args_list}
        return n

    def absorb_delta(self, merged) -> ShardedResult:
        """A base+delta Result as a sharded one: the delta contributions ran
        on the coordinator after the fragments merged, so their modeled
        seconds extend ``merge_seconds`` / ``wall_clock_seconds``."""
        seconds = merged.timeline.total_seconds(phases=(DELTA_PHASE,))
        if not isinstance(merged, ShardedResult):
            # Every fragment's slice was empty: the delta is all there is.
            merged = ShardedResult(
                columns=merged.columns, row_count=merged.row_count,
                timeline=merged.timeline, approximate=merged.approximate,
            )
        merged.merge_seconds += seconds
        merged.wall_clock_seconds += seconds
        return merged

    # ------------------------------------------------------------------
    # Query building / execution
    # ------------------------------------------------------------------
    def table(self, name: str):
        """Start a lazy query block over ``name`` — the primary API."""
        from ..engine.builder import RelationBuilder

        self.catalog.table(name)  # fail fast on unknown tables
        return RelationBuilder(self, name)

    def query(
        self,
        query: Query,
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
        optimizer: str = "cost",
        timeline: Timeline | None = None,
    ) -> ShardedResult:
        """Plan per-shard fragments, run them, merge on the coordinator.

        ``optimizer="cost"`` (the default) gives each fragment's plan an
        audit from its own shard's histograms (:mod:`repro.opt`), computed
        when first read;
        ``"heuristic"`` leaves them off.  Merged Results stay
        byte-identical across optimizers.
        """
        if mode not in MODES:
            raise PlanError(f"unknown mode {mode!r}; pick one of {MODES}")
        check_optimizer(optimizer)
        tracer = self.tracer
        if tracer is None:
            return self._run_query(
                query, mode=mode, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
                timeline=timeline,
            )
        with tracer.trace(f"query:{query.table}") as qt:
            result = self._run_query(
                query, mode=mode, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
                timeline=timeline,
            )
            if qt is not None:
                qt.result_timeline = result.timeline
                qt.add_timeline(result.timeline)
            return result

    def _run_query(
        self,
        query: Query,
        *,
        mode: str,
        pushdown: bool,
        predicate_order: str,
        optimizer: str,
        timeline: Timeline | None,
    ) -> ShardedResult:
        run_base = partial(
            self._run_base, mode=mode, pushdown=pushdown,
            predicate_order=predicate_order, optimizer=optimizer,
        )
        if not self.catalog.tables_with_delta():
            return run_base(query, timeline)
        # The union runs on a ledger of its own, so what it bills in the
        # delta phase is this query's and nothing the caller held before.
        result = self.absorb_delta(run_with_delta(
            self.catalog, self.machine.cpu, query, run_base, mode=mode,
        ))
        if timeline is not None:
            timeline.extend(result.timeline)
            result.timeline = timeline
        return result

    def _run_base(
        self,
        query: Query,
        timeline: Timeline | None,
        *,
        mode: str,
        pushdown: bool,
        predicate_order: str,
        optimizer: str,
    ) -> ShardedResult:
        """Plan per-shard fragments, run them, merge: the packed base alone."""
        qt = obs_trace.ACTIVE
        if qt is None:
            plan = self.planner.plan(
                query, mode=mode, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
            )
        else:
            with qt.span("plan", optimizer=optimizer) as rec:
                plan = self.planner.plan(
                    query, mode=mode, pushdown=pushdown,
                    predicate_order=predicate_order, optimizer=optimizer,
                )
                rec.args["fragments"] = len(plan.fragments)
        result = self.executor.execute(plan)
        if timeline is not None:
            timeline.extend(result.timeline)
            result.timeline = timeline
        return result

    def serve(
        self,
        *,
        max_batch: int = 16,
        max_in_flight: int = 64,
        device_headroom_fraction: float = 1.0,
        admission_timeout_batches: int | None = None,
        optimizer: str = "heuristic",
    ):
        """Open a placement-aware multi-query scheduler over the shards."""
        from ..serve.scheduler import AdmissionPolicy
        from .scheduler import ShardScheduler

        return ShardScheduler(self, AdmissionPolicy(
            max_in_flight=max_in_flight, max_batch=max_batch,
            device_headroom_fraction=device_headroom_fraction,
            admission_timeout_batches=admission_timeout_batches,
            optimizer=optimizer,
        ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(
        self, query: Query | str, *, pushdown: bool = True,
        optimizer: str = "heuristic",
    ) -> str:
        """Render the sharded plan — fragments, pruned shards, the merge —
        of a logical query or of SQL text (as :meth:`Session.explain`)."""
        from ..sql import query_to_explain

        return self.planner.plan(
            query_to_explain(query, self.catalog),
            pushdown=pushdown, optimizer=optimizer,
        ).describe()

    def shard_rows(self, table: str) -> list[int]:
        return self.sharded_catalog.shard_rows(table)

    def device_footprint(self) -> int:
        return self.sharded_catalog.device_footprint()
