"""The session: the library's public entry point.

A :class:`Session` owns a catalog, a (simulated) machine and the three ways
of answering a query the paper compares:

* ``mode="ar"`` — the Approximate & Refine pipeline (GPU + CPU),
* ``mode="classic"`` — the CPU-only bulk baseline ("MonetDB"),
* ``mode="approximate"`` — the approximation subplan alone: strict bounds,
  no refinement cost (the paper's free fast answer).

The primary programmatic API is the lazy relational builder,
:meth:`table` (see :mod:`repro.engine.builder`); SQL text is accepted
through :meth:`execute`; pre-built
:class:`~repro.plan.logical.Query` objects through :meth:`query`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping

from ..device.machine import Machine
from ..device.timeline import Timeline
from ..errors import PlanError
from ..obs import trace as obs_trace
from ..opt.plan_cache import PlanCache
from ..opt.planner import check_optimizer
from ..plan.explain import explain as explain_plan
from ..plan.logical import Query
from ..plan.rewriter import rewrite_to_ar_plan
from ..storage import decompose
from ..storage.catalog import Catalog
from ..storage.column import ColumnType
from ..storage.relation import Relation, Schema
from .ar_executor import ArExecutor
from .builder import RelationBuilder
from .bulk import ClassicExecutor
from .result import Result
from .stream import streaming_input_bytes, streaming_lower_bound

MODES = ("ar", "classic", "approximate")


class Session:
    """One database session over a simulated heterogeneous machine."""

    def __init__(self, machine: Machine | None = None) -> None:
        self.machine = machine if machine is not None else Machine.paper_testbed()
        self.catalog = Catalog()
        self._classic = ClassicExecutor(self.catalog, self.machine.cpu)
        self._ar = ArExecutor(self.catalog, self.machine)
        #: Epoch-keyed physical-plan cache for the solo ``run()`` path
        #: (the serve scheduler keeps its own; see PR 9).
        self._plan_cache = PlanCache()
        #: Observability sink; ``None`` keeps tracing fully disabled.
        self.tracer = None
        #: Column -> why the latest table compaction rebuilt it instead of
        #: extending it (empty: every column was extended).
        self.last_compaction: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Observability (PR 10)
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer):
        """Attach a :class:`~repro.obs.trace.Tracer` to this session.

        Every subsequent ``run()``/``submit()`` records a query-scoped
        trace; Results and modeled Timelines are guaranteed byte-identical
        to untraced runs (tracing only reads ledgers).  Pass ``None`` to
        detach.  Returns the tracer for chaining.
        """
        self.tracer = tracer
        return tracer

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema | Mapping[str, ColumnType],
        data: Mapping[str, Iterable],
    ) -> Relation:
        """Create and load a table; values are encoded via the schema types."""
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        return self.catalog.register(Relation.create(name, schema, data))

    def bwdecompose(
        self,
        table: str,
        column: str,
        device_bits: int | None = None,
        *,
        residual_bits: int | None = None,
        prefix_compression: bool = True,
    ):
        """Decompose a column and place its approximation in device memory.

        The paper's ``select bwdecompose(A, 24) from R`` side-effect
        (§V-A).  Raises :class:`~repro.errors.DeviceOutOfMemory` when the
        approximation stream does not fit next to what is already resident —
        resolution must then be reduced.
        """
        previous = self.catalog.decomposition_of(table, column)
        if previous is not None and self.machine.gpu.is_resident(previous):
            self.machine.gpu.evict_column(previous)
        bwd = self.catalog.bwdecompose(
            table, column, device_bits,
            residual_bits=residual_bits, prefix_compression=prefix_compression,
        )
        self.machine.gpu.load_column(f"{table}.{column}", bwd, None)
        return bwd

    def drop(self, table: str) -> None:
        """Drop ``table`` and everything registered for it.

        Its decomposed columns leave device memory first — a table created
        again under the name loads its approximations under the same
        labels — then the catalog forgets the table, its decompositions
        and pending delta, and bumps the epoch.
        """
        self.catalog.table(table)  # refuse an unknown table up front
        gpu = self.machine.gpu
        for name, _, bwd in self.catalog.decomposed_columns():
            if name == table and gpu.is_resident(bwd):
                gpu.evict_column(bwd)
        self.catalog.drop(table)

    # ------------------------------------------------------------------
    # Streaming ingestion (PR 9)
    # ------------------------------------------------------------------
    def append(self, table: str, rows: Mapping[str, Iterable]) -> int:
        """Land new rows in ``table``'s uncompressed delta segment.

        The packed base segments and every registered decomposition are
        untouched — an append is O(rows).  Queries union base + delta
        (delta rows evaluated exactly, billed on ``ingest.delta.*`` spans)
        until :meth:`compact` folds the delta in.  Returns rows appended.
        """
        return self.catalog.append(table, rows)

    def compact(self, table: str | None = None) -> int:
        """Re-decompose pending delta into packed base segments.

        Replays each table's recorded ``bwdecompose`` DDL over base+delta,
        making the result byte-identical to a bulk load of the same rows,
        and bumps the catalog epoch.  ``table=None`` compacts every table
        with pending delta.  Returns total rows compacted.
        """
        from ..ingest.compact import compact_table

        tables = (
            [table] if table is not None
            else self.catalog.tables_with_delta()
        )
        return sum(compact_table(self, t) for t in tables)

    # ------------------------------------------------------------------
    # Query building
    # ------------------------------------------------------------------
    def table(self, name: str) -> RelationBuilder:
        """Start a lazy query block over ``name`` — the primary API.

        Chain relational operators (``where``, ``join``, ``theta_join`` /
        ``band_join``, ``group_by``, aggregates, ``select``) and finish
        with ``.run(mode=...)`` / ``.build()`` / ``.explain()``; nothing
        executes until then.
        """
        self.catalog.table(name)  # fail fast on unknown tables
        return RelationBuilder(self, name)

    def serve(
        self,
        *,
        max_batch: int = 16,
        max_in_flight: int = 64,
        device_headroom_fraction: float = 1.0,
        admission_timeout_batches: int | None = None,
        optimizer: str = "cost",
        delta_watermark: int = 10_000,
    ):
        """Open a multi-query scheduler over this session (PR 5).

        Returns a :class:`~repro.serve.scheduler.Scheduler`: submit
        queries concurrently (``submit`` / ``submit_many``, or
        ``builder.submit(server)``), land writes with ``submit_write``
        (compaction fires between batches past ``delta_watermark`` pending
        delta rows; reads never block on it), and get
        :class:`~repro.serve.handles.QueryHandle`\\ s back; read
        ``handle.result()`` when needed — compatible queries execute in
        shared batches, each query's Result and modeled Timeline staying
        byte-identical to a solo ``run()``.  Since PR 9 the serve path
        defaults to the cost-based optimizer: the epoch-keyed plan cache
        amortizes its planning overhead across repeated queries
        (``optimizer="heuristic"`` stays selectable and byte-identical).
        Usable as a context manager
        (``with session.serve() as server: ...``); exiting drains the
        queue::

            with session.serve(max_batch=16) as server:
                handles = [
                    session.table("trips").where("lon", between=r)
                    .count("n").submit(server)
                    for r in ranges
                ]
                counts = [h.result().scalar("n") for h in handles]
        """
        from ..serve.scheduler import AdmissionPolicy, Scheduler

        return Scheduler(self, AdmissionPolicy(
            max_in_flight=max_in_flight, max_batch=max_batch,
            device_headroom_fraction=device_headroom_fraction,
            admission_timeout_batches=admission_timeout_batches,
            optimizer=optimizer, delta_watermark=delta_watermark,
        ))

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def query(
        self,
        query: Query,
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
        optimizer: str = "cost",
        timeline: Timeline | None = None,
    ) -> Result:
        """Run a logical query in one of the three execution modes.

        ``predicate_order="selectivity"`` enables the histogram-driven
        cost-based ordering of approximate selections (§III-A extension).
        ``optimizer`` picks the physical planner: ``"cost"`` (the default)
        gives the plan an audit, estimated spans and the scan-order
        decision (:mod:`repro.opt`), computed when something first reads
        it (``explain``, a tracer); ``"heuristic"`` is the rule-based plan
        alone.
        Both yield the same Result and modeled Timeline.  Physical plans
        are cached per (query, options, catalog epoch); compaction
        invalidates by bumping the epoch.
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
    ) -> Result:
        run_base = partial(
            self._run_base, mode=mode, pushdown=pushdown,
            predicate_order=predicate_order, optimizer=optimizer,
        )
        if self.catalog.tables_with_delta():
            from ..ingest.union import run_with_delta

            return run_with_delta(
                self.catalog, self.machine.cpu, query, run_base,
                mode=mode, timeline=timeline,
            )
        return run_base(query, timeline)

    def _run_base(
        self,
        query: Query,
        timeline: Timeline | None,
        *,
        mode: str,
        pushdown: bool,
        predicate_order: str,
        optimizer: str,
    ) -> Result:
        """Answer ``query`` from the packed base segments alone."""
        qt = obs_trace.ACTIVE
        if mode == "classic":
            if qt is None:
                return self._classic.run(query, timeline)
            with qt.span("execute.classic", mode=mode) as rec:
                result = self._classic.run(query, timeline)
                rec.modeled = result.timeline.total_seconds()
            return result
        if qt is None:
            plan = self.plan_for(
                query, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
            )
            return self._ar.run(
                plan, timeline, approximate_only=(mode == "approximate")
            )
        hits_before = self._plan_cache.hits
        with qt.span("plan", optimizer=optimizer) as rec:
            plan = self.plan_for(
                query, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
            )
            rec.args["cached"] = self._plan_cache.hits > hits_before
        if qt.plan is None and getattr(plan, "estimated_spans", None):
            qt.plan = plan
        with qt.span("execute.ar", mode=mode) as rec:
            result = self._ar.run(
                plan, timeline, approximate_only=(mode == "approximate")
            )
            rec.modeled = result.timeline.total_seconds()
        return result

    def plan_for(
        self,
        query: Query,
        *,
        pushdown: bool = True,
        predicate_order: str = "query",
        optimizer: str = "cost",
    ):
        """The physical plan for ``query``, via the session plan cache;
        the optimizer is part of the key, so flipping it never serves a
        stale shape."""
        key = (query, pushdown, predicate_order, optimizer,
               self.catalog.epoch)

        def build():
            return rewrite_to_ar_plan(
                query, self.catalog, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
            )

        return self._plan_cache.get(key, build)

    def execute(
        self,
        sql: str,
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
    ) -> Result:
        """Parse and run SQL text (including ``bwdecompose`` DDL)."""
        from ..sql import run_sql

        return run_sql(
            self, sql, mode=mode, pushdown=pushdown,
            predicate_order=predicate_order,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(
        self, query: Query | str, *, pushdown: bool = True,
        optimizer: str = "heuristic",
    ) -> str:
        """Render the physical A&R plan (the paper's Fig 7 view) of a
        logical query or of SQL text (``bwdecompose`` DDL has no plan: a
        :class:`~repro.errors.PlanError` says so).

        With ``optimizer="cost"`` the rendering includes per-operator
        estimated spans and every optimizer decision with its rejected
        alternatives.
        """
        from ..sql import query_to_explain

        return explain_plan(rewrite_to_ar_plan(
            query_to_explain(query, self.catalog), self.catalog,
            pushdown=pushdown, optimizer=optimizer,
        ))

    def streaming_baseline_seconds(self, query: Query) -> float:
        """'Stream (Hypothetical)': PCI time to move the query's inputs."""
        return streaming_lower_bound(self.catalog, query, self.machine.bus)

    def streaming_baseline_bytes(self, query: Query) -> int:
        return streaming_input_bytes(self.catalog, query)

    def device_footprint(self) -> int:
        """Device bytes currently held by decomposed approximations."""
        return self.catalog.device_footprint()

    def set_view_budget(
        self, nbytes: int | None, *, segment_rows: int | None = None
    ) -> None:
        """Cap the decoded code views' bytes (one cache per process today);
        see :func:`repro.storage.decompose.set_view_budget`."""
        decompose.set_view_budget(nbytes, segment_rows=segment_rows)

    def view_cache_bytes(self) -> int:
        """Bytes of decoded views currently held."""
        return decompose.view_cache_bytes()

    def view_eviction_stats(self) -> tuple[int, int]:
        """Lifetime ``(eviction events, bytes released)`` under the budget."""
        return decompose.view_eviction_stats()
