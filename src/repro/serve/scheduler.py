"""The multi-query scheduler: admission, batch forming, shared execution.

The paper's cooperative-scan observation (§VII-B) turned into the serving
layer the ROADMAP's traffic goal needs: many in-flight queries, one pass
over the shared device-side structures wherever their plans overlap.

Three cooperating pieces:

* :class:`QueryQueue` — FIFO admission queue.  The batch former pops the
  head and greedily collects every queued query with the same
  *compatibility group* (the :meth:`~repro.plan.logical.Query.
  batch_fingerprint` plus execution options) until the batch cap or the
  device-memory backpressure limit is reached.

* :class:`AdmissionPolicy` — bounded in-flight work (submitting past
  ``max_in_flight`` first drains a batch: cooperative backpressure, the
  submitter pays), bounded batch width, and a device-memory footprint
  check: each query's expected device scratch (its candidate output,
  sized with the free code histograms) must fit the GPU pool's free
  bytes next to its batch mates, or the batch splits.

* :class:`Scheduler` — executes batches.  Same-column selection batches
  run ONE cooperative pass (:func:`~repro.engine.cooperative.
  cooperative_scan_hits` over the column's memoized sorted-code view) and
  carve each query's candidate positions out of it; the positions are
  injected back into the unchanged per-query kernel path
  (``select_code_ranges(precomputed_hits=...)``), so every query's Timeline
  and Result are **byte-identical to its solo run** — batching is a pure
  wall-clock optimization, the charge-neutrality invariant of PRs 1–4
  extended to multi-query execution.  Theta batches sharing a right side
  run back to back so the right column's memoized sort permutations and
  decoded views are built once and stay hot (which, under an evicting
  view budget, is exactly what segment-granular eviction protects).

Everything is cooperative (no threads): execution happens when a handle's
``result()`` is awaited, when admission forces a drain, or when
:meth:`Scheduler.drain` / :meth:`Scheduler.close` is called.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..engine.cooperative import (
    ScanRequest,
    cooperative_pass_seconds,
    cooperative_scan_hits,
)
from ..errors import AdmissionError, PlanError, ReproError
from ..obs import trace as obs_trace
from ..opt.estimates import estimate_selectivity
from ..plan.logical import Query
from ..plan.physical import ApproxScanSelect
from ..plan.rewriter import rewrite_to_ar_plan
from .handles import CancelledError, QueryHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.builder import RelationBuilder
    from ..engine.session import Session

_OID_BYTES = 8


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission-control knobs of one scheduler."""

    #: Most queries queued at once; a submit beyond this first drains a
    #: batch (cooperative backpressure — the submitter makes room).
    max_in_flight: int = 64
    #: Widest batch the former may build.
    max_batch: int = 16
    #: Fraction of the device pool's free bytes batches may claim as
    #: expected scratch (estimated candidate output) before splitting.
    device_headroom_fraction: float = 1.0
    #: Bounded admission wait: a queued query that has watched this many
    #: batches execute without being admitted fails with
    #: :class:`~repro.errors.AdmissionError` instead of waiting forever
    #: (the cooperative simulation has no background clock, so the wait
    #: is measured in batch slots).  None = wait indefinitely.
    admission_timeout_batches: int | None = None
    #: ``"cost"`` routes physical choices through :mod:`repro.opt`
    #: (PR 8): member plans are rewritten with the cost-based planner and
    #: fused scan batches are *cost-gated* — a batch whose estimated
    #: cooperative pass is dearer than per-member solo scans (high
    #: selectivity: sorting the hit positions dominates) splits to solo
    #: runs instead of fusing on fingerprint equality alone.
    optimizer: str = "heuristic"
    #: Pending delta rows per table past which the scheduler compacts
    #: between batches (PR 9).  Writes landing *during* a compaction are
    #: deferred behind the table's write intent and flushed right after;
    #: reads never consult intents, so reads never block.
    delta_watermark: int = 10_000

    def __post_init__(self) -> None:
        if self.delta_watermark < 1:
            raise PlanError("delta_watermark must be at least 1")
        if self.max_in_flight < 1:
            raise PlanError("max_in_flight must be at least 1")
        if self.max_batch < 1:
            raise PlanError("max_batch must be at least 1")
        if not 0.0 < self.device_headroom_fraction <= 1.0:
            raise PlanError("device_headroom_fraction must be in (0, 1]")
        if (
            self.admission_timeout_batches is not None
            and self.admission_timeout_batches < 1
        ):
            raise PlanError("admission_timeout_batches must be at least 1")
        from ..opt.planner import check_optimizer

        check_optimizer(self.optimizer)


@dataclass
class ServeStats:
    """Aggregate counters of one scheduler's lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Completed with ``degraded=True`` (partial shard coverage).
    degraded: int = 0
    #: Withdrawn via :meth:`QueryHandle.cancel` while still queued.
    cancelled: int = 0
    #: Refused at submit: scratch estimate exceeds what the device pool
    #: could ever offer (fail fast instead of queueing a doomed query).
    rejected: int = 0
    #: Timed out of the admission queue (``admission_timeout_batches``).
    expired: int = 0
    batches: int = 0
    fused_batches: int = 0
    fused_queries: int = 0
    shared_right_batches: int = 0
    largest_batch: int = 0
    backpressure_stalls: int = 0
    memory_splits: int = 0
    #: size -> number of batches executed at that size (bounded by
    #: max_batch, unlike a per-batch list, so a long-running scheduler's
    #: stats stay O(1) in memory).
    batch_size_counts: dict[int, int] = field(default_factory=dict)
    #: Modeled seconds of the fused cooperative passes actually run —
    #: next to what the same scans cost as per-query solo charges.  The
    #: gap is the modeled sharing gain; it never enters a query's ledger.
    modeled_fused_scan_seconds: float = 0.0
    modeled_solo_scan_seconds: float = 0.0
    #: Cost-gate outcomes under ``optimizer="cost"`` (PR 8): batches the
    #: gate examined, and those it split to solo runs because the
    #: estimated cooperative pass was dearer than per-member scans.
    cost_gated_batches: int = 0
    cost_gated_solo: int = 0
    #: Fault-layer visibility (PR 7 follow-on): retry/hedge totals summed
    #: off completed results, and the sharded executor's circuit-breaker
    #: state refreshed after every batch.  All zeros/empty on a
    #: single-device scheduler.
    #: Streaming-ingestion counters (PR 9).
    writes: int = 0
    write_rows: int = 0
    #: Writes that arrived while their table's compaction held the write
    #: intent; they landed right after the intent cleared.
    deferred_writes: int = 0
    compactions: int = 0
    #: Reads that waited on a write or compaction.  Structurally zero —
    #: reads never consult write intents — kept as an observable pin.
    reads_blocked: int = 0
    #: Epoch-keyed plan-cache outcomes (PR 9): mirrors of the scheduler's
    #: :class:`~repro.opt.plan_cache.PlanCache` counters.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    retries: int = 0
    hedged_fragments: int = 0
    breaker_open_events: int = 0
    breaker_probes: int = 0
    #: shard index -> "closed" | "open" | "half_open" (last refresh).
    breaker_states: dict[int, str] = field(default_factory=dict)
    quarantined_shards: tuple[int, ...] = ()

    @property
    def modeled_scan_sharing_gain(self) -> float:
        """Solo / fused modeled seconds of the shared scans (1.0 = none)."""
        if self.modeled_fused_scan_seconds <= 0.0:
            return 1.0
        return self.modeled_solo_scan_seconds / self.modeled_fused_scan_seconds

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class _Pending:
    """One queued query with its execution options and admission facts."""

    __slots__ = ("handle", "query", "mode", "pushdown", "predicate_order",
                 "group", "scratch_bytes", "enqueued_batch", "est_hits")

    def __init__(self, handle, query, mode, pushdown, predicate_order,
                 group, scratch_bytes, enqueued_batch=0, est_hits=None) -> None:
        self.handle = handle
        self.query = query
        self.mode = mode
        self.pushdown = pushdown
        self.predicate_order = predicate_order
        self.group = group
        self.scratch_bytes = scratch_bytes
        #: ``stats.batches`` at submission — the admission-timeout clock.
        self.enqueued_batch = enqueued_batch
        #: The first scan's estimated hits at admission (None: no estimate).
        self.est_hits = est_hits


class QueryQueue:
    """FIFO admission queue with compatibility-grouped batch popping."""

    def __init__(self) -> None:
        self._items: deque[_Pending] = deque()

    def push(self, pending: _Pending) -> None:
        self._items.append(pending)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def pop_batch(
        self, policy: AdmissionPolicy, budget: int | None
    ) -> tuple[list[_Pending], bool]:
        """Pop the head plus every compatible queued query that fits.

        Compatibility is the pending's ``group`` (logical fingerprint +
        execution options).  The batch stops growing at ``max_batch`` or
        when the next member's expected device scratch would push the
        batch past ``budget`` (the device pool's scaled headroom, see
        :meth:`~repro.device.memory.MemoryPool.headroom`; None =
        unbounded); returns ``(batch, split_by_memory)``.  The head
        always ships — a query too large for the headroom runs alone
        rather than starving (real allocations remain capacity-checked
        by the device pool).
        """
        head = self._items.popleft()
        batch = [head]
        if head.group[0][0] == "solo":
            return batch, False
        scratch = head.scratch_bytes
        split = False
        survivors: deque[_Pending] = deque()
        while self._items and len(batch) < policy.max_batch:
            pending = self._items.popleft()
            if pending.group != head.group:
                survivors.append(pending)
                continue
            if budget is not None and scratch + pending.scratch_bytes > budget:
                survivors.append(pending)
                split = True
                continue
            scratch += pending.scratch_bytes
            batch.append(pending)
        self._items.extendleft(reversed(survivors))
        return batch, split


class Scheduler:
    """Accepts queries concurrently, executes them in shared batches."""

    def __init__(self, session: "Session", policy: AdmissionPolicy | None = None) -> None:
        self.session = session
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.stats = ServeStats()
        self._queue = QueryQueue()
        self._seq = 0
        self._closed = False
        #: Most recent optimizer decisions (cost gate picks), newest last.
        self.recent_decisions = deque(maxlen=32)
        from ..opt.plan_cache import PlanCache

        #: Physical plans keyed on (query, options, catalog epoch); a
        #: compaction bumps the epoch and naturally invalidates entries.
        self._plan_cache = PlanCache()
        from ..ingest.union import ContributionCache

        #: Delta contribution runs keyed on (query, epoch, delta version):
        #: a fixed query panel re-served between writes evaluates its
        #: delta slice once, then replays the recorded modeled spans.
        self._delta_cache = ContributionCache()
        #: Tables whose compaction is in progress: writes arriving under
        #: an intent defer until it clears.  Reads never look here.
        self._write_intents: set[str] = set()
        self._deferred_writes: list[tuple[str, dict]] = []

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: "Query | RelationBuilder",
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
    ) -> QueryHandle:
        """Enqueue one query (a logical :class:`Query` or a builder).

        Returns immediately with a :class:`QueryHandle`; execution is
        deferred to batch time.  Submitting past ``max_in_flight`` first
        drains one batch — admission backpressure, paid by the submitter.
        """
        from ..engine.session import MODES

        if self._closed:
            raise PlanError("scheduler is closed")
        if mode not in MODES:
            raise PlanError(f"unknown mode {mode!r}; pick one of {MODES}")
        if not isinstance(query, Query):
            query = query.build()
        scratch, est_hits = self._estimate_scratch(query, mode)
        capacity = self._admission_capacity()
        if capacity is not None and scratch > capacity:
            # Fail fast: no amount of waiting makes this query fit.
            self.stats.rejected += 1
            raise AdmissionError(
                f"query needs ~{scratch} bytes of device scratch but the "
                f"pool can offer at most {capacity}; it would never be "
                "admitted"
            )
        if len(self._queue) >= self.policy.max_in_flight:
            self.stats.backpressure_stalls += 1
            self._run_one_batch()
        self._seq += 1
        handle = QueryHandle(
            self, query, mode, self._seq,
            pushdown=pushdown, predicate_order=predicate_order,
        )
        group = (query.batch_fingerprint(), mode, pushdown, predicate_order)
        pending = _Pending(
            handle, query, mode, pushdown, predicate_order,
            group, scratch, self.stats.batches, est_hits,
        )
        self._queue.push(pending)
        self.stats.submitted += 1
        return handle

    def submit_many(
        self,
        queries: Iterable["Query | RelationBuilder"],
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
    ) -> list[QueryHandle]:
        """Enqueue several queries; one handle each, same options."""
        return [
            self.submit(
                q, mode=mode, pushdown=pushdown, predicate_order=predicate_order
            )
            for q in queries
        ]

    # ------------------------------------------------------------------
    # Write admission (PR 9)
    # ------------------------------------------------------------------
    def submit_write(self, table: str, rows) -> int:
        """Land a row batch in ``table``'s delta segment.

        Writes serialize against compaction on a per-relation write
        intent: a write arriving while its table is being compacted is
        deferred and flushed the moment the intent clears.  Reads never
        consult intents — a read admitted after a write can never wait on
        compaction.  Returns rows landed now (0 when deferred).
        """
        if self._closed:
            raise PlanError("scheduler is closed")
        if table in self._write_intents:
            self._deferred_writes.append((table, rows))
            self.stats.deferred_writes += 1
            return 0
        n = self.session.append(table, rows)
        self.stats.writes += 1
        self.stats.write_rows += n
        return n

    def _maybe_compact(self) -> None:
        """Compact tables past the delta watermark (between batches)."""
        catalog = self.session.catalog
        qt = obs_trace.ACTIVE
        for table in list(catalog.tables_with_delta()):
            rows = catalog.delta_rows(table)
            if rows < self.policy.delta_watermark:
                continue
            self._write_intents.add(table)
            try:
                if qt is None:
                    self.session.compact(table)
                else:
                    with qt.span(
                        "ingest.compact", track="ingest",
                        table=table, rows=rows,
                    ) as rec:
                        self.session.compact(table)
                        rebuilt = self.session.last_compaction
                        if rebuilt:
                            rec.args.update(path="rebuild", rebuilt=rebuilt)
                        else:
                            rec.args["path"] = "extend"
                self.stats.compactions += 1
            finally:
                self._write_intents.discard(table)
                self._flush_deferred(table)

    def _flush_deferred(self, table: str) -> None:
        still: list[tuple[str, dict]] = []
        for t, rows in self._deferred_writes:
            if t != table:
                still.append((t, rows))
                continue
            n = self.session.append(t, rows)
            self.stats.writes += 1
            self.stats.write_rows += n
        self._deferred_writes = still

    # ------------------------------------------------------------------
    # Plan cache (PR 9)
    # ------------------------------------------------------------------
    def _plan_for(self, query: Query, pushdown: bool, predicate_order: str):
        """The member's physical plan, cached on (query, options, epoch)."""
        catalog = self.session.catalog
        optimizer = self.policy.optimizer
        key = (query, pushdown, predicate_order, optimizer, catalog.epoch)

        def build():
            return rewrite_to_ar_plan(
                query, catalog, pushdown=pushdown,
                predicate_order=predicate_order, optimizer=optimizer,
            )

        plan = self._plan_cache.get(key, build)
        self.stats.plan_cache_hits = self._plan_cache.hits
        self.stats.plan_cache_misses = self._plan_cache.misses
        return plan

    # ------------------------------------------------------------------
    # Draining (cooperative execution)
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Run batches until the queue is empty."""
        while self._queue:
            self._run_one_batch()

    def _drain_until(self, handle: QueryHandle) -> None:
        while not handle.done() and self._queue and not self._closed:
            self._run_one_batch()
        if not handle.done():
            handle._fail(CancelledError(
                f"query #{handle.seq} never ran: "
                + ("the scheduler was closed before its batch executed"
                   if self._closed
                   else "it was not queued on this scheduler")
            ))

    def close(self) -> None:
        """Drain everything still queued and refuse further submissions."""
        self.drain()
        self._closed = True

    def _abort(self) -> None:
        """Close without draining; queued queries fail with CancelledError."""
        self._closed = True
        while self._queue:
            pending = self._queue._items.popleft()
            pending.handle._fail(CancelledError(
                f"query #{pending.handle.seq} never ran: the scheduler "
                "was closed before its batch executed"
            ))
            self.stats.failed += 1

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # do not mask the in-flight exception with queued queries'
            self._abort()

    # ------------------------------------------------------------------
    # Cancellation / admission bounds
    # ------------------------------------------------------------------
    def _cancel(self, handle: QueryHandle) -> bool:
        """Withdraw ``handle`` if it is still queued; release its slot."""
        for pending in self._queue._items:
            if pending.handle is handle:
                self._queue._items.remove(pending)
                handle._cancelled(CancelledError(
                    f"query #{handle.seq} was cancelled while queued"
                ))
                self.stats.cancelled += 1
                return True
        return False

    def _admission_capacity(self) -> int | None:
        """Most device scratch any query could ever be granted (None = ∞)."""
        pool = self.session.machine.gpu.pool
        if pool.capacity is None:
            return None
        return int(pool.capacity * self.policy.device_headroom_fraction)

    def _expire_stale(self) -> None:
        """Fail queries that have waited past the admission timeout."""
        timeout = self.policy.admission_timeout_batches
        if timeout is None or not self._queue:
            return
        survivors: deque[_Pending] = deque()
        while self._queue._items:
            pending = self._queue._items.popleft()
            waited = self.stats.batches - pending.enqueued_batch
            if waited >= timeout:
                pending.handle._fail(AdmissionError(
                    f"query #{pending.handle.seq} waited {waited} batches "
                    f"without being admitted (timeout: {timeout})"
                ))
                self.stats.expired += 1
                self.stats.failed += 1
            else:
                survivors.append(pending)
        self._queue._items = survivors

    # ------------------------------------------------------------------
    # Admission: expected device scratch of one query
    # ------------------------------------------------------------------
    def _estimate_scratch(
        self, query: Query, mode: str
    ) -> tuple[int, int | None]:
        """Expected device-side output bytes, from the free histograms,
        and the first scan's estimated hits they are sized from.

        Classic mode touches no device memory.  A theta block emits id
        streams for both sides; a plain block's first drivable scan emits
        its candidate ids, sized by the (relaxed) histogram selectivity —
        the same estimate the cost-based predicate ordering uses, and the
        one the fuse-or-solo gate reads (None: no scan to estimate).
        """
        if mode == "classic":
            return 0, None
        catalog = self.session.catalog
        if query.theta_joins:
            tj = query.theta_joins[0]
            rows = len(catalog.table(query.table)) + len(
                catalog.table(tj.right_table)
            )
            return rows * _OID_BYTES, None
        for pred in query.where:
            if not pred.is_simple_column:
                continue
            try:
                sel = estimate_selectivity(catalog, query.table, pred)
            except (PlanError, ReproError):
                return 0, None
            hits = int(sel * len(catalog.table(query.table)))
            return hits * _OID_BYTES, hits
        return 0, None

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _run_one_batch(self) -> None:
        tracer = getattr(self.session, "tracer", None)
        if tracer is None:
            self._run_batch_inner()
            return
        with tracer.trace(f"serve.batch:{self.stats.batches + 1}"):
            self._run_batch_inner()
        self._sample_metrics(tracer)

    def _run_batch_inner(self) -> None:
        qt = obs_trace.ACTIVE
        self._expire_stale()
        if not self._queue:
            return
        budget = self._batch_budget()
        if qt is None:
            batch, split = self._queue.pop_batch(self.policy, budget)
        else:
            with qt.span("batch.form", track="scheduler") as rec:
                batch, split = self._queue.pop_batch(self.policy, budget)
                rec.args["queries"] = len(batch)
                rec.args["split"] = split
        self.stats.batches += 1
        size = len(batch)
        self.stats.batch_size_counts[size] = (
            self.stats.batch_size_counts.get(size, 0) + 1
        )
        self.stats.largest_batch = max(self.stats.largest_batch, size)
        if split:
            self.stats.memory_splits += 1
        for pending in batch:
            pending.handle._begin()
        if self.session.catalog.tables_with_delta():
            # Members whose delta cannot be folded post-hoc (exact-mode
            # avg/min/max) need the solo delta-union run; peel them out.
            from ..ingest.union import needs_solo_delta

            keep: list[_Pending] = []
            for pending in batch:
                if needs_solo_delta(
                    pending.query, self.session.catalog, pending.mode
                ):
                    self._run_solo(pending)
                else:
                    keep.append(pending)
            batch = keep
            if not batch:
                self._maybe_compact()
                return
        kind = batch[0].group[0][0]
        if kind == "scan" and len(batch) > 1 and batch[0].mode in ("ar", "approximate"):
            if self.policy.optimizer == "cost" and not self._gate_allows_fuse(batch):
                self.stats.cost_gated_solo += 1
                for pending in batch:
                    self._run_solo(pending)
            else:
                self._run_fused_scan_batch(batch)
        else:
            if kind == "theta" and len(batch) > 1:
                self.stats.shared_right_batches += 1
            for pending in batch:
                self._run_solo(pending)
        self._maybe_compact()

    def _batch_budget(self) -> int | None:
        """Device scratch one batch may claim: the pool's scaled headroom."""
        return self.session.machine.gpu.pool.headroom(
            self.policy.device_headroom_fraction
        )

    def _gate_allows_fuse(self, batch: list[_Pending]) -> bool:
        """Cost-gate one scan batch: fuse only when the estimated
        cooperative pass beats per-member solo scans.

        The fused pass pays a gather-and-sort of every member's hit
        positions on the shared sorted-code view (``O(h log h)``); a solo
        member pays one full stream compare (``O(n)``).  At high
        selectivity the sorts dominate and solo wins — fingerprint
        equality alone cannot see that.  The decision (with both costed
        alternatives) lands in :attr:`recent_decisions`.

        Each member's hits are the estimate admission made of the same
        predicate (the batch fingerprint names it), not a second one; they
        differ from a fresh estimate only if the catalog changed between
        submit and this batch.
        """
        from ..opt.planner import batch_membership_decision

        _, table, column_name = batch[0].group[0]
        est_hits = [pending.est_hits for pending in batch]
        if None in est_hits:
            return True  # no estimate — keep the historical fusing behavior
        try:
            n_rows = len(self.session.catalog.table(table))
        except ReproError:
            return True
        decision = batch_membership_decision(
            table, column_name, n_rows, est_hits
        )
        self.stats.cost_gated_batches += 1
        self.recent_decisions.append(decision)
        return decision.chosen == "fused"

    def _note_result(self, pending: _Pending, result) -> None:
        """Shared completion accounting."""
        pending.handle._fulfill(result)
        self.stats.completed += 1
        if result.degraded:
            self.stats.degraded += 1

    #: ServeStats counters mirrored into the metrics registry each batch.
    _SAMPLED_COUNTERS = (
        "submitted", "completed", "failed", "degraded", "cancelled",
        "rejected", "expired", "batches", "fused_batches", "fused_queries",
        "shared_right_batches", "backpressure_stalls", "memory_splits",
        "cost_gated_batches", "cost_gated_solo", "writes", "write_rows",
        "deferred_writes", "compactions", "retries", "hedged_fragments",
        "breaker_open_events", "breaker_probes",
    )

    def _sample_metrics(self, tracer) -> None:
        """Mirror the scheduler's world into the tracer's registry.

        Runs after every batch when a tracer is attached; absolute values
        are copied (not incremented), so sampling is idempotent.
        """
        from ..storage.decompose import view_cache_bytes, view_eviction_stats

        m = tracer.metrics
        s = self.stats
        for name in self._SAMPLED_COUNTERS:
            m.counter(f"serve.{name}").value = getattr(s, name)
        m.gauge("serve.queue.depth").set(len(self._queue))
        m.gauge("serve.largest_batch").set(s.largest_batch)
        m.counter("plan_cache.hits").value = self._plan_cache.hits
        m.counter("plan_cache.misses").value = self._plan_cache.misses
        m.gauge("plan_cache.hit_rate").set(self._plan_cache.hit_rate)
        m.counter("delta_cache.hits").value = self._delta_cache.hits
        m.counter("delta_cache.misses").value = self._delta_cache.misses
        m.gauge("delta_cache.hit_rate").set(self._delta_cache.hit_rate)
        catalog = self.session.catalog
        m.gauge("ingest.delta.tables").set(len(catalog.tables_with_delta()))
        for table in catalog.tables_with_delta():
            m.gauge(f"ingest.delta.rows.{table}").set(
                catalog.delta_rows(table)
            )
        evictions, evicted_bytes = view_eviction_stats()
        m.counter("view.evictions").value = evictions
        m.counter("view.evicted_bytes").value = evicted_bytes
        m.gauge("view.cache_bytes").set(view_cache_bytes())
        for shard, state in s.breaker_states.items():
            m.set_info(f"breaker.shard{shard}.state", state)
        if s.quarantined_shards:
            m.set_info(
                "breaker.quarantined",
                ",".join(str(i) for i in s.quarantined_shards),
            )

    def _observe_feedback(self, plan, result) -> None:
        """Feed one cost-planned run into the est-vs-actual channel."""
        tracer = getattr(self.session, "tracer", None)
        if tracer is not None and getattr(plan, "estimated_spans", None):
            tracer.feedback.observe(plan, result.timeline)

    def _run_solo(self, pending: _Pending) -> None:
        qt = obs_trace.ACTIVE
        if qt is None:
            try:
                result = self._execute_solo(pending)
            except ReproError as exc:
                pending.handle._fail(exc)
                self.stats.failed += 1
                return
            self._note_result(pending, result)
            return
        with qt.span(
            f"query#{pending.handle.seq}", track="scheduler",
            mode=pending.mode, kind="solo",
        ) as rec:
            try:
                result = self._execute_solo(pending)
            except ReproError as exc:
                rec.args["error"] = type(exc).__name__
                pending.handle._fail(exc)
                self.stats.failed += 1
                return
            rec.modeled = result.timeline.total_seconds()
            qt.add_timeline(result.timeline)
        self._note_result(pending, result)

    def _execute_solo(self, pending: _Pending):
        """One member, no fusing — through the plan cache where possible.

        Classic mode goes through ``session.query`` unchanged; that path
        has no rewritten plan to cache.
        """
        session = self.session
        if pending.mode == "classic":
            return session.query(
                pending.query, mode=pending.mode, pushdown=pending.pushdown,
                predicate_order=pending.predicate_order,
                optimizer=self.policy.optimizer,
            )

        def run_base(query: Query, timeline=None):
            plan = self._plan_for(
                query, pending.pushdown, pending.predicate_order
            )
            result = self._execute_plan(pending, plan, timeline=timeline)
            self._observe_feedback(plan, result)
            return result

        if session.catalog.tables_with_delta():
            from ..ingest.union import run_with_delta

            return run_with_delta(
                session.catalog, session.machine.cpu, pending.query, run_base,
                mode=pending.mode, contribution_cache=self._delta_cache,
            )
        return run_base(pending.query)

    def _execute_plan(self, pending: _Pending, plan, *, timeline=None,
                      scan_hits=None):
        """Run one member's rewritten plan over the base segments."""
        return self.session._ar.run(
            plan, timeline,
            approximate_only=(pending.mode == "approximate"),
            scan_hits=scan_hits,
        )

    def _fold_delta(self, pending: _Pending, result):
        """Fold pending delta rows into a base result computed without
        them (the fused-batch path; solo-only shapes were peeled before
        the batch ran)."""
        catalog = self.session.catalog
        if not catalog.tables_with_delta():
            return result
        from ..ingest.union import apply_delta, delta_tables

        deltas = delta_tables(pending.query, catalog)
        if not deltas:
            return result
        return apply_delta(
            catalog, self.session.machine.cpu, pending.query, result,
            mode=pending.mode, deltas=deltas,
            contribution_cache=self._delta_cache,
        )

    def _run_with_plan(self, pending: _Pending, plan, scan_hits=None):
        """Execute an already-rewritten A&R plan for one pending query.

        Returns the :class:`Result` on success, None on a captured
        failure — so the fused path can read batch stats off it.
        """
        qt = obs_trace.ACTIVE
        span = (
            qt.span(
                f"query#{pending.handle.seq}", track="scheduler",
                mode=pending.mode,
                kind="fused" if scan_hits else "member",
            )
            if qt is not None else None
        )
        try:
            result = self._fold_delta(pending, self._execute_plan(
                pending, plan, scan_hits=scan_hits
            ))
        except ReproError as exc:
            if span is not None:
                span.record.args["error"] = type(exc).__name__
                span.__exit__(None, None, None)
            pending.handle._fail(exc)
            self.stats.failed += 1
            return None
        if span is not None:
            span.record.modeled = result.timeline.total_seconds()
            span.__exit__(None, None, None)
            qt.add_timeline(result.timeline)
        self._observe_feedback(plan, result)
        self._note_result(pending, result)
        return result

    def _run_fused_scan_batch(self, batch: list[_Pending]) -> None:
        """One cooperative pass for the batch's shared first scans.

        Rewrites every member's plan, validates that each indeed opens
        with an :class:`ApproxScanSelect` on the shared column (the
        fingerprint is syntactic; predicate reordering or a
        non-decomposed column degrades members to solo runs), evaluates
        all first-scan predicates in one pass over the column's
        sorted-code view, and runs each member's **unchanged** plan with
        its carved hit positions injected — identical candidates,
        identical charges, one shared pass of wall-clock work.
        """
        _, table, column_name = batch[0].group[0]
        column = self.session.catalog.decomposition_of(table, column_name)
        fused: list[tuple[_Pending, object]] = []  # (pending, plan)
        for pending in batch:
            try:
                plan = self._plan_for(
                    pending.query, pending.pushdown, pending.predicate_order
                )
            except ReproError as exc:
                pending.handle._fail(exc)
                self.stats.failed += 1
                continue
            first = plan.ops[0] if plan.ops else None
            if (
                column is not None
                and isinstance(first, ApproxScanSelect)
                and first.column == column_name
            ):
                fused.append((pending, plan))
            else:
                # Degraded member: run the plan already in hand, no carve.
                self._run_with_plan(pending, plan)
        if not fused:
            return
        requests = [
            ScanRequest(str(i), plan.ops[0].predicate.vrange)
            for i, (_, plan) in enumerate(fused)
        ]
        hits_by_label = cooperative_scan_hits(column, requests)
        total_hits = sum(h.size for h in hits_by_label.values())
        self.stats.fused_batches += 1
        self.stats.fused_queries += len(fused)
        self.stats.modeled_fused_scan_seconds += cooperative_pass_seconds(
            self.session.machine.gpu, column, len(fused), total_hits
        )
        for i, (pending, plan) in enumerate(fused):
            hits = hits_by_label[str(i)]
            result = self._run_with_plan(
                pending, plan, scan_hits={id(plan.ops[0]): hits}
            )
            if result is None:
                continue
            # The first span is the carved scan, charged exactly like the
            # solo kernel — sum it as the batch's solo-cost baseline.
            spans = result.timeline.spans
            if spans:
                self.stats.modeled_solo_scan_seconds += spans[0].seconds

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Queries admitted but not yet executed."""
        return len(self._queue)

    def __repr__(self) -> str:
        return (
            f"Scheduler(queued={len(self._queue)}, "
            f"submitted={self.stats.submitted}, batches={self.stats.batches})"
        )
