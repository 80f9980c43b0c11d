"""Fragment execution and the billed merge — now failure-aware.

Each fragment runs on its shard's own simulated machine with its own
:class:`Timeline`; the modeled devices work **concurrently**, so the
sharded wall clock is the *maximum* fragment completion plus the
coordinator's merge — not the sum.  The merge itself is not written here:
the fragments' Results are the parts of :func:`repro.engine.merge.merge`
(the same fold that combines base and delta parts), which is bit-for-bit
what the single-device engines compute — the merged Result is
byte-identical to the one-machine run in every mode.  This module bills it
(``shard.merge.*`` on the coordinator) and composes the approximate
answers (:meth:`ShardExecutor._merged_approximate`).

A fragment whose slice is empty (:class:`~repro.errors.EmptyInputError`:
``min`` of no row) simply contributes nothing; if *no* fragment
contributes, the merge raises the same error the single-device run raises.

**Failure handling (PR 7).**  Fragment dispatch goes through a
per-fragment retry loop governed by a :class:`~repro.faults.RetryPolicy`:
transient failures (:class:`~repro.errors.DeviceFailure`,
:class:`~repro.errors.TransientAllocationError`) retry with exponential
backoff, each backoff billed as a ``fault.retry.backoff`` span on the
query's **recovery ledger** — a second Timeline kept next to the clean
per-query ledger, so recovery has a modeled cost while the clean ledger
stays byte-identical to the fault-free run whenever every fragment
eventually succeeds.  A fragment whose recovery budget (the per-query
deadline) or attempts run out is **dead**: its shard's
:class:`~repro.faults.CircuitBreaker` records the failure (consecutive
failures open the breaker; open shards are skipped instantly and excluded
from serving admission headroom; a cooldown later, one half-open probe
decides recovery), and the query **degrades gracefully** — the surviving
fragments merge as usual and the Result comes back ``degraded=True`` with
the shard-coverage fraction and a *sound* ungrouped-count interval (the
true count provably lies within it: dead shards contribute between zero
and their row count — or row count × |right| for theta pairs).

**No survivor ⇒ raise, not degrade.**  Degradation needs a surviving
fragment to degrade *to*.  When every dispatched fragment is dead — e.g. a
narrow window pruned all shards but one and that one ran out of attempts;
pruned shards were never asked and are not survivors — or the survivors'
merge is empty (``min`` of no rows), the query fails with a non-transient
:class:`~repro.errors.DeviceFailure` naming the dead shards.

The executor also **hedges** stragglers: when the slowest fragment's
modeled seconds exceed ``hedge_factor`` × the ``hedge_quantile`` quantile
of its siblings, the fragment is re-executed once and the faster attempt
becomes the fragment's ledger (the loser's spans move to the recovery
ledger) — tail latency *and* ledger fidelity are restored when the
slowdown was transient.  Only an attached fault injector makes slowness
transient in the model; a healthy executor never hedges — a window cut
90/10 by a shard edge is uneven work, not a straggler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.intervals import Interval
from ..device.model import OpClass
from ..device.timeline import Timeline
from ..engine.merge import Part, merge
from ..engine.result import ApproximateAnswer, Result
from ..errors import DeviceFailure, EmptyInputError, TransientAllocationError
from ..faults.breaker import CircuitBreaker
from ..obs import trace as obs_trace
from ..faults.policy import RetryPolicy
from ..faults.profile import AttemptFaults, FaultInjector
from .catalog import ShardedCatalog
from .planner import Fragment, ShardedPlan

_OID_BYTES = 8

#: Failures the retry loop absorbs; anything else propagates unchanged.
_RETRYABLE = (DeviceFailure, TransientAllocationError)


@dataclass(slots=True)
class ShardedResult(Result):
    """A merged :class:`Result` carrying the sharded wall-clock story."""

    #: Modeled completion seconds of each executed fragment — its clean
    #: ledger plus any recovery (failed attempts' backoffs) it needed.
    fragment_seconds: list[float] = field(default_factory=list)
    #: Modeled seconds of the coordinator's merge/ship step.
    merge_seconds: float = 0.0
    #: ``max(fragment_seconds) + merge_seconds`` — fragments run
    #: concurrently on their own devices in the modeled timeline.
    wall_clock_seconds: float = 0.0
    #: Shards the planner skipped (disjoint code band / impossible θ).
    pruned_shards: list[int] = field(default_factory=list)
    #: Shards whose fragment died past the retry deadline (degraded runs).
    dead_shards: list[int] = field(default_factory=list)
    #: Shards whose straggling fragment was re-executed (faster attempt won).
    hedged_shards: list[int] = field(default_factory=list)
    #: Failed attempts that were retried across all fragments.
    retries: int = 0
    #: The recovery ledger: backoff charges and losing-attempt spans.  The
    #: clean per-query ledger (``timeline``) stays byte-identical to the
    #: fault-free run whenever every fragment eventually succeeded.
    recovery_timeline: Timeline = field(default_factory=Timeline)

    @property
    def recovery_seconds(self) -> float:
        return self.recovery_timeline.total_seconds()

    def combined_timeline(self) -> Timeline:
        """Clean ledger plus recovery — every modeled second, retries visible."""
        combined = Timeline()
        combined.extend(self.timeline)
        combined.extend(self.recovery_timeline)
        return combined


@dataclass
class _Outcome:
    """One fragment's fate after the retry loop."""

    fragment: Fragment
    #: None when the fragment died — or ran over an empty slice, which
    #: contributes nothing to the merge (a ledger, no result).
    result: Result | None = None
    #: Clean ledger of the winning attempt (None when the fragment died).
    timeline: Timeline | None = None
    #: Completion time: winning attempt + this fragment's recovery spend.
    completion_seconds: float = 0.0
    dead: bool = False
    retries: int = 0
    hedged: bool = False


class ShardExecutor:
    """Runs a :class:`ShardedPlan`'s fragments and merges their outputs."""

    def __init__(
        self,
        catalog: ShardedCatalog,
        *,
        retry_policy: RetryPolicy | None = None,
        breaker_factory=CircuitBreaker,
    ) -> None:
        self.catalog = catalog
        self.retry_policy = retry_policy or RetryPolicy()
        self.injector: FaultInjector | None = None
        self._breaker_factory = breaker_factory
        #: shard index -> breaker (created on first dispatch to the shard).
        self.breakers: dict[int, CircuitBreaker] = {}
        #: Query-count clock driving breaker cooldowns.
        self._clock = 0
        #: Trace bookkeeping (only touched when a trace is active): the
        #: last attempt span per shard and a pending flow id linking a
        #: failed attempt / backoff / hedge launch to the next attempt.
        self._last_attempt_span: dict[int, object] = {}
        self._pending_flow: dict[int, int] = {}

    # ------------------------------------------------------------------
    def set_injector(self, injector: FaultInjector | None) -> None:
        """Attach (or detach) a fault injector; installs its alloc hooks."""
        self.injector = injector
        hook = injector.alloc_hook if injector is not None else None
        for shard in self.catalog.shards:
            shard.machine.gpu.pool.fault_hook = hook

    def _breaker(self, shard_index: int) -> CircuitBreaker:
        if shard_index not in self.breakers:
            self.breakers[shard_index] = self._breaker_factory()
        return self.breakers[shard_index]

    def quarantined_shards(self) -> set[int]:
        """Shards whose breaker is open (excluded from admission headroom)."""
        return {i for i, b in self.breakers.items() if b.quarantined}

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: ShardedPlan,
        *,
        scan_hits: dict[int, dict[int, np.ndarray]] | None = None,
    ) -> ShardedResult:
        """Run every fragment (with retries), then merge on the coordinator.

        ``scan_hits`` maps shard index -> {id(op): hit positions} for the
        placement-aware scheduler's fused batches; injection preserves
        each fragment's charges and output exactly (PR 5 invariant).
        """
        qt = obs_trace.ACTIVE
        if qt is None:
            return self._execute_inner(plan, scan_hits)
        with qt.span(
            "shard.execute", track="coordinator",
            shards=len(plan.fragments),
        ) as rec:
            result = self._execute_inner(plan, scan_hits)
            rec.modeled = result.wall_clock_seconds
            rec.args["retries"] = result.retries
            if result.dead_shards:
                rec.args["dead"] = result.dead_shards
            if result.hedged_shards:
                rec.args["hedged"] = result.hedged_shards
            if result.degraded:
                rec.args["degraded"] = True
            return result

    def _execute_inner(self, plan, scan_hits) -> ShardedResult:
        self._clock += 1
        recovery = Timeline()
        outcomes = [
            self._run_fragment(fragment, plan, scan_hits, recovery)
            for fragment in plan.fragments
        ]
        # Without an injector every attempt on a shard replays the same
        # modeled timeline: a hedge launched at the detection threshold
        # cannot finish before the original, however uneven the fragments.
        if self.retry_policy.hedge and self.injector is not None:
            self._maybe_hedge(outcomes, plan, scan_hits, recovery)

        fragments = [
            (o.fragment, o.result) for o in outcomes if o.result is not None
        ]
        dead_indices = [o.fragment.shard_index for o in outcomes if o.dead]
        if dead_indices and not fragments:
            raise DeviceFailure(
                "every contributing shard failed "
                f"(dead: {sorted(dead_indices)}); no surviving fragment "
                "to degrade to",
                transient=False,
            )

        merge_timeline = Timeline()
        qt = obs_trace.ACTIVE
        if qt is None:
            merged = self._merge_dispatch(
                plan, fragments, merge_timeline, dead_indices
            )
        else:
            with qt.span("shard.merge", track="coordinator") as rec:
                merged = self._merge_dispatch(
                    plan, fragments, merge_timeline, dead_indices
                )
                rec.modeled = merge_timeline.total_seconds()

        if dead_indices:
            self._apply_degradation(plan, merged, dead_indices)

        fragment_seconds = [o.completion_seconds for o in outcomes]
        merge_seconds = merge_timeline.total_seconds()
        combined = Timeline()
        for o in outcomes:
            if o.timeline is not None:
                combined.extend(o.timeline)
        combined.extend(merge_timeline)
        merged.timeline = combined
        return ShardedResult(
            columns=merged.columns,
            row_count=merged.row_count,
            timeline=combined,
            approximate=merged.approximate,
            decimal_scales=merged.decimal_scales,
            degraded=merged.degraded,
            shard_coverage=merged.shard_coverage,
            fragment_seconds=fragment_seconds,
            merge_seconds=merge_seconds,
            wall_clock_seconds=(
                max(fragment_seconds, default=0.0) + merge_seconds
            ),
            pruned_shards=list(plan.pruned),
            dead_shards=sorted(dead_indices),
            hedged_shards=sorted(
                o.fragment.shard_index for o in outcomes if o.hedged
            ),
            retries=sum(o.retries for o in outcomes),
            recovery_timeline=recovery,
        )

    def _merge_dispatch(
        self, plan, fragments, merge_timeline, dead_indices
    ) -> Result:
        try:
            return self._merge(plan, fragments, merge_timeline)
        except EmptyInputError as exc:
            if not dead_indices:
                raise
            # Survivors were empty AND shards died: there is no sound
            # survivor value to degrade to (the dead shards may hold it).
            raise DeviceFailure(
                f"cannot degrade: {exc} over the surviving shards "
                f"(dead: {sorted(dead_indices)})",
                transient=False,
            ) from exc

    # ------------------------------------------------------------------
    # Fragment dispatch: retry loop, backoff billing, breaker bookkeeping
    # ------------------------------------------------------------------
    def _run_fragment(
        self,
        fragment: Fragment,
        plan: ShardedPlan,
        scan_hits,
        recovery: Timeline,
    ) -> _Outcome:
        shard_index = fragment.shard_index
        breaker = self._breaker(shard_index)
        qt = obs_trace.ACTIVE
        state_before = breaker.state
        allowed = breaker.allow(self._clock)
        if qt is not None and breaker.state != state_before:
            qt.instant(
                f"breaker.{breaker.state}", track=f"shard {shard_index}",
                shard=shard_index, previous=state_before,
            )
        if not allowed:
            # Quarantined: fast-fail to degradation, no retry budget spent.
            if qt is not None:
                qt.instant(
                    "breaker.skip", track=f"shard {shard_index}",
                    shard=shard_index,
                )
            return _Outcome(fragment, dead=True)
        policy = self.retry_policy
        recovery_spent = 0.0
        retries = 0
        for attempt in range(policy.max_attempts):
            outcome = self._run_attempt(
                fragment, plan, scan_hits, attempt
            )
            if not isinstance(outcome, Exception):
                outcome.completion_seconds += recovery_spent
                outcome.retries = retries
                self._breaker_transition(qt, shard_index, breaker, "success")
                return outcome
            # Failed attempt: bill the backoff (if budget remains) and retry.
            if attempt + 1 >= policy.max_attempts:
                break
            backoff = policy.backoff_seconds(attempt)
            if recovery_spent + backoff > policy.deadline_seconds:
                break  # down past the deadline: stop paying
            recovery.record(
                self.catalog.coordinator.cpu.spec.name, "cpu",
                f"fault.retry.backoff[shard {shard_index}]",
                0, backoff, phase="recover",
            )
            if qt is not None:
                self._trace_backoff(qt, shard_index, attempt, backoff)
            recovery_spent += backoff
            retries += 1
        self._breaker_transition(qt, shard_index, breaker, "failure")
        return _Outcome(
            fragment, dead=True,
            completion_seconds=recovery_spent, retries=retries,
        )

    def _breaker_transition(self, qt, shard_index, breaker, event) -> None:
        """Record the outcome on the breaker; trace any state change."""
        before = breaker.state
        if event == "success":
            breaker.record_success()
        else:
            breaker.record_failure(self._clock)
        if qt is not None and breaker.state != before:
            qt.instant(
                f"breaker.{breaker.state}", track=f"shard {shard_index}",
                shard=shard_index, previous=before,
            )

    def _trace_backoff(self, qt, shard_index, attempt, backoff) -> None:
        """One retry-backoff span, flow-linked failed attempt → retry."""
        fid = qt.next_flow()
        prev = self._last_attempt_span.get(shard_index)
        if prev is not None:
            prev.flow_out = fid
        with qt.span(
            "fault.retry.backoff", track=f"shard {shard_index}",
            modeled=backoff, shard=shard_index, attempt=attempt,
        ) as rec:
            rec.flow_in = fid
            rec.flow_out = qt.next_flow()
            self._pending_flow[shard_index] = rec.flow_out

    def _run_attempt(
        self,
        fragment: Fragment,
        plan: ShardedPlan,
        scan_hits,
        attempt: int,
    ):
        """One dispatch: returns an :class:`_Outcome` or the caught fault."""
        qt = obs_trace.ACTIVE
        if qt is None:
            return self._attempt_inner(fragment, plan, scan_hits, attempt)
        shard_index = fragment.shard_index
        name = "hedge.attempt" if attempt == -1 else f"attempt {attempt}"
        with qt.span(
            name, track=f"shard {shard_index}",
            shard=shard_index, attempt=attempt,
        ) as rec:
            rec.flow_in = self._pending_flow.pop(shard_index, None)
            self._last_attempt_span[shard_index] = rec
            out = self._attempt_inner(fragment, plan, scan_hits, attempt)
            if isinstance(out, Exception):
                rec.args["error"] = type(out).__name__
            elif out.timeline is not None:
                rec.modeled = out.timeline.total_seconds()
            return out

    def _attempt_inner(
        self,
        fragment: Fragment,
        plan: ShardedPlan,
        scan_hits,
        attempt: int,
    ):
        shard_index = fragment.shard_index
        shard = self.catalog.shards[shard_index]
        faults = (
            self.injector.begin_attempt(
                shard_index, (self._clock, shard_index)
            )
            if self.injector is not None
            else AttemptFaults()
        )
        timeline = Timeline(scale=faults.scale * shard.machine.slowdown)
        hits = (scan_hits or {}).get(shard_index)
        scratch_label = (
            f"(fragment scratch q{self._clock} s{shard_index} a{attempt})"
        )
        scratch_bytes = self._scratch_bytes(fragment)
        allocated = False
        try:
            if faults.dispatch_error is not None:
                raise faults.dispatch_error
            # The attempt's working set claims real (capacity-checked,
            # fault-hooked) device memory for its duration — where the
            # injector's under-pressure allocator hiccups fire.
            shard.machine.gpu.pool.allocate(scratch_label, scratch_bytes)
            allocated = True
            if plan.mode == "classic":
                result = shard.classic.run(fragment.query, timeline)
            else:
                result = shard.ar.run(
                    fragment.plan, timeline,
                    approximate_only=(plan.mode == "approximate"),
                    scan_hits=hits,
                )
        except EmptyInputError:
            return _Outcome(
                fragment, timeline=timeline,
                completion_seconds=timeline.total_seconds(),
            )
        except _RETRYABLE as exc:
            return exc
        finally:
            if allocated:
                shard.machine.gpu.pool.free(scratch_label)
        return _Outcome(
            fragment, result=result, timeline=timeline,
            completion_seconds=timeline.total_seconds(),
        )

    def _scratch_bytes(self, fragment: Fragment) -> int:
        """The attempt's modeled working set: one id per local row."""
        try:
            rows = len(
                self.catalog.shards[fragment.shard_index]
                .catalog.table(fragment.query.table)
            )
        except Exception:
            rows = 0
        return max(rows, 1) * _OID_BYTES

    # ------------------------------------------------------------------
    # Hedging: re-execute the straggling fragment, keep the faster attempt
    # ------------------------------------------------------------------
    def _maybe_hedge(
        self, outcomes: list[_Outcome], plan, scan_hits, recovery: Timeline
    ) -> None:
        policy = self.retry_policy
        live = [o for o in outcomes if o.timeline is not None and not o.dead]
        if len(live) < 2:
            return
        slowest = max(live, key=lambda o: o.timeline.total_seconds())
        siblings = [
            o.timeline.total_seconds() for o in live if o is not slowest
        ]
        threshold = policy.hedge_factor * float(
            np.quantile(np.asarray(siblings), policy.hedge_quantile)
        )
        slow_seconds = slowest.timeline.total_seconds()
        if threshold <= 0.0 or slow_seconds <= threshold:
            return
        # The hedge launches at the detection threshold; its completion is
        # threshold + its own duration.  The faster attempt wins the
        # ledger; the loser's spans are recovery cost.
        qt = obs_trace.ACTIVE
        if qt is not None:
            shard_index = slowest.fragment.shard_index
            fid = qt.next_flow()
            prev = self._last_attempt_span.get(shard_index)
            if prev is not None:
                prev.flow_out = fid
            self._pending_flow[shard_index] = fid
            qt.instant(
                "hedge.launch", track="coordinator",
                shard=shard_index, threshold=threshold,
                slow_seconds=slow_seconds,
            )
        hedge = self._run_attempt(
            slowest.fragment, plan, scan_hits, attempt=-1
        )
        if isinstance(hedge, Exception) or hedge.timeline is None:
            return  # hedge itself failed: keep the slow original
        hedge_completion = threshold + hedge.timeline.total_seconds()
        winner, loser = (
            (hedge, slowest)
            if hedge_completion < slow_seconds
            else (slowest, hedge)
        )
        recovery.extend(
            loser.timeline if loser is hedge else slowest.timeline
        )
        if winner is hedge:
            slowest.result = hedge.result
            slowest.timeline = hedge.timeline
            slowest.completion_seconds = (
                hedge_completion
                + (slowest.completion_seconds - slow_seconds)  # prior recovery
            )
        if qt is not None:
            qt.instant(
                "hedge.resolved", track="coordinator",
                shard=slowest.fragment.shard_index,
                winner="hedge" if winner is hedge else "original",
            )
        slowest.hedged = True

    # ------------------------------------------------------------------
    # Graceful degradation: survivors' merge + sound bounds
    # ------------------------------------------------------------------
    def _apply_degradation(
        self, plan: ShardedPlan, merged: Result, dead_indices: list[int]
    ) -> None:
        query = plan.query
        total, dead_rows = self._row_split(query.table, dead_indices)
        merged.degraded = True
        merged.shard_coverage = (
            (total - dead_rows) / total if total > 0 else 0.0
        )
        if query.group_by:
            return  # grouped bounds have no exact composition (scope)
        missing_upper = dead_rows
        if query.theta_joins:
            right = query.theta_joins[0].right_table
            missing_upper = dead_rows * len(self.catalog.table(right))
        for agg in query.aggregates:
            if agg.func != "count":
                continue
            if plan.mode == "approximate":
                existing = (
                    merged.approximate.aggregates.get(agg.alias)
                    if merged.approximate is not None else None
                )
                if isinstance(existing, Interval):
                    # Survivors' sound interval + dead ∈ [0, missing_upper].
                    merged.approximate.aggregates[agg.alias] = Interval(
                        existing.lo, existing.hi + missing_upper
                    )
                continue
            # Exact modes: the survivors' merged count is exact over the
            # covered rows, so the true global count lies in
            # [survivors, survivors + what the dead shards could hold].
            survivors = int(merged.columns[agg.alias][0])
            if merged.approximate is None:
                merged.approximate = ApproximateAnswer()
            merged.approximate.aggregates[agg.alias] = Interval(
                survivors, survivors + missing_upper
            )

    def _row_split(
        self, table: str, dead_indices: list[int]
    ) -> tuple[int, int]:
        """(total rows, rows on dead shards) of the queried table."""
        catalog = self.catalog
        if table in catalog.row_maps:
            rows = [len(r) for r in catalog.row_maps[table]]
            return sum(rows), sum(rows[i] for i in dead_indices)
        total = len(catalog.global_catalog.table(table))
        # Replicated tables run one fragment, on shard 0.
        return total, total if 0 in dead_indices else 0

    # ------------------------------------------------------------------
    # Merge: billed here, computed by repro.engine.merge
    # ------------------------------------------------------------------
    def _merge(
        self,
        plan: ShardedPlan,
        fragments: list[tuple[Fragment, Result]],
        timeline: Timeline,
    ) -> Result:
        query = plan.query
        answer = self._merged_approximate(plan, [r for _, r in fragments])
        if plan.mode == "approximate":
            self._bill_merge(
                timeline,
                items=max(1, len(plan.fragments)) * max(1, len(query.aggregates)),
                item_bytes=2 * _OID_BYTES,
            )
            return Result(
                columns={}, row_count=0, timeline=Timeline(), approximate=answer
            )
        if plan.merge is not None and plan.merge.kind == "pairs":
            row_maps = self.catalog.row_maps[query.table]
            parts = [Part(r, left=row_maps[f.shard_index]) for f, r in fragments]
            width = 2
        else:
            parts = [Part(r) for _, r in fragments]
            width = max(1, len(query.group_by) + len(query.aggregates))
        self._bill_merge(
            timeline,
            items=sum(r.row_count for _, r in fragments),
            item_bytes=_OID_BYTES * width,
        )
        columns, row_count = merge(query, parts)
        return Result(
            columns=columns, row_count=row_count, timeline=Timeline(),
            approximate=answer,
        )

    def _merged_approximate(
        self, plan, results: list[Result]
    ) -> ApproximateAnswer | None:
        """Combine the fragments' free approximate answers.

        Candidate counts and the ungrouped ``count`` bounds partition
        across shards exactly (the global-decomposition alignment), so
        they sum to the single-device values bit-for-bit.  Other bounds
        are per-shard facts with no exact composition — the merged answer
        reports ``None`` for them (documented scope).
        """
        if plan.mode == "classic":
            return None  # classic runs carry no approximate answer
        answer = ApproximateAnswer()
        answer.candidate_rows = sum(
            r.approximate.candidate_rows
            for r in results
            if r.approximate is not None
        )
        for agg in plan.query.aggregates:
            if agg.func == "count" and not plan.query.group_by:
                bounds = [
                    r.approximate.aggregates.get(agg.alias)
                    for r in results
                    if r.approximate is not None
                ]
                if bounds and all(
                    isinstance(b, Interval) for b in bounds
                ):
                    answer.aggregates[agg.alias] = Interval(
                        sum(b.lo for b in bounds),
                        sum(b.hi for b in bounds),
                    )
                    continue
            answer.aggregates[agg.alias] = None
        return answer

    # ------------------------------------------------------------------
    def _bill_merge(self, timeline: Timeline, *, items: int, item_bytes: int) -> None:
        """The ShardMerge gather: fragment outputs land on the coordinator.

        Billed like any host gather (random vs sequential, whichever the
        model says is cheaper) plus one combine pass over the gathered
        entries.
        """
        cpu = self.catalog.coordinator.cpu
        cpu.charge_gather(
            timeline, "shard.merge.gather",
            items=items, item_bytes=item_bytes,
            source_rows=max(items, 1),
        )
        cpu.charge(
            timeline, "shard.merge.combine",
            items * item_bytes,
            tuples=items, op_class=OpClass.AGG, phase="refine",
        )
    # ------------------------------------------------------------------
