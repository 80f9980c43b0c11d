"""Placement-aware serving: the PR-5 scheduler over a sharded catalog.

Same public surface as :class:`~repro.serve.scheduler.Scheduler` (submit /
submit_many / drain / close / stats / context manager) with three
placement-aware twists:

* queries route to the shard(s) holding their columns — the
  :class:`~repro.shard.planner.ShardPlanner` prunes fragments whose code
  band cannot contribute, so a batch member touching one shard leaves the
  other devices idle in the model;
* the device-memory admission budget is the **minimum headroom across
  shards** (a batch must fit on every device its members land on), with
  each member's expected scratch scaled down to its largest shard's share
  of the table's rows;
* same-column selection batches fuse **per shard**: each shard runs ONE
  cooperative pass over its own slice's sorted-code view and every
  member-fragment's candidate positions are carved out of it and injected
  back into the unchanged fragment kernel — per-query Timeline and merged
  Result stay byte-identical to the sharded solo run.

Theta batches run member-by-member (their fragments already share the
replicated right side's memoized views back to back, the PR-5 locality
story; the cross-member fused sweep remains single-device-only).
"""

from __future__ import annotations

from ..engine.cooperative import (
    ScanRequest,
    cooperative_pass_seconds,
    cooperative_scan_hits,
)
from ..errors import ExecutionError, ReproError
from ..ingest.union import delta_tables
from ..obs import trace as obs_trace
from ..plan.physical import ApproxScanSelect
from ..serve.scheduler import AdmissionPolicy, Scheduler, _Pending

__all__ = ["AdmissionPolicy", "ShardScheduler"]


class ShardScheduler(Scheduler):
    """A :class:`Scheduler` whose batches execute across the shards."""

    # ``session`` is a ShardedSession: provides .catalog (the global
    # planning catalog, what _estimate_scratch_bytes reads) and .query().

    # ------------------------------------------------------------------
    # Admission: budget and scratch become placement-aware
    # ------------------------------------------------------------------
    def _min_shard_headroom(self) -> int | None:
        """The scarcest *healthy* device's scaled free bytes.

        Shards whose circuit breaker is open are quarantined: their
        fragments fast-fail to degraded answers without touching device
        memory, so a dead device must not throttle admission for the
        survivors (None = unbounded).
        """
        quarantined = self.session.executor.quarantined_shards()
        headrooms = [
            shard.machine.gpu.pool.headroom(
                self.policy.device_headroom_fraction
            )
            for shard in self.session.sharded_catalog.shards
            if shard.index not in quarantined
        ]
        bounded = [h for h in headrooms if h is not None]
        return min(bounded) if bounded else None

    def _admission_capacity(self) -> int | None:
        """Fail-fast bound: the smallest healthy shard pool's capacity."""
        quarantined = self.session.executor.quarantined_shards()
        capacities = [
            shard.machine.gpu.pool.capacity
            for shard in self.session.sharded_catalog.shards
            if shard.index not in quarantined
        ]
        bounded = [c for c in capacities if c is not None]
        if not bounded:
            return None
        return int(min(bounded) * self.policy.device_headroom_fraction)

    def _estimate_scratch_bytes(self, query, mode: str) -> int:
        """Expected per-device scratch: the largest shard's share.

        The solo estimate sizes the candidate output over the full table;
        on a sharded catalog each device sees only its slice, so the
        per-device claim is the estimate scaled by the biggest shard's
        row fraction (replicated tables keep the full-size estimate).
        """
        total = super()._estimate_scratch_bytes(query, mode)
        if total <= 0:
            return total
        catalog = self.session.sharded_catalog
        if not catalog.is_partitioned(query.table):
            return total
        rows = catalog.shard_rows(query.table)
        n = sum(rows)
        if n == 0:
            return 0
        return int(total * max(rows) / n)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _run_batch_inner(self) -> None:
        qt = obs_trace.ACTIVE
        self._expire_stale()
        if not self._queue:
            return
        if qt is None:
            batch, split = self._queue.pop_batch(
                self.policy, self._min_shard_headroom()
            )
        else:
            with qt.span("batch.form", track="scheduler") as rec:
                batch, split = self._queue.pop_batch(
                    self.policy, self._min_shard_headroom()
                )
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
            # The per-shard fused pass sees base rows only; members whose
            # tables hold delta take the solo path, which unions it in.
            keep: list[_Pending] = []
            for pending in batch:
                if self._reads_delta(pending):
                    self._run_solo(pending)
                else:
                    keep.append(pending)
            batch = keep
            if not batch:
                self._maybe_compact()
                return
        kind = batch[0].group[0][0]
        if (
            kind == "scan"
            and len(batch) > 1
            and batch[0].mode in ("ar", "approximate")
        ):
            if (
                self.policy.optimizer == "cost"
                and not self._gate_allows_fuse(batch)
            ):
                self.stats.cost_gated_solo += 1
                for pending in batch:
                    self._run_solo(pending)
            else:
                self._run_fused_scan_batch(batch)
        else:
            if kind == "theta" and len(batch) > 1:
                # Members still share the replicated right side's memoized
                # views back to back (the PR-5 locality win).
                self.stats.shared_right_batches += 1
            for pending in batch:
                self._run_solo(pending)
        self._maybe_compact()

    def _reads_delta(self, pending: _Pending) -> bool:
        try:
            return bool(delta_tables(pending.query, self.session.catalog))
        except ExecutionError:
            return True  # dim-delta rejection: surface it on the solo path

    def _run_sharded_plan(self, pending: _Pending, plan, scan_hits=None):
        """Execute an already-lowered ShardedPlan for one pending query."""
        qt = obs_trace.ACTIVE
        span = None
        if qt is not None:
            span = qt.span(
                f"query#{pending.handle.seq}", track="scheduler",
                mode=pending.mode,
                kind="fused" if scan_hits else "member",
            )
            span.__enter__()
        try:
            result = self.session.executor.execute(plan, scan_hits=scan_hits)
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
        self._note_result(pending, result)
        return result

    def _run_fused_scan_batch(self, batch: list[_Pending]) -> None:
        """Per-shard cooperative passes for the batch's shared first scans.

        Lowers every member to its sharded plan, then — shard by shard —
        evaluates all member-fragments' first-scan predicates in one pass
        over that shard's sorted-code view and injects each fragment's
        carved positions back through
        :meth:`~repro.shard.executor.ShardExecutor.execute`'s
        ``scan_hits``.  A member whose fragment on some shard does not
        open with the fingerprint scan (predicate reordering) simply gets
        no injection there; pruned shards contribute no pass at all.
        """
        _, table, column_name = batch[0].group[0]
        catalog = self.session.sharded_catalog
        lowered: list[tuple[_Pending, object]] = []  # (pending, ShardedPlan)
        for pending in batch:
            try:
                plan = self.session.planner.plan(
                    pending.query, mode=pending.mode,
                    pushdown=pending.pushdown,
                    predicate_order=pending.predicate_order,
                    optimizer=self.policy.optimizer,
                )
            except ReproError as exc:
                pending.handle._fail(exc)
                self.stats.failed += 1
                continue
            lowered.append((pending, plan))
        if not lowered:
            return
        # member index -> shard index -> {id(op): hits}
        hits_for: dict[int, dict[int, dict[int, object]]] = {}
        fused_members: set[int] = set()
        for shard in catalog.shards:
            column = shard.catalog.decomposition_of(table, column_name)
            if column is None:
                continue  # empty shard (or never decomposed here)
            requests: list[ScanRequest] = []
            ops: list[tuple[int, object]] = []  # (member index, first op)
            for i, (_, plan) in enumerate(lowered):
                for fragment in plan.fragments:
                    if fragment.shard_index != shard.index:
                        continue
                    first = (
                        fragment.plan.ops[0]
                        if fragment.plan is not None and fragment.plan.ops
                        else None
                    )
                    if (
                        isinstance(first, ApproxScanSelect)
                        and first.column == column_name
                    ):
                        requests.append(
                            ScanRequest(str(len(ops)), first.predicate.vrange)
                        )
                        ops.append((i, first))
            if not requests:
                continue
            # A fragment alone on its shard is carved like the rest, beside
            # the same resident view; only a pass two or more fragments
            # share counts as fused.
            shared = len(requests) > 1
            hits_by_label = cooperative_scan_hits(column, requests)
            if shared:
                total_hits = sum(h.size for h in hits_by_label.values())
                self.stats.modeled_fused_scan_seconds += cooperative_pass_seconds(
                    shard.machine.gpu, column, len(requests), total_hits
                )
            for label, (i, first) in enumerate(ops):
                hits = hits_by_label[str(label)]
                hits_for.setdefault(i, {})[shard.index] = {id(first): hits}
                if not shared:
                    continue
                fused_members.add(i)
                # What this member's fragment would bill for its solo scan
                # on this shard — the baseline of the modeled sharing gain.
                self.stats.modeled_solo_scan_seconds += (
                    cooperative_pass_seconds(
                        shard.machine.gpu, column, 1, hits.size
                    )
                )
        if fused_members:
            self.stats.fused_batches += 1
            self.stats.fused_queries += len(fused_members)
        for i, (pending, plan) in enumerate(lowered):
            self._run_sharded_plan(pending, plan, scan_hits=hits_for.get(i))
