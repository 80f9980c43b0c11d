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

Theta batches run member-by-member, as on one device: their fragments
share the replicated right side's memoized views back to back (the PR-5
locality story).

Everything else — batch forming, the peel of members whose delta cannot be
folded post-hoc, the post-hoc fold itself, compaction at the watermark — is
the parent's loop, so a fused batch over pending delta comes out fused here
exactly as it does on one device.
"""

from __future__ import annotations

from ..engine.cooperative import (
    ScanRequest,
    cooperative_pass_seconds,
    cooperative_scan_hits,
)
from ..errors import ReproError
from ..plan.physical import ApproxScanSelect
from ..serve.scheduler import AdmissionPolicy, Scheduler, _Pending

__all__ = ["AdmissionPolicy", "ShardScheduler"]


class ShardScheduler(Scheduler):
    """A :class:`Scheduler` whose batches execute across the shards."""

    # ``session`` is a ShardedSession: provides .catalog (the global
    # planning catalog, what _estimate_scratch reads), .machine (the
    # coordinator, where pending delta is folded in) and .query().

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

    def _batch_budget(self) -> int | None:
        return self._min_shard_headroom()

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

    def _estimate_scratch(self, query, mode: str) -> tuple[int, int | None]:
        """Expected per-device scratch: the largest shard's share.

        The solo estimate sizes the candidate output over the full table;
        on a sharded catalog each device sees only its slice, so the
        per-device claim is the estimate scaled by the biggest shard's
        row fraction (replicated tables keep the full-size estimate).
        The first scan's hits are kept unscaled: the gate prices the
        whole table.
        """
        total, hits = super()._estimate_scratch(query, mode)
        if total <= 0:
            return total, hits
        catalog = self.session.sharded_catalog
        if not catalog.is_partitioned(query.table):
            return total, hits
        rows = catalog.shard_rows(query.table)
        n = sum(rows)
        if n == 0:
            return 0, hits
        return int(total * max(rows) / n), hits

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _execute_solo(self, pending: _Pending):
        """One member, no fusing: the sharded session plans the fragments
        (and unions pending delta in) itself."""
        return self.session.query(
            pending.query, mode=pending.mode, pushdown=pending.pushdown,
            predicate_order=pending.predicate_order,
            optimizer=self.policy.optimizer,
        )

    def _execute_plan(self, pending: _Pending, plan, *, timeline=None,
                      scan_hits=None):
        """Run one member's already-lowered ShardedPlan."""
        return self.session.executor.execute(plan, scan_hits=scan_hits)

    def _fold_delta(self, pending: _Pending, result):
        folded = super()._fold_delta(pending, result)
        if folded is result:
            return result
        return self.session.absorb_delta(folded)

    def _note_result(self, pending: _Pending, result) -> None:
        """Completion accounting plus the fault layer's: retry and hedge
        totals off the result, the executor's circuit breakers mirrored."""
        super()._note_result(pending, result)
        self.stats.retries += result.retries
        self.stats.hedged_fragments += len(result.hedged_shards)
        executor = self.session.executor
        if not executor.breakers:
            return
        self.stats.breaker_states = {
            i: b.state for i, b in sorted(executor.breakers.items())
        }
        self.stats.breaker_open_events = sum(
            b.opened_count for b in executor.breakers.values()
        )
        self.stats.breaker_probes = sum(
            b.probes for b in executor.breakers.values()
        )
        self.stats.quarantined_shards = tuple(
            sorted(executor.quarantined_shards())
        )

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
            self._run_with_plan(pending, plan, scan_hits=hits_for.get(i))
