"""Sharded optimizer wiring (PR 8): per-fragment costed strategies against
each shard's own catalog, run-vs-prune decisions on the plan, and the
fault/breaker counters flowing through ServeStats."""

import numpy as np
import pytest

from repro.faults.profile import FaultProfile
from repro.shard.session import ShardedSession
from repro.storage.column import IntType

DOMAIN = 1 << 20
N = 24_000


@pytest.fixture()
def session():
    rng = np.random.default_rng(31)
    s = ShardedSession(4)
    s.create_table(
        "events", {"value": IntType()},
        {"value": rng.integers(0, DOMAIN, N)},
    )
    s.create_table(
        "marks", {"value": IntType()},
        {"value": np.sort(rng.integers(0, DOMAIN, 16))},
        partition=False,
    )
    s.bwdecompose("events", "value", 24)
    s.bwdecompose("marks", "value", 24)
    return s


def _scan_query(s, lo=100_000, hi=300_000):
    return (
        s.table("events").where("value", between=(lo, hi)).count("n").build()
    )


def _theta_query(s):
    return (
        s.table("events").theta_join("marks", on="value", op="<")
        .count("n").build()
    )


def test_sharded_results_identical_across_optimizers(session):
    for q in (_scan_query(session), _theta_query(session)):
        a = session.query(q, optimizer="heuristic")
        b = session.query(q, optimizer="cost")
        assert a.scalar("n") == b.scalar("n")
        assert a.timeline.span_tuples() == b.timeline.span_tuples()


def test_plan_records_run_and_prune_decisions(session):
    plan = session.planner.plan(_scan_query(session), optimizer="cost")
    assert plan.pruned  # the narrow window cannot touch every range shard
    shapes = [d for owner, d in plan.decisions if d.kind == "fragment-shape"]
    assert len(shapes) == session.n_shards
    chosen = {d.target: d.chosen for d in shapes}
    for fragment in plan.fragments:
        assert chosen[f"events shard {fragment.shard_index}"] == "run"
    for shard_index in plan.pruned:
        assert chosen[f"events shard {shard_index}"] == "prune"
    # pruned shards show what running would have cost (the avoided scan)
    pruned_decision = next(
        d for d in shapes if d.chosen == "prune"
    )
    run_alt = next(a for a in pruned_decision.alternatives if a.label == "run")
    assert run_alt.est_seconds > 0


def test_describe_renders_decisions(session):
    text = session.explain(_scan_query(session), optimizer="cost")
    assert "optimizer decisions" in text
    assert "[coordinator] fragment-shape" in text
    assert "prune" in text and "run" in text


def test_heuristic_plan_carries_no_decisions(session):
    plan = session.planner.plan(_scan_query(session))
    assert plan.decisions == []
    assert "optimizer decisions" not in plan.describe()


def test_serve_stats_carry_fault_and_breaker_counters(session):
    session.inject_faults(FaultProfile(transient_rate=0.3), seed=5)
    rng = np.random.default_rng(3)
    try:
        with session.serve(max_batch=8, optimizer="cost") as server:
            handles = []
            for _ in range(10):
                lo = int(rng.integers(0, DOMAIN // 2))
                handles.append(
                    session.table("events")
                    .where("value", between=(lo, lo + 60_000))
                    .count("n").submit(server)
                )
            for h in handles:
                h.result()
    finally:
        session.clear_faults()
    stats = server.stats
    assert stats.retries > 0
    assert stats.breaker_states  # mirrored from the executor's breakers
    assert all(state == "closed" for state in stats.breaker_states.values())
    assert stats.quarantined_shards == ()
    assert stats.hedged_fragments == 0


def test_breaker_opens_show_up_in_stats(session):
    session.inject_faults(FaultProfile(crash_shards=frozenset({2})), seed=1)
    try:
        with session.serve(max_batch=4, optimizer="cost") as server:
            handles = [
                session.table("events")
                .where("value", between=(0, DOMAIN - 1))
                .count("n").submit(server)
                for _ in range(6)
            ]
            results = [h.result() for h in handles]
    finally:
        session.clear_faults()
    stats = server.stats
    assert any(r.degraded for r in results)
    assert stats.breaker_open_events >= 1
    assert stats.breaker_states.get(2) == "open"
    assert 2 in stats.quarantined_shards
