"""The serve-side cost gate (PR 8): fuse a scan batch only when the
estimated cooperative pass beats per-member solo scans — with results
byte-identical either way, and the decision on the audit trail."""

import numpy as np
import pytest

import repro.serve.scheduler as scheduler_module
from repro.engine.session import Session
from repro.errors import PlanError
from repro.opt.estimates import estimate_selectivity
from repro.opt.planner import batch_membership_decision
from repro.storage.column import IntType

DOMAIN = 1 << 20
N = 60_000


@pytest.fixture()
def session():
    rng = np.random.default_rng(13)
    s = Session()
    s.create_table("t", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, N)})
    s.bwdecompose("t", "v", 24)
    return s


def _windows(fraction, count=6, seed=2):
    rng = np.random.default_rng(seed)
    width = int(fraction * DOMAIN)
    los = rng.integers(0, DOMAIN - width, count)
    return [(int(lo), int(lo + width)) for lo in los]


def _serve_counts(session, windows, **serve_kwargs):
    with session.serve(max_batch=16, **serve_kwargs) as server:
        handles = [
            session.table("t").where("v", between=w).count("n").submit(server)
            for w in windows
        ]
        results = [h.result() for h in handles]
    return [r.scalar("n") for r in results], server.stats, results


def test_narrow_windows_stay_fused(session):
    counts, stats, _ = _serve_counts(
        session, _windows(0.002), optimizer="cost"
    )
    baseline = [
        session.table("t").where("v", between=w).count("n").run(mode="ar")
        .scalar("n")
        for w in _windows(0.002)
    ]
    assert counts == baseline
    assert stats.cost_gated_batches >= 1
    assert stats.cost_gated_solo == 0
    assert stats.fused_batches >= 1


def test_wide_windows_are_gated_to_solo(session):
    counts, stats, _ = _serve_counts(
        session, _windows(0.65), optimizer="cost"
    )
    baseline = [
        session.table("t").where("v", between=w).count("n").run(mode="ar")
        .scalar("n")
        for w in _windows(0.65)
    ]
    assert counts == baseline
    assert stats.cost_gated_solo >= 1
    assert stats.fused_batches == 0


def test_heuristic_policy_never_gates(session):
    # Explicit since PR 9: serve() now defaults to the cost optimizer.
    _, stats, _ = _serve_counts(session, _windows(0.65), optimizer="heuristic")
    assert stats.cost_gated_batches == 0
    assert stats.cost_gated_solo == 0
    assert stats.fused_batches >= 1  # historical behavior: always fuse


def test_gated_results_identical_to_solo_run(session):
    windows = _windows(0.65)
    counts, _, results = _serve_counts(session, windows, optimizer="cost")
    for w, served in zip(windows, results):
        solo = (
            session.table("t").where("v", between=w).count("n").run(mode="ar")
        )
        np.testing.assert_array_equal(served.columns["n"], solo.columns["n"])
        assert served.timeline.span_tuples() == solo.timeline.span_tuples()


def test_gate_decision_lands_on_audit_trail(session):
    with session.serve(max_batch=16, optimizer="cost") as server:
        for w in _windows(0.65):
            session.table("t").where("v", between=w).count("n").submit(server)
    decisions = list(server.recent_decisions)
    assert decisions
    assert decisions[-1].kind == "batch-membership"
    assert decisions[-1].chosen == "solo"
    assert {a.label for a in decisions[-1].alternatives} == {"fused", "solo"}


def _predicate(session, window):
    query = session.table("t").where("v", between=window).count("n").build()
    return query.where[0]


@pytest.fixture()
def counted_estimates(monkeypatch):
    """Count (and optionally fail) the scheduler's selectivity estimates."""
    calls = []
    failing = set()

    def counted(catalog, table, pred):
        calls.append(pred.vrange)
        if pred.vrange in failing:
            raise PlanError("no estimate")
        return estimate_selectivity(catalog, table, pred)

    monkeypatch.setattr(scheduler_module, "estimate_selectivity", counted)
    return calls, failing


def test_members_are_estimated_once(session, counted_estimates):
    """Admission's estimate is the gate's: one call per member, and the
    recorded decision equals one made fresh from the catalog."""
    calls, _ = counted_estimates
    windows = _windows(0.65)
    with session.serve(max_batch=16, optimizer="cost") as server:
        for w in windows:
            session.table("t").where("v", between=w).count("n").submit(server)
    assert server.stats.cost_gated_batches == 1
    assert len(calls) == len(windows)
    catalog = session.catalog
    n_rows = len(catalog.table("t"))
    fresh = batch_membership_decision("t", "v", n_rows, [
        int(estimate_selectivity(catalog, "t", _predicate(session, w)) * n_rows)
        for w in windows
    ])
    assert server.recent_decisions[-1] == fresh


def test_member_without_estimate_still_fuses(session, counted_estimates):
    """Wide windows gate to solo, unless a member has no estimate."""
    _, failing = counted_estimates
    windows = _windows(0.65)
    failing.add(_predicate(session, windows[0]).vrange)
    counts, stats, results = _serve_counts(session, windows, optimizer="cost")
    assert stats.cost_gated_batches == 0 and stats.cost_gated_solo == 0
    assert stats.fused_batches == 1
    for w, served in zip(windows, results):
        solo = session.table("t").where("v", between=w).count("n").run(mode="ar")
        assert served.scalar("n") == solo.scalar("n")
        assert served.timeline.span_tuples() == solo.timeline.span_tuples()


def test_cost_planning_builds_every_histogram_the_audit_reads():
    """Statistics stay eager while the audit waits.  A histogram build
    decodes the column's view; with the builds deferred too, Q6's probe
    column ``discount`` was not kept resident under ``solo.evict``'s
    8 MiB budget: ``q6_ar`` 3.6 → 6.0 ms, ``lat_p50_ms`` 3.70 → 5.8–5.9 ms,
    ``qps`` −16 to −17 % (two traced runs, seeds 2310–2311)."""
    rng = np.random.default_rng(5)
    s = Session()
    s.create_table(
        "L", {"v": IntType(), "w": IntType(), "x": IntType()},
        {c: rng.integers(0, DOMAIN, 5_000) for c in "vwx"},
    )
    s.create_table("R", {"u": IntType()}, {"u": rng.integers(0, DOMAIN, 50)})
    for table, column in (("L", "v"), ("L", "w"), ("L", "x"), ("R", "u")):
        s.bwdecompose(table, column, 24)
    catalog = s.catalog
    plain = (
        s.table("L").where("v", between=(0, DOMAIN // 2))
        .where("w", between=(0, DOMAIN // 4)).agg("sum", "x", alias="s")
        .build()
    )
    s.query(plain, optimizer="heuristic")
    assert catalog.cached_histogram("L", "v") is None
    s.query(plain, optimizer="cost")
    assert catalog.cached_histogram("L", "v") is not None
    assert catalog.cached_histogram("L", "w") is not None
    assert catalog.cached_histogram("L", "x") is None  # not a predicate
    theta = (
        s.table("L").where("w", between=(0, DOMAIN // 2))
        .theta_join("R", on=("x", "u"), op="<").count("n").build()
    )
    s.query(theta, optimizer="cost")
    assert catalog.cached_histogram("L", "x") is not None
    assert catalog.cached_histogram("R", "u") is not None


def test_serve_rejects_unknown_optimizer(session):
    with pytest.raises(PlanError, match="unknown optimizer"):
        session.serve(optimizer="greedy")
