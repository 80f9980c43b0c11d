"""Transient faults must be invisible in the bytes: retried == fault-free.

The PR-7 acceptance pin: under transient-only faults (flaky-first-K with
K < max_attempts, seeded transient dispatch failures that retries absorb),
every query completes and its Result AND per-query Timeline are
byte-identical to the fault-free run — recovery is billed on the separate
recovery ledger, never on the clean one.  Property-tested across mode and
under an evicting per-shard view budget.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import IntType
from repro.errors import DeviceFailure
from repro.faults import FaultProfile, RetryPolicy
from repro.shard import ShardedSession
from repro.storage.decompose import set_view_budget

N = 4_000
M = 300
DOMAIN = 40_000
N_SHARDS = 4


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


def make_sharded():
    rng = np.random.default_rng(5)
    s = ShardedSession(N_SHARDS)
    s.create_table(
        "fact",
        {"v": IntType(), "w": IntType()},
        {
            "v": rng.integers(0, DOMAIN, N).astype(np.int64),
            "w": rng.integers(0, 30, N).astype(np.int64),
        },
    )
    s.create_table(
        "dim", {"p": IntType()},
        {"p": rng.integers(0, DOMAIN, M).astype(np.int64)},
        partition=False,
    )
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("dim", "p", 24)
    return s


@pytest.fixture(scope="module")
def healthy():
    return make_sharded()


@pytest.fixture(scope="module")
def flaky2():
    s = make_sharded()
    s.inject_faults(FaultProfile(flaky_first_k=2), seed=0)
    return s


def assert_identical(clean, faulty, msg=""):
    assert faulty.row_count == clean.row_count, msg
    assert faulty.columns.keys() == clean.columns.keys(), msg
    for k in clean.columns:
        assert np.array_equal(faulty.columns[k], clean.columns[k]), (msg, k)
    assert (
        faulty.timeline.span_tuples() == clean.timeline.span_tuples()
    ), msg


def scan_builder(s, lo, hi, grouped):
    b = (
        s.table("fact")
        .where("v", between=(lo, hi))
        .agg("sum", "v", alias="s")
        .count(alias="n")
    )
    return b.group_by("w") if grouped else b


class TestFlakyFirstTwoAcceptance:
    """The seeded flaky-first-2 profile of the acceptance criterion."""

    @pytest.mark.parametrize("mode", ["ar", "classic", "approximate"])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_scan_result_and_ledger_identical(self, healthy, flaky2, mode, grouped):
        clean = scan_builder(healthy, 2_000, 30_000, grouped).run(mode=mode)
        faulty = scan_builder(flaky2, 2_000, 30_000, grouped).run(mode=mode)
        assert_identical(clean, faulty, f"{mode} grouped={grouped}")
        assert not faulty.degraded
        assert faulty.shard_coverage == 1.0
        assert faulty.dead_shards == []

    def test_retries_visibly_billed_on_combined_timeline(self, flaky2):
        faulty = scan_builder(flaky2, 0, DOMAIN, False).run()
        assert faulty.retries > 0
        assert faulty.recovery_seconds > 0.0
        backoffs = [
            sp for sp in faulty.combined_timeline().spans
            if sp.op.startswith("fault.retry.backoff")
        ]
        assert len(backoffs) == faulty.retries
        assert all(sp.phase == "recover" for sp in backoffs)
        # The clean ledger carries none of them.
        assert not any(
            sp.op.startswith("fault.retry.backoff")
            for sp in faulty.timeline.spans
        )
        # Recovery makes the modeled completion slower, never faster.
        assert faulty.wall_clock_seconds >= max(faulty.fragment_seconds)

    @pytest.mark.parametrize("mode", ["ar", "classic"])
    @pytest.mark.parametrize("where", [False, True], ids=["whole", "where"])
    def test_theta_identical(self, healthy, flaky2, mode, where):
        def build(s):
            b = s.table("fact")
            if where:
                b = b.where("v", between=(0, 15_000))
            return (
                b.theta_join("dim", on=("v", "p"), op="within", delta=40)
                .count(alias="n")
            )

        clean = build(healthy).run(mode=mode)
        faulty = build(flaky2).run(mode=mode)
        assert_identical(clean, faulty, (mode, where))


class TestTransientIdentityProperty:
    """Seeded random transient faults: whatever retries absorb is invisible."""

    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        lo=st.integers(0, DOMAIN - 2_000),
        width=st.integers(500, 20_000),
        mode=st.sampled_from(["ar", "classic", "approximate"]),
        grouped=st.booleans(),
        fault_seed=st.integers(0, 10_000),
    )
    # A narrow window prunes three shards and all four attempts fail on the
    # fourth: no survivor, so the query raises instead of degrading.
    @example(lo=0, width=500, mode="ar", grouped=False, fault_seed=743)
    def test_scan_identity_under_transient_rate(
        self, lo, width, mode, grouped, fault_seed
    ):
        healthy = make_sharded()
        faulty_session = make_sharded()
        # Rate low enough that 4 attempts nearly always recover; the
        # generous deadline keeps backoff from tripping it early.
        faulty_session.inject_faults(
            FaultProfile(transient_rate=0.25), seed=fault_seed
        )
        hi = min(lo + width, DOMAIN)
        clean = scan_builder(healthy, lo, hi, grouped).run(mode=mode)
        try:
            faulty = scan_builder(faulty_session, lo, hi, grouped).run(mode=mode)
        except DeviceFailure as exc:
            # The executor's contract — no survivor ⇒ raise, not degrade:
            # all 4 attempts failed on every shard the window did not prune.
            assert not exc.transient
            assert "no surviving fragment to degrade to" in str(exc)
            return
        if faulty.degraded:  # all 4 attempts failed somewhere: not this pin
            return
        assert_identical(clean, faulty, f"{mode} [{lo},{hi}] seed={fault_seed}")

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        budget_kb=st.sampled_from([2, 8, 32]),
        fault_seed=st.integers(0, 1_000),
    )
    def test_identity_survives_evicting_view_budget(self, budget_kb, fault_seed):
        def build(s):
            return (
                s.table("fact")
                .where("v", between=(0, 12_000))
                .theta_join("dim", on=("v", "p"), op="within", delta=32)
                .count(alias="n")
            )

        try:
            healthy = make_sharded()
            healthy.set_view_budget(budget_kb * 1024, segment_rows=512)
            clean = build(healthy).run()
            faulty_session = make_sharded()
            faulty_session.set_view_budget(budget_kb * 1024, segment_rows=512)
            faulty_session.inject_faults(
                FaultProfile(flaky_first_k=2), seed=fault_seed
            )
            faulty = build(faulty_session).run()
        finally:
            set_view_budget(None)
        assert_identical(clean, faulty, f"budget={budget_kb}k")
        assert faulty.retries > 0
