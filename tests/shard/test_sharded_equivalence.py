"""Sharded-vs-single-device equivalence: PR 6's charge-neutrality pin.

A query run against a :class:`ShardedSession` must merge to a Result
byte-identical to the same query on a single-device :class:`Session`
over the same rows — for every mode, theta joins over a whole column and
under a selection, every shard count, both partitionings (pre- and post-repartition), and under an
evicting per-shard view budget.  Sharding buys wall clock (max-over-
shards + merge < the single device's sum), never different bytes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IntType, Session
from repro.errors import ExecutionError, PlanError
from repro.shard import ShardedSession
from repro.storage.decompose import set_view_budget

N = 6_000
M = 400
DOMAIN = 60_000


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


def _data(seed=3):
    rng = np.random.default_rng(seed)
    return (
        {
            "v": rng.integers(0, DOMAIN, N).astype(np.int64),
            "w": rng.integers(0, 40, N).astype(np.int64),
        },
        {"p": rng.integers(0, DOMAIN, M).astype(np.int64)},
    )


def make_single():
    fact, dim = _data()
    s = Session()
    s.create_table("fact", {"v": IntType(), "w": IntType()}, fact)
    s.create_table("dim", {"p": IntType()}, dim)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("dim", "p", 24)
    return s


def make_sharded(n_shards, decompose=True):
    fact, dim = _data()
    s = ShardedSession(n_shards)
    s.create_table("fact", {"v": IntType(), "w": IntType()}, fact)
    s.create_table("dim", {"p": IntType()}, dim, partition=False)
    if decompose:
        s.bwdecompose("fact", "v", 24)
        s.bwdecompose("fact", "w", 24)
        s.bwdecompose("dim", "p", 24)
    return s


@pytest.fixture(scope="module")
def single():
    return make_single()


@pytest.fixture(scope="module", params=[1, 2, 3, 4])
def sharded(request):
    return make_sharded(request.param)


def assert_results_equal(a, b, msg=""):
    assert a.row_count == b.row_count, msg
    assert a.columns.keys() == b.columns.keys(), msg
    for k in a.columns:
        assert np.array_equal(a.columns[k], b.columns[k]), (msg, k)


def scan_builder(s, lo, hi, grouped=False):
    b = (
        s.table("fact")
        .where("v", between=(lo, hi))
        .agg("sum", "v", alias="s")
        .agg("min", "v", alias="lo")
        .agg("max", "v", alias="hi")
        .agg("avg", "v", alias="a")
        .count(alias="n")
    )
    return b.group_by("w") if grouped else b


@pytest.mark.parametrize("mode", ["ar", "classic"])
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize(
    "window", [(0, DOMAIN), (10_000, 25_000), (55_000, 59_000)]
)
def test_scan_aggregates_identical(single, sharded, mode, grouped, window):
    solo = scan_builder(single, *window, grouped=grouped).run(mode=mode)
    merged = scan_builder(sharded, *window, grouped=grouped).run(mode=mode)
    assert_results_equal(solo, merged, f"{mode} {grouped} {window}")


@pytest.mark.parametrize("mode", ["ar", "classic"])
@pytest.mark.parametrize("op,delta", [("<", 0), (">=", 0), ("=", 0), ("within", 40)])
@pytest.mark.parametrize("where", [False, True], ids=["whole", "where"])
def test_theta_aggregates_identical(single, sharded, mode, op, delta, where):
    def build(s):
        b = s.table("fact")
        if where:
            b = b.where("v", between=(0, 20_000))
        return (
            b.theta_join("dim", on=("v", "p"), op=op, delta=delta)
            .agg("sum", "v", alias="s")
            .agg("sum", "dim.p", alias="rp")
            .agg("min", "dim.p", alias="rlo")
            .count(alias="n")
        )

    solo = build(single).run(mode=mode)
    merged = build(sharded).run(mode=mode)
    assert_results_equal(solo, merged, (mode, op, where))


@pytest.mark.parametrize("mode", ["ar", "classic"])
def test_theta_pairs_identical(single, sharded, mode):
    def build(s):
        return (
            s.table("fact")
            .where("v", between=(28_000, 32_000))
            .theta_join("dim", on=("v", "p"), op="within", delta=40)
        )

    solo = build(single).run(mode=mode)
    merged = build(sharded).run(mode=mode)
    assert_results_equal(solo, merged, mode)


def test_grouped_theta_identical(single, sharded):
    def build(s):
        return (
            s.table("fact")
            .where("v", between=(0, 15_000))
            .theta_join("dim", on=("v", "p"), op="<")
            .group_by("w")
            .agg("sum", "v", alias="s")
            .agg("avg", "dim.p", alias="ra")
            .count(alias="n")
        )

    assert_results_equal(build(single).run(mode="ar"),
                         build(sharded).run(mode="ar"))


def test_round_robin_partition_identical(single):
    """Identity holds before any repartition (no decomposed columns)."""
    sh = make_sharded(3, decompose=False)
    solo = (
        single.table("fact").where("v", between=(5_000, 9_000))
        .count(alias="n").run(mode="classic")
    )
    merged = (
        sh.table("fact").where("v", between=(5_000, 9_000))
        .count(alias="n").run(mode="classic")
    )
    assert_results_equal(solo, merged)


def test_approximate_count_interval_identical(single, sharded):
    def build(s):
        return (
            s.table("fact").where("v", between=(10_000, 30_000))
            .count(alias="n")
        )

    solo = build(single).run(mode="approximate")
    merged = build(sharded).run(mode="approximate")
    bs = solo.approximate.aggregates["n"]
    bm = merged.approximate.aggregates["n"]
    assert (bs.lo, bs.hi) == (bm.lo, bm.hi)
    assert solo.approximate.candidate_rows == merged.approximate.candidate_rows


@pytest.mark.parametrize("mode", ["ar", "classic"])
@pytest.mark.parametrize("func", ["min", "max", "avg"])
def test_empty_result_error_parity(single, sharded, mode, func):
    def build(s):
        return (
            s.table("fact").where("v", between=(DOMAIN + 10, DOMAIN + 20))
            .agg(func, "v", alias="x")
        )

    with pytest.raises(ExecutionError) as solo_exc:
        build(single).run(mode=mode)
    with pytest.raises(ExecutionError) as merged_exc:
        build(sharded).run(mode=mode)
    assert str(solo_exc.value) == str(merged_exc.value)


def test_identity_under_evicting_per_shard_view_budget(single):
    sh = make_sharded(4)
    sh.set_view_budget(16 * 1024, segment_rows=1024)  # aggressively evicting
    for window in [(0, 20_000), (30_000, 34_000)]:
        solo = scan_builder(single, *window, grouped=True).run(mode="ar")
        merged = scan_builder(sh, *window, grouped=True).run(mode="ar")
        assert_results_equal(solo, merged, window)
    solo = (
        single.table("fact").where("v", between=(0, 9_000))
        .theta_join("dim", on=("v", "p"), op="<").count(alias="n")
        .run(mode="ar")
    )
    merged = (
        sh.table("fact").where("v", between=(0, 9_000))
        .theta_join("dim", on=("v", "p"), op="<").count(alias="n")
        .run(mode="ar")
    )
    assert_results_equal(solo, merged)


def test_pruning_skips_shards_and_preserves_bytes(single):
    sh = make_sharded(4)
    window = (55_000, 58_000)  # top code band only
    merged = (
        sh.table("fact").where("v", between=window).count(alias="n")
        .run(mode="ar")
    )
    assert len(merged.pruned_shards) >= 2
    solo = (
        single.table("fact").where("v", between=window).count(alias="n")
        .run(mode="ar")
    )
    assert_results_equal(solo, merged)


def test_wall_clock_is_max_over_shards_plus_merge():
    """The acceptance pin: N=4 modeled wall clock strictly below the
    single-device run for a whole-table selection scan, with the merged
    Result byte-identical."""
    single = make_single()
    sh = make_sharded(4)
    window = (0, DOMAIN)  # every shard contributes: the worst case
    solo = scan_builder(single, *window).run(mode="ar")
    merged = scan_builder(sh, *window).run(mode="ar")
    assert_results_equal(solo, merged)
    assert len(merged.fragment_seconds) == 4
    assert merged.wall_clock_seconds == pytest.approx(
        max(merged.fragment_seconds) + merged.merge_seconds
    )
    # Concurrent fragments beat the one-device sum (merge included).
    assert merged.wall_clock_seconds < solo.timeline.total_seconds()
    # ... but the total modeled work is what one device would pay, plus
    # the explicit merge: no work disappears, it overlaps.
    assert merged.timeline.total_seconds() >= solo.timeline.total_seconds()


def test_sharded_result_timeline_composition(sharded):
    r = scan_builder(sharded, 0, 30_000).run(mode="ar")
    assert r.timeline.total_seconds() == pytest.approx(
        sum(r.fragment_seconds) + r.merge_seconds
    )


def test_scope_errors():
    sh = make_sharded(2)
    with pytest.raises(PlanError, match="replicated"):
        sh.table("dim").theta_join(
            "dim", on=("p", "p"), op="<"
        ).count(alias="n").run()
    with pytest.raises(PlanError):
        sh.table("fact").select("v").run()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lo=st.integers(min_value=0, max_value=DOMAIN - 1),
    width=st.integers(min_value=0, max_value=DOMAIN),
    n_shards=st.sampled_from([2, 4]),
    mode=st.sampled_from(["ar", "classic"]),
)
def test_random_windows_identical(single, lo, width, n_shards, mode):
    sh = _sharded_cache.setdefault(n_shards, make_sharded(n_shards))
    window = (lo, min(lo + width, DOMAIN))
    solo = scan_builder(single, *window, grouped=True).run(mode=mode)
    merged = scan_builder(sh, *window, grouped=True).run(mode=mode)
    assert_results_equal(solo, merged, (window, n_shards, mode))


_sharded_cache: dict[int, ShardedSession] = {}
