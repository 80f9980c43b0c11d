"""Placement-aware scheduler: batch path ≡ sharded solo path, byte for byte.

The per-shard fused cooperative pass must leave every query's merged
Result, per-query Timeline spans and modeled wall clock identical to the
sharded solo run — batching stays a pure wall-clock optimization one
layer up (PR 5's invariant lifted over the shards).
"""

import numpy as np
import pytest

from repro import IntType
from repro.shard import ShardedSession

N = 8_000
DOMAIN = 50_000


def make_sharded(n_shards=4, seed=13):
    rng = np.random.default_rng(seed)
    s = ShardedSession(n_shards)
    s.create_table(
        "events", {"value": IntType()},
        {"value": rng.integers(0, DOMAIN, N).astype(np.int64)},
    )
    s.bwdecompose("events", "value", 24)
    return s


@pytest.fixture(scope="module")
def session():
    return make_sharded()


WINDOWS = [(i * 5_000, i * 5_000 + 8_000) for i in range(8)]


def builder(session, window):
    return (
        session.table("events")
        .where("value", between=window)
        .agg("sum", "value", alias="s")
        .count(alias="n")
    )


def test_batched_equals_sharded_solo(session):
    solo = [builder(session, w).run(mode="ar") for w in WINDOWS]
    with session.serve(max_batch=8) as server:
        handles = [builder(session, w).submit(server) for w in WINDOWS]
        batched = [h.result() for h in handles]
    for s, b in zip(solo, batched):
        assert s.columns.keys() == b.columns.keys()
        for k in s.columns:
            assert np.array_equal(s.columns[k], b.columns[k])
        assert s.timeline.span_tuples() == b.timeline.span_tuples()
        assert s.wall_clock_seconds == b.wall_clock_seconds
        assert s.pruned_shards == b.pruned_shards


def test_fused_stats_and_sharing_gain(session):
    with session.serve(max_batch=8) as server:
        for w in WINDOWS:
            builder(session, w).submit(server)
        server.drain()
        stats = server.stats
    assert stats.batches >= 1
    assert stats.fused_batches >= 1
    assert stats.fused_queries >= 2
    assert stats.modeled_fused_scan_seconds > 0.0
    assert stats.modeled_scan_sharing_gain > 1.0


def test_batch_width_one_degrades_to_solo(session):
    with session.serve(max_batch=1) as server:
        handles = [builder(session, w).submit(server) for w in WINDOWS[:4]]
        results = [h.result() for h in handles]
    solo = [builder(session, w).run(mode="ar") for w in WINDOWS[:4]]
    for s, b in zip(solo, results):
        for k in s.columns:
            assert np.array_equal(s.columns[k], b.columns[k])
        assert s.timeline.span_tuples() == b.timeline.span_tuples()


def test_classic_mode_routes_solo(session):
    with session.serve(max_batch=8) as server:
        handles = [
            builder(session, w).submit(server, mode="classic")
            for w in WINDOWS[:4]
        ]
        batched = [h.result() for h in handles]
    solo = [builder(session, w).run(mode="classic") for w in WINDOWS[:4]]
    for s, b in zip(solo, batched):
        for k in s.columns:
            assert np.array_equal(s.columns[k], b.columns[k])


def test_admission_budget_is_min_shard_headroom(session):
    server = session.serve()
    budget = server._min_shard_headroom()
    headrooms = [
        shard.machine.gpu.pool.headroom(1.0)
        for shard in session.sharded_catalog.shards
    ]
    bounded = [h for h in headrooms if h is not None]
    assert budget == (min(bounded) if bounded else None)
    server.close()


def test_scratch_estimate_scales_to_largest_shard(session):
    server = session.serve()
    query = builder(session, WINDOWS[0]).build()
    total_rows = sum(session.shard_rows("events"))
    biggest = max(session.shard_rows("events"))
    solo_estimate, solo_hits = super(
        type(server), server
    )._estimate_scratch(query, "ar")
    sharded_estimate, hits = server._estimate_scratch(query, "ar")
    assert sharded_estimate == int(solo_estimate * biggest / total_rows)
    assert hits == solo_hits  # the gate prices the whole table
    server.close()


def test_fused_batch_sees_pending_delta_and_watermark_compacts():
    """Regression: a sharded fused batch answered from the base alone
    (201–203 where base + delta held 701–703) and never compacted."""
    from repro.shard.scheduler import AdmissionPolicy, ShardScheduler

    session = make_sharded(seed=17)
    windows = [(1_000, 1_400), (1_000, 1_500), (1_100, 1_600), (900, 1_450)]
    session.append(
        "events", {"value": np.arange(1_000, 1_500, dtype=np.int64)}
    )

    def count(window):
        return session.table("events").where("value", between=window).count("n")

    solo = [count(w).run(mode="ar") for w in windows]
    base = session.catalog.table("events").values("value")
    in_base = [int(((base >= lo) & (base <= hi)).sum()) for lo, hi in windows]
    assert all(
        s.scalar("n") > b + 300 for s, b in zip(solo, in_base)
    ), "the delta must matter to every window"

    server = ShardScheduler(session, AdmissionPolicy(max_batch=4, delta_watermark=600))
    handles = [count(w).submit(server) for w in windows]
    server.drain()
    for s, h in zip(solo, handles):
        got = h.result()
        assert np.array_equal(got.columns["n"], s.columns["n"])
        assert got.timeline.span_tuples() == s.timeline.span_tuples()
    assert server.stats.compactions == 0, "500 rows are under the watermark"

    # Crossing the watermark compacts after the next batch, sharded.
    epoch = session.catalog.epoch
    server.submit_write("events", {"value": np.arange(100, dtype=np.int64)})
    after = [count(w).submit(server) for w in windows]
    server.drain()
    assert server.stats.compactions == 1
    assert session.catalog.delta_rows("events") == 0
    assert session.catalog.epoch == epoch + 1
    assert sum(session.shard_rows("events")) == N + 600
    for s, h in zip(solo, after):
        assert np.array_equal(h.result().columns["n"], s.columns["n"])
    # With the delta folded in, the same windows fuse again.
    fused_before = server.stats.fused_queries
    again = [count(w).submit(server) for w in windows]
    server.drain()
    assert server.stats.fused_queries == fused_before + 4
    for s, h in zip(solo, again):
        assert np.array_equal(h.result().columns["n"], s.columns["n"])


# ----------------------------------------------------------------------
# Windows straddling a band edge (PR 18)
# ----------------------------------------------------------------------
def band_edge(session, k=1):
    """The first value of shard ``k + 1``'s code band."""
    dec = session.catalog.decomposition_of("events", "value").decomposition
    cut = session.sharded_catalog.band_cuts["events"][k]
    return dec.base + (cut + 1) * dec.bucket


def assert_same_answer(solo, got):
    assert solo.columns.keys() == got.columns.keys()
    for k in solo.columns:
        assert np.array_equal(solo.columns[k], got.columns[k])
    assert solo.approximate == got.approximate
    assert solo.timeline.span_tuples() == got.timeline.span_tuples()
    assert solo.wall_clock_seconds == got.wall_clock_seconds


def test_a_fragment_alone_on_its_shard_is_carved_too(session, monkeypatch):
    """The neighbour-shard half of a straddling window shares its shard's
    pass with nobody; it is carved beside the resident view all the same,
    and only the shard two members meet on counts as a fused pass."""
    edge = band_edge(session)
    straddling, inside = (edge - 9_500, edge + 500), (edge - 8_000, edge - 2_000)
    solo = [builder(session, w).run(mode="ar") for w in (straddling, inside)]
    assert [len(r.fragment_seconds) for r in solo] == [2, 1]

    injected = []
    execute = session.executor.execute

    def spy(plan, *, scan_hits=None):
        injected.append({shard: len(hits) for shard, hits in (scan_hits or {}).items()})
        return execute(plan, scan_hits=scan_hits)

    monkeypatch.setattr(session.executor, "execute", spy)
    with session.serve(max_batch=8) as server:
        handles = [builder(session, w).submit(server) for w in (straddling, inside)]
        got = [h.result() for h in handles]
        stats = server.stats
    assert injected == [{1: 1, 2: 1}, {1: 1}], "both fragments get scan_hits"
    for s, g in zip(solo, got):
        assert_same_answer(s, g)
    assert (stats.fused_batches, stats.fused_queries) == (1, 2)
    shared_only = stats.modeled_fused_scan_seconds

    # Two windows that meet on no shard: carved, and no pass is shared.
    apart = [(edge - 6_000, edge - 1_000), (edge + 1_000, edge + 6_000)]
    solo = [builder(session, w).run(mode="ar") for w in apart]
    del injected[:]
    with session.serve(max_batch=8) as server:
        handles = [builder(session, w).submit(server) for w in apart]
        got = [h.result() for h in handles]
        stats = server.stats
    assert injected == [{1: 1}, {2: 1}]
    for s, g in zip(solo, got):
        assert_same_answer(s, g)
    assert (stats.fused_batches, stats.fused_queries) == (0, 0)
    assert stats.modeled_fused_scan_seconds == 0.0 < shared_only


def test_a_healthy_shard_is_never_hedged():
    """No injector, no transient slowness: every attempt on a shard replays
    the same modeled timeline, so a hedge can never win — a window a band
    edge cuts 95/5 is uneven work, not a straggler (it was re-executed, its
    spans billed to the recovery ledger, on 21 of 1 024 ``shard.s4``
    queries)."""
    rng = np.random.default_rng(19)
    big = ShardedSession(4)
    big.create_table(
        "events", {"value": IntType()},
        {"value": rng.integers(0, DOMAIN, 40_000).astype(np.int64)},
    )
    big.bwdecompose("events", "value", 24)
    assert big.executor.injector is None and big.executor.retry_policy.hedge
    edge = band_edge(big)
    for window, uneven in (
        ((edge - 9_500, edge + 500), True), ((edge - 3_000, edge + 3_000), False),
    ):
        result = builder(big, window).run(mode="ar")
        slow, fast = sorted(result.fragment_seconds, reverse=True)
        assert (slow > 3 * fast) == uneven, "the 95/5 cut must look like a straggler"
        assert result.hedged_shards == []
        assert len(result.recovery_timeline) == 0
        assert result.retries == 0


# ----------------------------------------------------------------------
# Fused ≡ solo with delta in flight (PR 19): the parent's loop, not a copy
# ----------------------------------------------------------------------
def make_keyed(seed=23):
    rng = np.random.default_rng(seed)
    s = ShardedSession(4)
    s.create_table(
        "events", {"value": IntType(), "bucket": IntType()},
        {"value": rng.integers(0, DOMAIN, N).astype(np.int64),
         "bucket": rng.integers(0, 5, N).astype(np.int64)},
    )
    s.bwdecompose("events", "value", 24)
    s.bwdecompose("events", "bucket", 32)
    s.append("events", {
        "value": rng.integers(0, DOMAIN, 700).astype(np.int64),
        "bucket": rng.integers(0, 7, 700).astype(np.int64),  # two new groups
    })
    return s


def member(session, i, shapes):
    window = (i * 1_500, i * 1_500 + 26_000)  # wide: every shard is shared
    block = session.table("events").where("value", between=window)
    return shapes[i % len(shapes)](block).build()


FOLDABLE = [
    lambda b: b.count("n"),
    lambda b: b.sum("value", "s").count("n"),
    lambda b: b.group_by("bucket").count("n").sum("value", "s"),
]
SOLO_ONLY = [
    lambda b: b.avg("value", "a").count("n"),
    lambda b: b.min("value", "lo").max("value", "hi"),
    lambda b: b.group_by("bucket").avg("value", "a").min("value", "lo"),
]


def assert_same_sharded_result(solo, got):
    assert_same_answer(solo, got)
    assert solo.row_count == got.row_count
    assert solo.merge_seconds == got.merge_seconds
    assert solo.fragment_seconds == got.fragment_seconds
    assert solo.pruned_shards == got.pruned_shards


@pytest.mark.parametrize("mode", ["ar", "approximate"])
def test_a_fused_batch_over_pending_delta_comes_out_fused(mode):
    """The direction-C side-condition: 16 windowed members over 4 shards
    with delta in flight fuse — every one of them — and each equals the
    sharded session's own delta-union run, ledger and wall clock included."""
    session = make_keyed()
    queries = [member(session, i, FOLDABLE) for i in range(16)]
    solo = [session.query(q, mode=mode, optimizer="heuristic") for q in queries]
    with session.serve(max_batch=16) as server:
        handles = server.submit_many(queries, mode=mode)
        got = [h.result() for h in handles]
        stats = server.stats
    assert (stats.batches, stats.fused_queries) == (1, 16)
    assert session.catalog.delta_rows("events") == 700, "nothing compacted"
    for s, g in zip(solo, got):
        assert_same_sharded_result(s, g)
        assert any(t[5] == "ingest.delta" for t in g.timeline.span_tuples())
    if mode == "ar":  # and the delta mattered: a base-only answer differs
        base = session.catalog.table("events").values("value")
        lo, hi = 0, 26_000
        assert got[0].scalar("n") > int(((base >= lo) & (base <= hi)).sum())


def test_exact_avg_min_max_members_are_still_peeled_and_still_equal():
    """``needs_solo_delta``: finals of ``avg`` do not merge and an empty base
    slice of a ``min`` would raise, so those members leave the batch for the
    solo delta-union run; their batch mates still fuse."""
    session = make_keyed()
    queries = [member(session, i, SOLO_ONLY + FOLDABLE) for i in range(12)]
    solo = [session.query(q, mode="ar", optimizer="heuristic") for q in queries]
    with session.serve(max_batch=16) as server:
        handles = server.submit_many(queries, mode="ar")
        got = [h.result() for h in handles]
        stats = server.stats
    assert (stats.batches, stats.fused_queries) == (1, 6)
    for s, g in zip(solo, got):
        assert_same_sharded_result(s, g)
