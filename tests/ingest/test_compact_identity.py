"""Append-then-compact byte-identity: the PR-9 tentpole invariant.

A session that bulk-loads rows and a session that loads a base, appends
the rest through the delta path, and compacts must be indistinguishable:
identical Result columns AND identical modeled Timeline spans, for every
mode and a theta join over a whole column or a selection, under an aggressively evicting view
budget, and on a 4-shard sharded session (whose compaction replays the
bulk-load path — fresh round-robin partition, recorded ``bwdecompose``
replay, code-band repartition over the union).
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.shard import ShardedSession
from repro.storage.decompose import set_view_budget

N = 3_000
D = 400
M = 250
DOMAIN = 40_000


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


def _all_data(seed=9):
    rng = np.random.default_rng(seed)
    fact = {
        "v": rng.integers(0, DOMAIN, N + D).astype(np.int64),
        "w": rng.integers(0, 50, N + D).astype(np.int64),
    }
    right = {"p": rng.integers(0, DOMAIN, M).astype(np.int64)}
    return fact, right


def _split(fact):
    base = {c: fact[c][:N] for c in fact}
    delta = {c: fact[c][N:] for c in fact}
    return base, delta


def make_bulk():
    fact, right = _all_data()
    s = Session()
    s.create_table("fact", {"v": IntType(), "w": IntType()}, fact)
    s.create_table("r", {"p": IntType()}, right)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("r", "p", 24)
    return s


def make_compacted():
    fact, right = _all_data()
    base, delta = _split(fact)
    s = Session()
    s.create_table("fact", {"v": IntType(), "w": IntType()}, base)
    s.create_table("r", {"p": IntType()}, right)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("r", "p", 24)
    # Two appends, so compaction folds a multi-chunk delta.
    half = D // 2
    s.append("fact", {c: delta[c][:half] for c in delta})
    s.append("fact", {c: delta[c][half:] for c in delta})
    assert s.catalog.delta_rows("fact") == D
    assert s.compact("fact") == D
    assert s.catalog.delta_rows("fact") == 0
    return s


def make_sharded_bulk(n_shards=4):
    fact, right = _all_data()
    s = ShardedSession(n_shards)
    s.create_table("fact", {"v": IntType(), "w": IntType()}, fact)
    s.create_table("r", {"p": IntType()}, right, partition=False)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("r", "p", 24)
    return s


def make_sharded_compacted(n_shards=4):
    fact, right = _all_data()
    base, delta = _split(fact)
    s = ShardedSession(n_shards)
    s.create_table("fact", {"v": IntType(), "w": IntType()}, base)
    s.create_table("r", {"p": IntType()}, right, partition=False)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("fact", "w", 24)
    s.bwdecompose("r", "p", 24)
    s.append("fact", delta)
    assert s.compact("fact") == D
    return s


def assert_byte_identical(a, b, msg=""):
    assert a.row_count == b.row_count, msg
    assert a.columns.keys() == b.columns.keys(), msg
    for k in a.columns:
        assert np.array_equal(a.columns[k], b.columns[k]), (msg, k)
    assert a.timeline.span_tuples() == b.timeline.span_tuples(), msg
    assert a.decimal_scales == b.decimal_scales, msg
    if a.approximate is None or b.approximate is None:
        assert a.approximate is b.approximate, msg
    else:
        assert a.approximate.aggregates == b.approximate.aggregates, msg
        assert a.approximate.candidate_rows == b.approximate.candidate_rows, msg


@pytest.fixture(scope="module")
def bulk():
    return make_bulk()


@pytest.fixture(scope="module")
def compacted():
    return make_compacted()


SHAPES = [
    ("count", lambda t: t.where("v", between=(500, 15_000)).count("n")),
    ("sum", lambda t: t.where("v", between=(500, 15_000)).sum("w", "s")),
    ("avg", lambda t: t.where("v", between=(500, 15_000)).avg("w", "a")),
    ("minmax", lambda t: t.where("v", between=(500, 15_000))
        .min("w", "lo").max("w", "hi")),
    ("grouped", lambda t: t.where("v", between=(0, 25_000)).group_by("w")
        .count("n").avg("v", "a")),
    ("select", lambda t: t.where("v", between=(1_000, 5_000)).select("v", "w")),
]


@pytest.mark.parametrize("mode", ["ar", "classic", "approximate"])
@pytest.mark.parametrize("name,build", SHAPES, ids=[s[0] for s in SHAPES])
def test_compacted_equals_bulk(bulk, compacted, mode, name, build):
    a = build(compacted.table("fact")).run(mode=mode)
    b = build(bulk.table("fact")).run(mode=mode)
    assert_byte_identical(a, b, (name, mode))


@pytest.mark.parametrize("mode", ["ar", "classic"])
@pytest.mark.parametrize("where", [False, True], ids=["whole", "where"])
def test_compacted_theta(bulk, compacted, mode, where):
    def q(s):
        b = s.table("fact")
        if where:
            b = b.where("v", between=(0, 6_000))
        return b.band_join("r", on=("v", "p"), delta=32).count("n").run(mode=mode)

    assert_byte_identical(q(compacted), q(bulk), (mode, where))


def test_compacted_identity_under_evicting_view_budget(bulk):
    """The invariant survives segment-granular view eviction: rebuild the
    compacted session with a starved budget in force the whole time."""
    set_view_budget(16_384, segment_rows=512)
    compacted = make_compacted()
    for name, build in SHAPES:
        for mode in ("ar", "classic"):
            a = build(compacted.table("fact")).run(mode=mode)
            b = build(bulk.table("fact")).run(mode=mode)
            assert_byte_identical(a, b, (name, mode, "evicting"))


def test_compaction_restores_storage_identity():
    bulk, compacted = make_bulk(), make_compacted()
    rb = bulk.catalog.table("fact")
    rc = compacted.catalog.table("fact")
    for col in rb.schema.names:
        assert np.array_equal(rb.values(col), rc.values(col))
        db = bulk.catalog.decomposition_of("fact", col)
        dc = compacted.catalog.decomposition_of("fact", col)
        assert db.decomposition == dc.decomposition
        assert np.array_equal(db.approx_codes(), dc.approx_codes())


def test_sharded_compaction_matches_sharded_bulk():
    """4-shard: compaction rebuilds row maps, shard relations, band cuts
    and per-shard decompositions exactly as a bulk load would have."""
    bulk = make_sharded_bulk()
    compacted = make_sharded_compacted()
    assert compacted.shard_rows("fact") == bulk.shard_rows("fact")
    sb, sc = bulk.sharded_catalog, compacted.sharded_catalog
    assert sb.partition_columns == sc.partition_columns
    assert sb.band_cuts == sc.band_cuts
    for mb, mc in zip(sb.row_maps["fact"], sc.row_maps["fact"]):
        assert np.array_equal(mb, mc)
    for name, build in SHAPES:
        if name == "select":
            continue  # sharded execution rejects bare projections
        for mode in ("ar", "classic", "approximate"):
            a = build(compacted.table("fact")).run(mode=mode)
            b = build(bulk.table("fact")).run(mode=mode)
            assert_byte_identical(a, b, (name, mode, "sharded"))


def test_sharded_compaction_under_evicting_view_budget():
    bulk = make_sharded_bulk()
    bulk.set_view_budget(8_192, segment_rows=512)
    try:
        compacted = make_sharded_compacted()
        q = lambda s: (
            s.table("fact").where("v", between=(500, 15_000))
            .count("n").sum("w", "s").run(mode="ar")
        )
        assert_byte_identical(q(compacted), q(bulk), "sharded evicting")
    finally:
        set_view_budget(None)


def test_compact_all_tables_at_once():
    """session.compact() with no table folds every pending delta."""
    fact, right = _all_data()
    base, delta = _split(fact)
    s = Session()
    s.create_table("fact", {"v": IntType(), "w": IntType()}, base)
    s.create_table("r", {"p": IntType()}, right)
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("r", "p", 24)
    s.append("fact", delta)
    s.append("r", {"p": np.array([1, 2, 3], dtype=np.int64)})
    epoch = s.catalog.epoch
    assert s.compact() == D + 3
    assert s.catalog.tables_with_delta() == []
    assert s.catalog.epoch > epoch
