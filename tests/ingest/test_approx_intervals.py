"""Approximate answers stay *sound* while delta rows are in flight.

The approximate phase runs over the packed base only; delta rows are
evaluated exactly and folded into the base interval (count/sum translate
by the exact delta total, min/max clamp both ends, avg takes the hull
with the exact delta mean).  The resulting interval must still contain
the exact base+delta answer — checked against a bulk twin — and
``candidate_rows`` must grow by exactly the number of qualifying delta
rows.  Grouped intervals have no sound composition and must degrade to
``None`` rather than report a wrong bound.
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.core.intervals import Interval

N = 5_000
D = 400
DOMAIN = 60_000
WINDOW = (2_000, 25_000)


def _fact(seed, n):
    rng = np.random.default_rng(seed)
    return {
        "v": rng.integers(0, DOMAIN, n).astype(np.int64),
        "w": rng.integers(1, 30, n).astype(np.int64),
    }


BASE = _fact(3, N)
DELTA = _fact(4, D)


def make_streamed():
    s = Session()
    s.create_table("t", {"v": IntType(), "w": IntType()}, BASE)
    s.bwdecompose("t", "v", 24)
    s.bwdecompose("t", "w", 24)
    s.append("t", DELTA)
    return s


def make_bulk():
    s = Session()
    s.create_table(
        "t", {"v": IntType(), "w": IntType()},
        {c: np.concatenate([BASE[c], DELTA[c]]) for c in BASE},
    )
    s.bwdecompose("t", "v", 24)
    s.bwdecompose("t", "w", 24)
    return s


def make_base_only(make=Session):
    s = make()
    s.create_table("t", {"v": IntType(), "w": IntType()}, BASE)
    s.bwdecompose("t", "v", 24)
    s.bwdecompose("t", "w", 24)
    return s


@pytest.fixture(scope="module")
def streamed():
    return make_streamed()


@pytest.fixture(scope="module")
def bulk():
    return make_bulk()


AGGS = [
    ("count", lambda t: t.count("x")),
    ("sum", lambda t: t.sum("w", "x")),
    ("min", lambda t: t.min("w", "x")),
    ("max", lambda t: t.max("w", "x")),
    ("avg", lambda t: t.avg("w", "x")),
]


@pytest.mark.parametrize("name,agg", AGGS, ids=[a[0] for a in AGGS])
def test_interval_contains_exact_union_answer(streamed, bulk, name, agg):
    approx = agg(
        streamed.table("t").where("v", between=WINDOW)
    ).run(mode="approximate")
    exact = agg(
        bulk.table("t").where("v", between=WINDOW)
    ).run(mode="classic")
    iv = approx.approximate.aggregates["x"]
    assert isinstance(iv, Interval), name
    truth = float(exact.columns["x"][0])
    assert iv.lo <= truth <= iv.hi, (name, iv, truth)


def test_candidate_rows_grow_by_qualifying_delta_rows(streamed):
    approx = (
        streamed.table("t").where("v", between=WINDOW).count("x")
        .run(mode="approximate")
    )
    base_approx = (
        make_base_only().table("t").where("v", between=WINDOW).count("x")
        .run(mode="approximate")
    )
    matched = int(
        ((DELTA["v"] >= WINDOW[0]) & (DELTA["v"] <= WINDOW[1])).sum()
    )
    assert matched > 0, "test window must hit delta rows"
    assert (
        approx.approximate.candidate_rows
        == base_approx.approximate.candidate_rows + matched
    )


def test_grouped_intervals_degrade_to_none(streamed):
    """Delta rows may add or move groups; per-group bounds would be
    unsound, so they are withheld instead of fabricated."""
    r = (
        streamed.table("t").where("v", between=WINDOW).group_by("w")
        .count("n").sum("v", "s").run(mode="approximate")
    )
    assert r.approximate.aggregates == {"n": None, "s": None}
    assert r.approximate.n_groups is None


def test_unmatched_delta_leaves_base_answer_untouched():
    """Delta rows outside the window contribute nothing: the answer is
    bit-for-bit the base session's approximate answer."""
    s = make_base_only()
    s.append("t", {"v": np.array([DOMAIN + 10_000]), "w": np.array([1])})
    window = (100, 900)
    with_delta = (
        s.table("t").where("v", between=window).sum("w", "x")
        .run(mode="approximate")
    )
    base = (
        make_base_only().table("t").where("v", between=window).sum("w", "x")
        .run(mode="approximate")
    )
    assert (
        with_delta.approximate.aggregates == base.approximate.aggregates
    )
    assert (
        with_delta.approximate.candidate_rows
        == base.approximate.candidate_rows
    )


def test_delta_only_window_still_bounds_truth():
    """A window only delta rows hit: the folded interval must cover the
    exact delta answer even though the base contributes nothing."""
    s = make_base_only()
    s.append(
        "t",
        {
            "v": np.full(8, DOMAIN + 500, dtype=np.int64),
            "w": np.arange(10, 18, dtype=np.int64),
        },
    )
    window = (DOMAIN + 100, DOMAIN + 900)
    r = (
        s.table("t").where("v", between=window).count("x")
        .run(mode="approximate")
    )
    iv = r.approximate.aggregates["x"]
    if iv is not None:
        assert iv.lo <= 8 <= iv.hi
    assert r.approximate.candidate_rows >= 8


# ----------------------------------------------------------------------
# The merged answer is keyed by the query's aliases (PR 19)
# ----------------------------------------------------------------------
def _four_shards():
    from repro.shard import ShardedSession

    return ShardedSession(4)


def _served(session, query, mode):
    with session.serve() as server:
        return server.submit(query, mode=mode).result()


@pytest.mark.parametrize("make", [Session, _four_shards],
                         ids=["Session", "ShardedSession(4)"])
@pytest.mark.parametrize("matched", [0, 3])
def test_avg_partial_aliases_never_reach_the_user(make, matched):
    """In ``ar`` mode over pending delta the base runs the *lowered* query
    (``avg`` as ``a#sum`` / ``a#cnt``); with no delta row in the window the
    base answer used to come back as it stood — ``{'a#sum': …, 'a#cnt': …,
    'n': …}`` and no ``'a'``."""
    s = make_base_only(make)
    window = (2_000, 25_000)
    inside = np.full(matched, 10_000, dtype=np.int64)
    outside = np.array([DOMAIN + 7, DOMAIN + 9], dtype=np.int64)
    v = np.concatenate([inside, outside])
    s.append("t", {"v": v, "w": np.full(len(v), 5, dtype=np.int64)})
    query = (
        s.table("t").where("v", between=window).avg("w", "a").count("n").build()
    )
    exact = s.query(query, mode="classic")
    for run in (s.query, lambda q, mode: _served(s, q, mode)):
        answer = run(query, mode="ar").approximate
        assert set(answer.aggregates) == {"a", "n"}, answer.aggregates
        assert answer.aggregates["a"] is None  # "contains the value, or None"
        assert answer.aggregates["n"].contains(exact.scalar("n"))
        # approximate mode never lowers: one device keeps a real avg bound
        free = run(query, mode="approximate").approximate
        assert set(free.aggregates) == {"a", "n"}
        bound = free.aggregates["a"]
        assert bound.contains(exact.scalar("a")) if make is Session else bound is None
