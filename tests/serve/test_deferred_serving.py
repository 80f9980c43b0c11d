"""Served windowed counts never form their candidates (PR 17).

A fused batch of ``count(*)`` windows is answered from counts alone — hits
carved out of the sorted-code view, the two boundary buckets re-tested — and
must equal ``Session.execute`` in columns, ``approximate`` interval and
``span_tuples()``, in ``ar`` and ``approximate`` mode, with delta in flight
and after compaction.  A deferred set lives and dies inside its
``ArExecutor.run``: it holds no reference cycle, so with the collector off a
compaction still frees the columns the last wave read.
"""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import IntType, Session
from repro.core.candidates import Approximation, CarvedHits
from repro.sql import bind, parse

N = 20_000
DOMAIN = 100_000  # 17 value bits, 24 device bits of 32: 8 residual bits


def make_session(seed=29) -> Session:
    rng = np.random.default_rng(seed)
    s = Session()
    s.create_table("events", {"value": IntType()}, {"value": rng.integers(0, DOMAIN, N)})
    s.execute("select bwdecompose(value, 24) from events")
    return s


@pytest.fixture(scope="module")
def session() -> Session:
    return make_session()


def count_sql(lo, hi) -> str:
    return f"select count(*) as n from events where value between {lo} and {hi}"


def serve_wave(session, sqls, mode):
    """One fused batch through a fresh scheduler; the Results, in order."""
    server = session.serve(max_batch=16, optimizer="heuristic")
    handles = [
        server.submit(bind(parse(sql), session.catalog)[0], mode=mode)
        for sql in sqls
    ]
    results = [h.result() for h in handles]
    assert server.stats.fused_queries == len(sqls)
    return results


def assert_served_equals_executed(session, sqls, mode):
    with mock.patch.object(
        CarvedHits, "ascending", autospec=True, side_effect=CarvedHits.ascending
    ) as sorts:
        served = serve_wave(session, sqls, mode)
    assert sorts.call_count == 0, "a served count formed its candidates"
    for sql, got in zip(sqls, served):
        want = session.execute(sql, mode=mode)
        assert list(got.columns) == list(want.columns), sql
        for name, column in want.columns.items():
            assert np.array_equal(got.columns[name], column), sql
            assert got.columns[name].dtype == column.dtype, sql
        assert got.row_count == want.row_count, sql
        assert got.approximate == want.approximate, sql
        assert got.timeline.span_tuples() == want.timeline.span_tuples(), sql


#: windows from one value to a tenth of the domain, on and off the 256-value
#: bucket edges, reaching past both ends of the domain
windows = st.tuples(
    st.integers(-300, DOMAIN + 300),
    st.sampled_from([0, 1, 255, 256, 257, 1_000, 10_000]),
    st.sampled_from([0, 0, 1, 255]),
).map(lambda t: ((t[0] // 256) * 256 + t[2], (t[0] // 256) * 256 + t[2] + t[1]))


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(windows, min_size=2, max_size=16), st.sampled_from(["ar", "approximate"]))
def test_served_counts_equal_executed(session, wave, mode):
    assert_served_equals_executed(
        session, [count_sql(lo, hi) for lo, hi in wave], mode
    )


@pytest.mark.parametrize("mode", ["ar", "approximate"])
def test_served_counts_with_delta_in_flight_and_compacted(mode):
    session = make_session(seed=31)
    rng = np.random.default_rng(37)
    sqls = [count_sql(lo, lo + w) for lo, w in
            [(0, 255), (256, 300), (1_000, 5_000), (50_000, 700), (99_000, 5_000)]]
    session.append("events", {"value": rng.integers(0, DOMAIN, 500)})
    assert_served_equals_executed(session, sqls, mode)   # delta folded per query
    session.compact()
    assert_served_equals_executed(session, sqls, mode)   # extended column


def test_no_deferred_set_outlives_its_run():
    """The harness freezes the heap every round, so anything only a cycle
    collection would free is a leak: with the collector off, a compaction
    must still release the column the previous wave's carves read."""
    session = make_session(seed=41)
    sqls = [count_sql(lo, lo + 3_000) for lo in range(0, 48_000, 3_000)]
    gc.collect()
    gc.disable()
    try:
        serve_wave(session, sqls, "ar")
        serve_wave(session, sqls, "approximate")
        before = weakref.ref(session.catalog.decomposition_of("events", "value"))
        session.append("events", {"value": np.arange(0, 5_000, 7)})
        session.compact()
        assert session.catalog.decomposition_of("events", "value") is not before()
        assert before() is None, "the pre-compaction column is still referenced"
        serve_wave(session, sqls, "ar")
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (Approximation, CarvedHits))]
        assert leaked == [], "a candidate set was only reachable through a cycle"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_a_kept_result_carries_no_instance_dicts(session):
    """Callers keep every Result (the e2e harness verifies them at the end),
    so what one retains is resident memory per completed query: the Result,
    its approximate answer, the bounds and the ledger are slotted."""
    from repro.shard import ShardedSession

    served = serve_wave(session, [count_sql(1_000, 9_000)] * 2, "ar")[0]
    sharded = ShardedSession(2)
    sharded.create_table("t", {"v": IntType()}, {"v": np.arange(2_000)})
    sharded.bwdecompose("t", "v", 24)
    merged = sharded.table("t").where("v", "<=", 500).count("n").run(mode="ar")
    for result in (served, merged):
        kept = [result, result.approximate, result.timeline,
                *result.approximate.aggregates.values()]
        assert [type(o).__name__ for o in kept if hasattr(o, "__dict__")] == []
    assert type(merged).__name__ == "ShardedResult"
    assert not hasattr(merged.recovery_timeline, "__dict__")
