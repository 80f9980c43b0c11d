"""int64 wraparound through the shared grouped sum (ROADMAP D4, PR 16).

A ``sum`` whose true value passes 2**63 wraps, and it wraps to the same
``int64`` wherever it is computed: the A&R plan (where the approximate sum
over error-free bounds, the refined ``sum`` and the refined ``avg`` are one
scatter), the classic executor, and the coordinator's merge of four
shards' partial sums.  ``avg`` divides that same wrapped sum everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntType, Session
from repro.core.aggregates import fold, grouped_sum, row_partials
from repro.core.grouping import GroupAssignment
from repro.shard import ShardedSession

BIG = 1 << 61
ROWS = 40


def _rows():
    rng = np.random.default_rng(7)
    return {
        "g": np.arange(ROWS) % 3,
        # five of these already pass 2**63; every group holds 13 or 14
        "v": BIG + rng.integers(0, 1 << 40, ROWS),
        "k": rng.integers(0, 100, ROWS),
    }


def _fill(session, device_bits):
    session.create_table(
        "t",
        {"g": IntType(), "v": IntType(storage_bits=64), "k": IntType()},
        _rows(),
    )
    session.bwdecompose("t", "g", 32)
    session.bwdecompose("t", "v", device_bits)
    session.bwdecompose("t", "k", 32)
    return session


def _wrapped(values):
    return int(np.sum(values, dtype=np.int64))  # NumPy wraps; Python would not


@pytest.fixture(params=[64, 40], ids=["all-device", "residual-24"])
def sessions(request):
    return (
        _fill(Session(), request.param),
        _fill(ShardedSession(4), request.param),
    )


def test_the_true_sum_does_not_fit():
    rows = _rows()
    assert sum(int(v) for v in rows["v"]) >= 1 << 63
    assert all(
        sum(int(v) for v in rows["v"][rows["g"] == g]) >= 1 << 63 for g in range(3)
    )


def test_grouped_sum_and_avg_wrap_alike(sessions):
    solo, sharded = sessions
    rows = _rows()
    want_sum = [_wrapped(rows["v"][rows["g"] == g]) for g in range(3)]
    want_avg = [s / int((rows["g"] == g).sum()) for g, s in enumerate(want_sum)]
    build = lambda s: (  # noqa: E731
        s.table("t").where("k", "<", 1000).group_by("g")
        .sum("v", "s").avg("v", "m").count("n")
    )
    runs = {
        "ar": build(solo).run(mode="ar"),
        "classic": build(solo).run(mode="classic"),
        "sharded": build(sharded).run(mode="ar"),
    }
    for name, result in runs.items():
        order = np.argsort(result.columns["g"])
        assert result.columns["s"].dtype == np.int64, name
        assert result.columns["s"][order].tolist() == want_sum, name
        assert result.columns["m"][order].tolist() == want_avg, name


def test_ungrouped_sum_and_avg_wrap_alike(sessions):
    solo, sharded = sessions
    rows = _rows()
    want_sum = _wrapped(rows["v"])
    build = lambda s: s.table("t").where("k", "<", 1000).sum("v", "s").avg("v", "m")  # noqa: E731
    for name, result in {
        "ar": build(solo).run(mode="ar"),
        "classic": build(solo).run(mode="classic"),
        "sharded": build(sharded).run(mode="ar"),
    }.items():
        assert result.columns["s"].tolist() == [want_sum], name
        assert result.columns["m"].tolist() == [want_sum / ROWS], name


def test_one_scatter_serves_sum_and_avg():
    """The shared sum is found by the identity of a read-only values
    array, handed out as a copy, and never kept for a writable one."""
    values = np.array([BIG] * 5 + [3], dtype=np.int64)
    groups = GroupAssignment(np.array([0, 0, 0, 0, 0, 1]), 2, exact=True)
    frozen = values.view()
    frozen.flags.writeable = False
    first = grouped_sum(frozen, groups)
    assert first.tolist() == [_wrapped(values[:5]), 3]
    assert len(groups.sums) == 1 and groups.sums[0][0] is frozen
    first[0] = -1                                   # a caller's copy
    assert grouped_sum(frozen, groups).tolist() == [_wrapped(values[:5]), 3]
    avg = fold("avg", row_partials("avg", frozen, len(frozen)), groups)
    assert avg.tolist() == [_wrapped(values[:5]) / 5, 3.0]
    assert len(groups.sums) == 1                    # avg divided the held sum
    grouped_sum(values, groups)                     # writable: summed, not held
    assert len(groups.sums) == 1
    values[5] = 4
    assert grouped_sum(values, groups).tolist() == [_wrapped(values[:5]), 4]


# ----------------------------------------------------------------------
# Row bounds that leave int64
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def events():
    """``value`` in [0, 10 000) at 24 of 32 bits: 8 residual bits, so the
    device's bounds are inexact and interval arithmetic bounds them."""
    session = Session()
    session.create_table(
        "events", {"value": IntType()},
        {"value": np.random.default_rng(0).integers(0, 10_000, 10_000)},
    )
    session.execute("select bwdecompose(value, 24) from events")
    return session


@pytest.mark.parametrize("sql, want", [
    ("select sum(value + 9223372036854775000) as s from events", 41_921_897),
    ("select sum(value * 3000000000000000) as s from events", None),
    ("select min(value * 3000000000000000) as s from events", None),
    ("select max(value * 3000000000000000) as s from events", None),
])
def test_a_bound_leaving_int64_has_no_interval(events, sql, want):
    """Regression: the inexact bounds wrapped and ``ar`` / ``approximate``
    raised "interval with lo > hi" where classic answers.  The aggregate's
    bound is now ``None`` and ``ar`` recomputes the exact value, wrapping
    as classic's int64 arithmetic does."""
    classic = events.execute(sql, mode="classic").scalar("s")
    if want is not None:
        assert classic == want
    ar = events.execute(sql, mode="ar")
    assert ar.scalar("s") == classic
    assert ar.approximate.aggregates["s"] is None
    assert events.execute(sql, mode="approximate").approximate.aggregates["s"] is None


@pytest.fixture(scope="module")
def spread():
    """Values 256 apart at 24 of 32 bits: every residual bucket holds one
    row, so ``value = k`` has one candidate and a sum of it can leave
    int64 only where its row bound does."""
    session = Session()
    session.create_table(
        "events", {"value": IntType()},
        {"value": np.random.default_rng(1).permutation(10_000) * 256 + 7},
    )
    session.execute("select bwdecompose(value, 24) from events")
    return session


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(["+", "-", "*"]),
    c=st.integers(-(2**63 - 1), 2**63 - 1),
    k=st.integers(0, 9_999),
)
def test_ar_sums_value_with_any_constant_as_classic(spread, op, c, k):
    """One candidate, so only its row bound can leave int64: a *total* that
    wraps is ROADMAP L's (``Unbounded("int64 wrap")``)."""
    literal = str(c) if c >= 0 else f"-{-c}"
    sql = (
        f"select sum(value {op} {literal}) as s from events "
        f"where value = {k * 256 + 7}"
    )
    ar = spread.execute(sql, mode="ar")
    assert ar.scalar("s") == spread.execute(sql, mode="classic").scalar("s")
    bound = ar.approximate.aggregates["s"]
    assert bound is None or bound.contains(float(ar.scalar("s")))
