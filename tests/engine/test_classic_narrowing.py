"""The classic executor's predicate chain, shaped like TPC-H Q6.

Two predicates on one column, then one on each of two other columns, then a
sum over a fourth: every predicate narrows the candidate list and the
still-live cached columns.  Against a NumPy reference over empty, full and
mid-density keep-masks: the answers are equal, each ``cpu.select`` span
bills ``len(mask) + 8·kept`` bytes, and each ``cpu.gather`` span bills the
candidates still alive at the column's width plus an oid.
"""

import numpy as np
import pytest

from repro import IntType, Session

N = 2_000
WIDTH = {"b": 2, "c": 1, "d": 4}  # declared storage bytes of the gathered columns
CHAINS = {
    "mid": ((100, 600), (50, 300), 7),
    "full": ((0, 1_000), (0, 499), 10),
    "first-empty": ((1_000, 1_000), (0, 499), 10),
    "last-empty": ((100, 600), (50, 300), 0),
}


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(27)
    s = Session()
    s.create_table(
        "t",
        {
            "a": IntType(),
            "b": IntType(storage_bits=16),
            "c": IntType(storage_bits=8),
            "d": IntType(),
        },
        {
            "a": rng.integers(0, 1_000, N),
            "b": rng.integers(0, 500, N),
            "c": rng.integers(0, 10, N),
            "d": rng.integers(0, 10_000, N),
        },
    )
    return s


def chain(session, a_range, b_range, c_below):
    """The four keep-masks in evaluation order, each over the rows the
    ones before it kept."""
    t = session.catalog.table("t")
    a, b, c = (t.values(name) for name in "abc")
    masks, rows = [], np.arange(N)
    for keep in (
        lambda r: a[r] >= a_range[0],
        lambda r: a[r] < a_range[1],
        lambda r: (b[r] >= b_range[0]) & (b[r] <= b_range[1]),
        lambda r: c[r] < c_below,
    ):
        masks.append(keep(rows))
        rows = rows[masks[-1]]
    return masks, rows


def sql(a_range, b_range, c_below, select):
    return (
        f"select {select} from t where a >= {a_range[0]} and a < {a_range[1]} "
        f"and b between {b_range[0]} and {b_range[1]} and c < {c_below}"
    )


@pytest.mark.parametrize("shape", CHAINS.values(), ids=CHAINS)
def test_aggregate_answer_and_bill(session, shape):
    masks, rows = chain(session, *shape)
    t = session.catalog.table("t")
    result = session.execute(
        sql(*shape, "sum(d * c) as rev, count(*) as n"), mode="classic"
    )
    expected = np.sum(t.values("d")[rows] * t.values("c")[rows], dtype=np.int64)
    assert result.column("rev").tolist() == [int(expected)]
    assert result.column("n").tolist() == [rows.size]

    spans = result.timeline.span_tuples()
    selects = [nbytes for _, _, op, nbytes, *_ in spans if op.startswith("cpu.select")]
    assert selects == [m.size + 8 * int(m.sum()) for m in masks]
    gathers = [(op, nbytes) for _, _, op, nbytes, *_ in spans if op.startswith("cpu.gather")]
    alive = [int(m.sum()) for m in masks]  # after a, a, b, c
    assert gathers == [
        ("cpu.gather(b)", alive[1] * (WIDTH["b"] + 8)),
        ("cpu.gather(c)", alive[2] * (WIDTH["c"] + 8)),
        ("cpu.gather(d)", alive[3] * (WIDTH["d"] + 8)),
    ]


@pytest.mark.parametrize("shape", CHAINS.values(), ids=CHAINS)
def test_projection_rows_in_table_order(session, shape):
    _, rows = chain(session, *shape)
    t = session.catalog.table("t")
    result = session.execute(sql(*shape, "a, c, d"), mode="classic")
    assert result.row_count == rows.size
    for name in "acd":
        assert np.array_equal(result.column(name), t.values(name)[rows]), name
