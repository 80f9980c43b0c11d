"""Structural exactness changes nothing observable (PR 13).

A Q1-shaped grouped query over one table decomposed twice: at 32 bits every
payload is degenerate (one shared array) and grouping runs sort-free; at 24
bits the intervals are genuinely inexact — the path the end-to-end benchmark
never runs.  Either way the A&R result equals the classic engine's, the
approximate intervals contain the exact values, and the modeled Timeline is
span-for-span the one recorded from the commit before the change
(``data/q1_shape_spans.json``; charges are functions of cardinalities, never
of how NumPy got there).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import IntType, Session

GOLDEN = Path(__file__).parent / "data" / "q1_shape_spans.json"
COLUMNS = ("qty", "price", "disc", "tax", "flag", "status", "day")
KEYS = ("flag", "status")
Q1_SHAPE = (
    "select flag, status, sum(qty) as sum_qty, sum(price) as sum_price, "
    "sum(price * (100 - disc)) as sum_disc, "
    "sum(price * (100 - disc) * (100 + tax)) as sum_charge, "
    "avg(qty) as avg_qty, avg(price) as avg_price, avg(disc) as avg_disc, "
    "count(*) as n from li where day <= 2000 group by flag, status"
)
SUMS = ("sum_qty", "sum_price", "sum_disc", "sum_charge", "n")
AVGS = ("avg_qty", "avg_price", "avg_disc")


def build(bits: int, n: int = 3000) -> Session:
    rng = np.random.default_rng(13)
    session = Session()
    session.create_table(
        "li",
        {name: IntType() for name in COLUMNS},
        {
            "qty": rng.integers(1, 51, n),
            "price": rng.integers(90_000, 10_500_000, n),
            "disc": rng.integers(0, 11, n),
            "tax": rng.integers(0, 9, n),
            "flag": rng.integers(0, 3, n),
            "status": rng.integers(0, 2, n),
            "day": rng.integers(0, 2500, n),
        },
    )
    for name in COLUMNS:
        session.bwdecompose("li", name, bits)
    return session


def spans(result) -> list[list]:
    return [list(t) for t in result.timeline.span_tuples()]


@pytest.mark.parametrize("bits", [32, 24])
def test_q1_shape_matches_classic_bounds_and_golden_timeline(bits):
    session = build(bits)
    ar = session.execute(Q1_SHAPE, mode="ar")
    classic = session.execute(Q1_SHAPE, mode="classic").sorted_by(*KEYS)
    got = ar.sorted_by(*KEYS)
    assert got.row_count == classic.row_count == 6
    for name in classic.columns:
        a, c = np.asarray(got.columns[name]), np.asarray(classic.columns[name])
        assert np.allclose(a, c) if name in AVGS else np.array_equal(a, c), name

    approx = session.execute(Q1_SHAPE, mode="approximate")
    for name in SUMS:
        bounds = approx.approximate.bound(name)
        total = float(np.sum(classic.column(name)))
        assert sum(b.lo for b in bounds) <= total <= sum(b.hi for b in bounds), name
    for name in AVGS:
        bounds = approx.approximate.bound(name)
        lo, hi = min(b.lo for b in bounds), max(b.hi for b in bounds)
        assert all(lo <= v <= hi for v in classic.column(name)), name
    if bits == 32:
        # nothing has a residual: the free answer *is* the answer, per group
        for name in SUMS:
            bounds = approx.approximate.bound(name)
            assert [b.lo for b in bounds] == [b.hi for b in bounds]
            assert [b.lo for b in bounds] == list(classic.column(name)), name

    golden = json.loads(GOLDEN.read_text())[str(bits)]
    assert spans(ar) == golden["ar"]
    assert spans(approx) == golden["approximate"]
