"""Carved scans through the executor (PR 17, 18): what reads rows forms
them, and only a row that leaves in order is put in order.

``ArExecutor.run(plan, scan_hits=...)`` hands a plan's first scan the hits a
cooperative pass carved.  Whatever the plan does with them, its Result,
``approximate`` answer and ``span_tuples()`` equal the run without them;
whether the candidates' rows are ever formed is decided by the plan alone —
a plan that only counts them forms nothing — and so is the order they form
in: candidates that only feed aggregates are a set and form as the carved
run stands, a plan whose rows leave the engine (or enter a theta join) sorts
them once — never by an option.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntType, Session
from repro.core.candidates import Approximation, CarvedHits
from repro.engine.cooperative import ScanRequest, cooperative_scan_hits
from repro.plan.physical import ApproxScanSelect


@pytest.fixture(scope="module")
def session() -> Session:
    rng = np.random.default_rng(23)
    n = 6_000
    s = Session()
    s.create_table(
        "f",
        {"a": IntType(), "b": IntType(), "g": IntType(), "plain": IntType()},
        {
            "a": rng.integers(0, 50_000, n),
            "b": rng.integers(0, 2_000, n),
            "g": rng.integers(0, 6, n),
            "plain": rng.integers(0, 40, n),
        },
    )
    s.create_table("q", {"v": IntType()}, {"v": rng.integers(0, 50_000, 300)})
    s.bwdecompose("f", "a", 24)   # 8 residual bits
    s.bwdecompose("f", "b", 28)   # 4 residual bits
    s.bwdecompose("f", "g", 32)   # residual-free
    s.bwdecompose("q", "v", 24)
    return s


def window(s):
    return s.table("f").where("a", between=(7_003, 21_950))


#: name -> (builder, plan kwargs, reads rows?, leaves in order?) — "refine"
#: where only the refinement subplan reads rows, so an approximate-only run
#: forms none; None where no set is ever deferred.  In order: a row leaves
#: the engine (``rows``), enters a theta join, or — the one sort a set may
#: keep — is probed by a pushed-down conjunct, whose probes gather at the
#: ascending hits.
SHAPES = {
    "count": (lambda s: window(s).count("n"), {}, False, False),
    "count, open range": (
        lambda s: s.table("f").where("a", ">=", 40_000).count("n"), {}, False, False),
    # the approximate count runs behind the refinement here, over its rows
    "count, no pushdown": (
        lambda s: window(s).count("n"), {"pushdown": False}, "refine", False),
    "count on a residual-free column": (
        lambda s: s.table("f").where("g", between=(1, 3)).count("n"), {}, False, False),
    "count of nothing": (
        lambda s: s.table("f").where("a", between=(60_000, 70_000)).count("n"),
        {}, False, False),
    "count with a host-only predicate": (
        lambda s: window(s).where("plain", "<=", 20).count("n"), {}, "refine", False),
    "sum and count": (lambda s: window(s).sum("a", "s").count("n"), {}, True, False),
    "sum of another column": (lambda s: window(s).sum("b", "s"), {}, True, False),
    "min": (lambda s: window(s).min("b", "m"), {}, True, False),
    "max of the scanned column": (lambda s: window(s).max("a", "m"), {}, True, False),
    "avg": (lambda s: window(s).avg("b", "v").sum("a", "s"), {}, True, False),
    "group by": (
        lambda s: window(s).group_by("g").count("n").sum("b", "s"), {}, True, False),
    "rows": (lambda s: window(s).select("a", "b"), {}, True, True),
    # the kernel reads the carved hits at once: nothing is deferred
    "probe conjunct": (
        lambda s: window(s).where("b", "<=", 900).count("n"), {}, None, True),
    "probe conjunct, no pushdown": (
        lambda s: window(s).where("b", "<=", 900).count("n"),
        {"pushdown": False}, "refine", False),
    "band join under the selection": (
        lambda s: window(s).band_join("q", on=("a", "v"), delta=30).count("m"),
        {}, True, True),
}


def assert_identical(want, got):
    assert want.row_count == got.row_count
    assert list(want.columns) == list(got.columns)
    for name, column in want.columns.items():
        assert np.asarray(column).dtype == np.asarray(got.columns[name]).dtype
        assert np.array_equal(column, got.columns[name]), name
    assert want.approximate == got.approximate
    assert want.timeline.span_tuples() == got.timeline.span_tuples()


def carve_for(session, plan) -> CarvedHits:
    scan = plan.ops[0]
    assert isinstance(scan, ApproxScanSelect)
    column = session.catalog.decomposition_of(plan.query.table, scan.column)
    return cooperative_scan_hits(
        column, [ScanRequest("q", scan.predicate.vrange)]
    )["q"]


@pytest.mark.parametrize("approximate_only", [False, True])
@pytest.mark.parametrize("name", list(SHAPES))
def test_carved_run_equals_solo_run(session, name, approximate_only):
    build, plan_kwargs, reads_rows, in_order = SHAPES[name]
    query = build(session).build()
    plan = session.plan_for(query, optimizer="heuristic", **plan_kwargs)
    hits = carve_for(session, plan)

    want = session._ar.run(plan, approximate_only=approximate_only)
    with mock.patch.object(
        CarvedHits, "ascending", autospec=True, side_effect=CarvedHits.ascending
    ) as sorts, mock.patch.object(
        Approximation, "_read", autospec=True, side_effect=Approximation._read
    ) as reads:
        got = session._ar.run(
            plan, approximate_only=approximate_only,
            scan_hits={id(plan.ops[0]): hits},
        )
    assert_identical(want, got)
    if reads_rows == "refine":
        reads_rows = not approximate_only
    if reads_rows is not None:
        assert bool(reads.call_count) == reads_rows, "formed iff something read them"
    assert sorts.call_count == int(in_order), "sorted iff a row leaves in order"


# ----------------------------------------------------------------------
# Property: a candidate set is a set (random columns × widths × windows)
# ----------------------------------------------------------------------
AGGREGATIONS = {
    "sum, count": lambda t: t.sum("a", "s").count("n"),
    "sum of another column": lambda t: t.sum("b", "s"),
    "min, max, avg": lambda t: t.min("b", "lo").max("a", "hi").avg("b", "v"),
    "min alone (pruned)": lambda t: t.min("a", "m"),
    "group by": lambda t: t.group_by("g").count("n").sum("b", "s").avg("a", "v"),
}


@st.composite
def table_window_and_shuffle(draw):
    n = draw(st.integers(1, 400))
    span = draw(st.sampled_from([40, 1_000, 70_000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    s = Session()
    s.create_table(
        "f", {"a": IntType(), "b": IntType(), "g": IntType()},
        {"a": rng.integers(0, span, n), "b": rng.integers(-50, 2_000, n),
         "g": rng.integers(0, 5, n)},
    )
    # 32 device bits: residual-free; 14: every value in one bucket
    s.bwdecompose("f", "a", draw(st.sampled_from([32, 31, 29, 28, 26, 24, 20, 14])))
    s.bwdecompose("f", "b", draw(st.sampled_from([24, 28, 32])))
    s.bwdecompose("f", "g", 32)
    lo = draw(st.integers(-5, span))
    hi = lo + draw(st.integers(0, span))
    return s, (lo, hi), draw(st.randoms(use_true_random=False))


def shuffled(hits: CarvedHits, random) -> CarvedHits:
    """The same hit set in another run order: the certain rows permuted
    among themselves, the boundary rows permuted and dealt anew to the two
    ends — every order that still has a certain sub-run to mark."""
    sure = np.arange(hits.sure.start, hits.sure.stop)
    ends = np.setdiff1d(np.arange(hits.size), sure)
    random.shuffle(sure)
    random.shuffle(ends)
    cut = random.randint(0, ends.size)
    order = np.concatenate((ends[:cut], sure, ends[cut:])).astype(np.int64)
    return CarvedHits(
        hits.run[order], hits.codes[order], slice(cut, cut + sure.size),
        hits.run[ends],
    )


@settings(max_examples=40, deadline=None)
@given(table_window_and_shuffle(), st.sampled_from(list(AGGREGATIONS)))
def test_any_run_order_gives_the_same_aggregates(case, shape):
    session, (lo, hi), random = case
    query = AGGREGATIONS[shape](session.table("f").where("a", between=(lo, hi))).build()
    plan = session.plan_for(query, optimizer="heuristic")
    hits = carve_for(session, plan)

    def run(scan_hits):
        try:
            return session._ar.run(plan, scan_hits=scan_hits)
        except Exception as exc:  # min / avg of nothing: the same refusal
            return type(exc), str(exc)

    want = run(None)
    for carved in (hits, shuffled(hits, random), shuffled(hits, random)):
        got = run({id(plan.ops[0]): carved})
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_identical(want, got)


@settings(max_examples=25, deadline=None)
@given(table_window_and_shuffle())
def test_rows_still_leave_in_the_solo_order(case):
    session, (lo, hi), random = case
    query = session.table("f").where("a", between=(lo, hi)).select("b", "a").build()
    plan = session.plan_for(query, optimizer="heuristic")
    hits = carve_for(session, plan)
    want = session._ar.run(plan)
    for carved in (hits, shuffled(hits, random)):  # sorted away either way
        got = session._ar.run(plan, scan_hits={id(plan.ops[0]): carved})
        assert_identical(want, got)


def test_ungrouped_aggregates_build_no_group_assignment(session, monkeypatch):
    """An ungrouped block is one fold per aggregate — ``len()`` for the
    ``count``, a reduction for the rest — not a scatter over all-zero group
    ids: no ``GroupAssignment`` is built, carved or not."""
    from repro.engine import ar_executor

    built = []
    real = ar_executor.GroupAssignment

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ar_executor, "GroupAssignment", spy)
    result = (
        window(session).count("n").sum("a", "s").min("b", "lo").max("b", "hi")
        .avg("b", "v").run(mode="ar")
    )
    assert built == []
    rows = session.catalog.table("f")
    a, b = np.asarray(rows.values("a")), np.asarray(rows.values("b"))
    b = b[(a >= 7_003) & (a <= 21_950)]
    a = a[(a >= 7_003) & (a <= 21_950)]
    assert all(result.columns[c].dtype == np.int64 for c in ("n", "s", "lo", "hi"))
    assert result.columns["n"].tolist() == [a.size]
    assert result.columns["s"].tolist() == [int(a.sum())]
    assert result.columns["lo"].tolist() == [int(b.min())]
    assert result.columns["hi"].tolist() == [int(b.max())]
    assert result.columns["v"].tolist() == [float(b.sum()) / b.size]
