"""Carved scans through the executor (PR 17): what reads rows, forms them.

``ArExecutor.run(plan, scan_hits=...)`` hands a plan's first scan the hits a
cooperative pass carved.  Whatever the plan does with them, its Result,
``approximate`` answer and ``span_tuples()`` equal the run without them;
whether the candidates' rows are ever formed is decided by the plan alone —
a plan that only counts them sorts nothing, a plan that reads a row sorts
once — never by an option.
"""

from unittest import mock

import numpy as np
import pytest

from repro import IntType, Session
from repro.core.candidates import CarvedHits
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


#: name -> (builder, plan kwargs, reads rows?) — "refine" where only the
#: refinement subplan does, so an approximate-only run forms none
SHAPES = {
    "count": (lambda s: window(s).count("n"), {}, False),
    "count, open range": (
        lambda s: s.table("f").where("a", ">=", 40_000).count("n"), {}, False),
    # the approximate count runs behind the refinement here, over its rows
    "count, no pushdown": (
        lambda s: window(s).count("n"), {"pushdown": False}, "refine"),
    "count on a residual-free column": (
        lambda s: s.table("f").where("g", between=(1, 3)).count("n"), {}, False),
    "count of nothing": (
        lambda s: s.table("f").where("a", between=(60_000, 70_000)).count("n"),
        {}, False),
    "count with a host-only predicate": (
        lambda s: window(s).where("plain", "<=", 20).count("n"), {}, "refine"),
    "sum and count": (lambda s: window(s).sum("a", "s").count("n"), {}, True),
    "sum of another column": (lambda s: window(s).sum("b", "s"), {}, True),
    "min": (lambda s: window(s).min("b", "m"), {}, True),
    "group by": (lambda s: window(s).group_by("g").count("n").sum("b", "s"), {}, True),
    "rows": (lambda s: window(s).select("a", "b"), {}, True),
    "probe conjunct": (
        lambda s: window(s).where("b", "<=", 900).count("n"), {}, True),
    "probe conjunct, no pushdown": (
        lambda s: window(s).where("b", "<=", 900).count("n"),
        {"pushdown": False}, "refine"),
    "band join under the selection": (
        lambda s: window(s).band_join("q", on=("a", "v"), delta=30).count("m"),
        {}, True),
}


def assert_identical(want, got):
    assert want.row_count == got.row_count
    assert list(want.columns) == list(got.columns)
    for name, column in want.columns.items():
        assert np.asarray(column).dtype == np.asarray(got.columns[name]).dtype
        assert np.array_equal(column, got.columns[name]), name
    assert want.approximate == got.approximate
    assert want.timeline.span_tuples() == got.timeline.span_tuples()


@pytest.mark.parametrize("approximate_only", [False, True])
@pytest.mark.parametrize("name", list(SHAPES))
def test_carved_run_equals_solo_run(session, name, approximate_only):
    build, plan_kwargs, reads_rows = SHAPES[name]
    query = build(session).build()
    plan = session.plan_for(query, optimizer="heuristic", **plan_kwargs)
    scan = plan.ops[0]
    assert isinstance(scan, ApproxScanSelect)
    column = session.catalog.decomposition_of("f", scan.column)
    hits = cooperative_scan_hits(
        column, [ScanRequest("q", scan.predicate.vrange)]
    )["q"]

    want = session._ar.run(plan, approximate_only=approximate_only)
    with mock.patch.object(
        CarvedHits, "ascending", autospec=True, side_effect=CarvedHits.ascending
    ) as sorts:
        got = session._ar.run(
            plan, approximate_only=approximate_only, scan_hits={id(scan): hits}
        )
    assert_identical(want, got)
    if reads_rows == "refine":
        reads_rows = not approximate_only
    assert sorts.call_count == int(reads_rows), "rows formed iff something read them"


def test_ungrouped_count_builds_no_group_assignment(session, monkeypatch):
    """The refined ungrouped ``count`` is ``len()``, not a bincount over
    all-zero group ids — carved or not."""
    from repro.engine import ar_executor

    built = []
    real = ar_executor.GroupAssignment

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ar_executor, "GroupAssignment", spy)
    result = window(session).count("n").run(mode="ar")
    assert built == []
    a = np.asarray(session.catalog.table("f").values("a"))
    assert result.columns["n"].dtype == np.int64
    assert result.columns["n"].tolist() == [int(((a >= 7_003) & (a <= 21_950)).sum())]
