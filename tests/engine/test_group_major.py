"""Group-major candidates change nothing observable (PR 24).

In a plan that only aggregates, the projections that end in the pre-grouping
run over candidates first put in group order (``ArExecutor._group_major``),
and every fold behind it reduces contiguous slices instead of scattering.
Results, approximate answers and modeled ledgers must be what the parent
commit produced: ``data/group_major_golden.json`` holds one digest per case,
captured there (run this file as a script with ``PYTHONPATH`` on the
parent's ``src`` to capture again).  The cases cross a Q1-shaped plan, the
sqlite oracle's grouped shapes, a conjunction, the whole table, an empty
window and a key too wide for the unit with: residual bits 0 and 8 on a key
column (8: ``group_refine`` sub-divides the ordered groups, after which
there are no ``starts`` and the folds scatter), resident views and an
evicting view budget.  ``d`` keeps 4 residual bits there, so the certain
rows are a strict subset (the uncertain few scatter their hull correction)
and the refinement narrows an ordered set (which scatters from then on).

The spies pin which kernel runs: a scanned set that only feeds grouped
aggregates reaches the folds with ``starts`` — no ``ufunc.at`` — while the
carved sets of a fused batch and of shard fragments are never reordered.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import IntType, Session
from repro.core import aggregates
from repro.engine.ar_executor import ArExecutor
from repro.shard import ShardedSession
from repro.sql import bind, parse
from repro.storage.decompose import set_view_budget

GOLDEN = Path(__file__).parent / "data" / "group_major_golden.json"
N_ROWS = 2_500
EVICTING = 4 << 10  # bytes: every view of the 2 500-row columns competes

SHAPES = {
    "q1": (
        "select k, f, sum(v) as s, sum(v * (100 - w)) as sd, "
        "sum(v * (100 - w) * (100 + f)) as sc, avg(v) as av, avg(w) as aw, "
        "count(*) as n from t where d <= 3000 group by k, f"
    ),
    "count_sum": "select k, count(*) as n, sum(d) as s from t "
                 "where d between 300 and 2900 group by k",
    "min_max_avg": "select k, min(w) as lo, max(d) as hi, avg(w) as v, sum(w) as t "
                   "from t where d >= 1000 group by k",
    "conjunction": "select f, k, sum(v) as s, min(v) as lo from t "
                   "where d < 3500 and w < 60 group by f, k",
    "whole_table": "select k, f, count(*) as n, max(v) as hi from t group by k, f",
    "nothing": "select k, sum(v) as s, count(*) as n from t where d > 9000 group by k",
    "wide_key": "select v, count(*) as n from t where d < 90 group by v",
}
CONFIGS = [
    (key_bits, budget) for key_bits in (0, 8) for budget in (None, EVICTING)
]


@pytest.fixture(autouse=True)
def unbounded_after():
    yield
    set_view_budget(None)


def table() -> dict:
    rng = np.random.default_rng(24)
    return {
        # six keys over 20 codes' worth of values: with 8 residual bits two
        # of them share an approximation code
        "k": rng.choice([0, 100, 300, 600, 1000, 5000], N_ROWS),
        "f": rng.integers(0, 3, N_ROWS),
        "v": rng.integers(-(1 << 40), 1 << 40, N_ROWS),
        "w": rng.integers(0, 100, N_ROWS),
        "d": rng.integers(0, 4000, N_ROWS),
    }


def build(key_bits: int, budget: int | None, make=Session, d_bits: int = 4):
    session = make()
    data = table()
    session.create_table(
        "t", {name: IntType(storage_bits=64) for name in data}, data
    )
    session.bwdecompose("t", "d", residual_bits=d_bits)  # shards band by d
    session.bwdecompose("t", "k", residual_bits=key_bits)
    for name in ("f", "v", "w"):
        session.bwdecompose("t", name, residual_bits=0)
    session.set_view_budget(budget)
    return session


def digest(result) -> str:
    answer = result.approximate
    content = {
        "columns": {
            name: [column.dtype.str, column.tolist()]
            for name, column in result.columns.items()
        },
        "rows": result.row_count,
        "approximate": [
            answer.candidate_rows, answer.n_groups,
            {alias: repr(bound) for alias, bound in answer.aggregates.items()},
        ],
        "spans": [list(span) for span in result.timeline.span_tuples()],
    }
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def capture() -> dict:
    golden = {}
    for key_bits, budget in CONFIGS:
        session = build(key_bits, budget)
        for name, sql in SHAPES.items():
            for mode in ("ar", "approximate"):
                case = f"{name}/{mode}/k{key_bits}/{'evicting' if budget else 'resident'}"
                golden[case] = digest(session.execute(sql, mode=mode))
    set_view_budget(None)
    return golden


def test_results_answers_and_ledgers_equal_the_parents():
    golden = json.loads(GOLDEN.read_text())
    got = capture()
    assert sorted(got) == sorted(golden)
    assert [case for case in got if got[case] != golden[case]] == []


@pytest.mark.parametrize("sql", [SHAPES["q1"], SHAPES["min_max_avg"]])
def test_ar_equals_classic_per_group(sql):
    keys = [c.strip() for c in sql.split(" group by ")[1].split(",")]
    for key_bits in (0, 8):
        session = build(key_bits, None)
        ar = session.execute(sql, mode="ar").sorted_by(*keys)
        classic = session.execute(sql, mode="classic").sorted_by(*keys)
        assert list(ar.columns) == list(classic.columns)
        for name in ar.columns:
            assert np.array_equal(ar.columns[name], classic.columns[name]), name


# ----------------------------------------------------------------------
# Spies: which kernel runs, and what is never reordered
# ----------------------------------------------------------------------
@pytest.fixture()
def folds(monkeypatch):
    """``(had starts, n_groups)`` of every multi-group fold."""
    seen = []
    scatter = aggregates._scatter

    def spy(ufunc, start, values, groups):
        if groups is not None and groups.n_groups > 1:
            seen.append((groups.starts is not None, groups.n_groups))
        return scatter(ufunc, start, values, groups)

    monkeypatch.setattr(aggregates, "_scatter", spy)
    return seen


@pytest.fixture()
def units(monkeypatch):
    """``(reordered?, carved before, carved after)`` of every unit tried."""
    seen = []
    unit = ArExecutor._group_major

    def spy(self, ops, state):
        before = state.candidates.carved
        done = unit(self, ops, state)
        seen.append((done, before, state.candidates.carved))
        return done

    monkeypatch.setattr(ArExecutor, "_group_major", spy)
    return seen


def test_a_scanned_set_reaches_every_fold_with_starts(folds, units):
    """Q1 through ``Session.execute`` with every column device-resident,
    as the end-to-end benchmark runs it: no ``ufunc.at`` on either side of
    the bus."""
    session = build(0, None, d_bits=0)
    session.execute(SHAPES["q1"], mode="ar")
    assert units == [(True, False, False)]
    assert folds and all(ordered for ordered, _ in folds)


def test_refined_subgroups_scatter(folds, units):
    """Residual bits on a key: the device side folds ordered slices, the
    host side sub-divides them — whatever order that leaves, it scatters."""
    session = build(8, None, d_bits=0)
    session.execute(SHAPES["q1"], mode="ar")
    assert units == [(True, False, False)]
    coarse = {n for ordered, n in folds if ordered}
    fine = {n for ordered, n in folds if not ordered}
    assert coarse == {15} and fine == {18}  # two keys share a code, times f


def test_the_unit_declines_what_it_must(units):
    """A composite wider than 16 bits, a run that ends in no grouping."""
    session = build(0, None)
    session.execute(SHAPES["wide_key"], mode="ar")
    session.execute("select sum(v) as s, max(w) as hi from t where d < 900", mode="ar")
    assert units == [(False, False, False)] * 2


def served(session, sqls):
    server = session.serve(max_batch=16, optimizer="heuristic")
    handles = [server.submit(bind(parse(sql), session.catalog)[0]) for sql in sqls]
    results = [handle.result() for handle in handles]
    assert server.stats.fused_queries > 0
    return results


@pytest.mark.parametrize("make", [Session, lambda: ShardedSession(4)])
def test_carved_sets_are_never_reordered(make, units, folds):
    """A fused batch's members and shard fragments answer out of the
    sorted-code view: their run order is what ``certain_run`` reads, so
    they stay as carved — and fold by scattering, like the parent."""
    windows = [(300, 2900), (1000, 3100), (50, 700), (2000, 3999)]
    sqls = [
        f"select k, f, count(*) as n, sum(v) as s, avg(w) as a from t "
        f"where d between {lo} and {hi} group by k, f"
        for lo, hi in windows
    ]
    session = build(0, None, make)
    results = served(session, sqls)
    assert units and all(unit == (False, True, True) for unit in units)
    assert folds and not any(ordered for ordered, _ in folds)
    solo = build(0, None)
    for sql, result in zip(sqls, results):
        want = solo.execute(sql, mode="ar").sorted_by("k", "f")
        got = result.sorted_by("k", "f")
        for name in want.columns:
            assert np.array_equal(got.columns[name], want.columns[name]), (sql, name)


if __name__ == "__main__":  # capture the golden: PYTHONPATH=<parent>/src
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
