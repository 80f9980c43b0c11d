"""Property tests: the optimizer never changes an answer or a charge.

A cost-planned run must be Result- and modeled-Timeline byte-identical to
the heuristic one — for a theta join over a whole column or a selection
and a scan, in all A&R modes, and
under an aggressively evicting decoded-view budget.
"""

import numpy as np
import pytest

from repro.engine.session import Session
from repro.storage.column import IntType
from repro.storage.decompose import set_view_budget

DOMAIN = 1 << 20


def _session(n_left=12_000, n_right=300, seed=3):
    rng = np.random.default_rng(seed)
    s = Session()
    s.create_table(
        "L", {"v": IntType(), "g": IntType()},
        {
            "v": rng.integers(0, DOMAIN, n_left),
            "g": rng.integers(0, 4, n_left),
        },
    )
    s.create_table(
        "R", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, n_right)}
    )
    s.bwdecompose("L", "v", 24)
    s.bwdecompose("R", "v", 24)
    return s


def _theta_builder(s, where):
    b = s.table("L")
    if where:
        b = b.where("v", between=(50_000, 900_000))
    return b.theta_join("R", on="v", op="<").count("n")


WHERE = pytest.mark.parametrize("where", [False, True], ids=["whole", "where"])


def assert_identical(a, b):
    assert a.row_count == b.row_count
    assert set(a.columns) == set(b.columns)
    for name in a.columns:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    assert a.timeline.span_tuples() == b.timeline.span_tuples()
    if a.approximate is None:
        assert b.approximate is None
    else:
        assert a.approximate.aggregates == b.approximate.aggregates
        assert a.approximate.candidate_rows == b.approximate.candidate_rows


@pytest.fixture(scope="module")
def session():
    return _session()


@pytest.mark.parametrize("mode", ["ar", "approximate"])
@WHERE
def test_theta_identical_under_either_optimizer(session, mode, where):
    b = _theta_builder(session, where)
    heuristic = b.run(mode=mode, optimizer="heuristic")
    optimized = b.run(mode=mode, optimizer="cost")
    assert_identical(heuristic, optimized)


@WHERE
def test_identity_holds_under_evicting_view_budget(session, where):
    b = _theta_builder(session, where)
    set_view_budget(64 * 1024, segment_rows=2048)
    try:
        heuristic = b.run(mode="ar", optimizer="heuristic")
        optimized = b.run(mode="ar", optimizer="cost")
    finally:
        set_view_budget(None)
    assert_identical(heuristic, optimized)


def test_scan_only_query_identical_under_optimizer(session):
    q = lambda **kw: (
        session.table("L")
        .where("v", between=(100_000, 300_000))
        .group_by("g")
        .count("n")
        .run(**kw)
    )
    assert_identical(
        q(mode="ar", optimizer="heuristic"), q(mode="ar", optimizer="cost")
    )
