"""Estimator sanity: histogram-seeded cardinalities track exact counts."""

import numpy as np
import pytest

from repro.core.relax import ValueRange
from repro.core.theta import Theta, ThetaOp
from repro.engine.session import Session
from repro.opt.estimates import (
    estimate_scan_candidates,
    estimate_selectivity,
    estimate_theta_cardinality,
)
from repro.plan.expr import ColRef, Predicate
from repro.storage.column import IntType

N = 30_000
DOMAIN = 1 << 20


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(11)
    s = Session()
    s.create_table(
        "L", {"v": IntType(), "w": IntType()},
        {"v": rng.integers(0, DOMAIN, N), "w": rng.integers(0, 1000, N)},
    )
    s.create_table(
        "R", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, N // 100)}
    )
    s.bwdecompose("L", "v", 24)
    # Fine resolution on the narrow column (max_error 15) so relaxation
    # does not dominate its selectivity estimate.
    s.bwdecompose("L", "w", residual_bits=4)
    s.bwdecompose("R", "v", 24)
    return s


def _pred(column, lo, hi):
    return Predicate(ColRef(column), ValueRange.between(lo, hi))


def test_scan_estimate_tracks_exact_candidates(session):
    pred = _pred("v", 100_000, 400_000)
    est = estimate_scan_candidates(session.catalog, "L", pred)
    exact = int(
        np.count_nonzero(
            (session.catalog.table("L").column("v").tail >= 100_000)
            & (session.catalog.table("L").column("v").tail <= 400_000)
        )
    )
    # The relaxed range rounds out by at most one residual step per side;
    # the histogram interpolates inside merged buckets.
    assert exact * 0.8 <= est <= exact * 1.25 + 600


def test_selectivity_is_a_fraction(session):
    sel = estimate_selectivity(session.catalog, "L", _pred("v", 0, DOMAIN // 4))
    assert 0.0 <= sel <= 1.0
    assert sel == pytest.approx(0.25, rel=0.2)


def test_theta_estimate_brackets_exact_pairs(session):
    catalog = session.catalog
    left = catalog.decomposition_of("L", "v")
    right = catalog.decomposition_of("R", "v")
    theta = Theta(ThetaOp.LT)
    card = estimate_theta_cardinality(
        left, right, theta,
        left_hist=catalog.histogram_of("L", "v"),
        right_hist=catalog.histogram_of("R", "v"),
    )
    lv = catalog.table("L").column("v").tail
    rv = catalog.table("R").column("v").tail
    exact = int(np.sum(np.searchsorted(np.sort(rv), lv, side="right")))
    exact_pairs = card.n_left * card.n_right - exact  # l < r pairs
    assert card.certain_pairs <= card.candidate_pairs
    assert card.candidate_pairs <= card.n_left * card.n_right
    assert card.candidate_pairs == pytest.approx(exact_pairs, rel=0.05)


def test_theta_estimate_scaled_by_selection(session):
    catalog = session.catalog
    left = catalog.decomposition_of("L", "v")
    right = catalog.decomposition_of("R", "v")
    card = estimate_theta_cardinality(left, right, Theta(ThetaOp.LT))
    half = card.scaled(0.5)
    assert half.n_left == card.n_left // 2
    assert half.candidate_pairs == pytest.approx(
        card.candidate_pairs * 0.5, rel=0.01
    )
    assert half.certain_pairs <= half.candidate_pairs


# ----------------------------------------------------------------------
# Delta-aware estimates (PR 10): pending rows are invisible to the
# histograms but always evaluated exactly — the estimator adds the exact
# delta row count on top of its base-segment figures.
# ----------------------------------------------------------------------
def _delta_session():
    rng = np.random.default_rng(23)
    s = Session()
    s.create_table(
        "L", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, 5_000)}
    )
    s.create_table(
        "R", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, 200)}
    )
    s.bwdecompose("L", "v", 24)
    s.bwdecompose("R", "v", 24)
    return s, rng


def test_scan_estimate_adds_exact_delta_rows():
    s, rng = _delta_session()
    pred = _pred("v", 0, DOMAIN // 4)
    base = estimate_scan_candidates(s.catalog, "L", pred)
    s.append("L", {"v": rng.integers(0, DOMAIN, 137)})
    assert estimate_scan_candidates(s.catalog, "L", pred) == base + 137
    s.compact("L")
    # Folded into base segments: back under histogram control (the delta
    # surcharge is gone; the histogram was rebuilt over base+delta).
    folded = estimate_scan_candidates(s.catalog, "L", pred)
    assert abs(folded - base) <= 137


def test_theta_estimate_adds_delta_cross_terms():
    s, rng = _delta_session()
    catalog = s.catalog
    left = catalog.decomposition_of("L", "v")
    right = catalog.decomposition_of("R", "v")
    theta = Theta(ThetaOp.LT)
    kw = dict(
        left_hist=catalog.histogram_of("L", "v"),
        right_hist=catalog.histogram_of("R", "v"),
    )
    base = estimate_theta_cardinality(left, right, theta, **kw)
    card = estimate_theta_cardinality(
        left, right, theta, left_delta_rows=50, right_delta_rows=7, **kw
    )
    assert card.n_left == base.n_left + 50
    assert card.n_right == base.n_right + 7
    expected = (
        base.candidate_pairs
        + 50 * card.n_right          # new-left × all-right
        + base.n_left * 7            # base-left × new-right
    )
    assert card.candidate_pairs == min(expected, card.n_left * card.n_right)
    assert card.candidate_pairs > base.candidate_pairs
