"""The certain-pair lower bound of the approximate theta count (PR 5).

``ApproxPairAggregate`` used to report ``[0, candidates]``; the lower
bound is now the number of pairs whose buckets satisfy θ for *every*
residual assignment — computed with the same sorted sweeps as the
candidate runs, never materializing a pair.
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.core import theta as theta_module
from repro.core.theta import (
    Theta,
    ThetaOp,
    _certain_pair_count,
    theta_certain_pair_count,
    theta_join_reference,
)
from pair_sets import bucket_bounds
from repro.storage.decompose import decompose_values

ALL_THETAS = [
    (ThetaOp.LT, 0), (ThetaOp.LE, 0), (ThetaOp.GT, 0), (ThetaOp.GE, 0),
    (ThetaOp.EQ, 0), (ThetaOp.WITHIN, 40), (ThetaOp.WITHIN, 700),
]


class TestCertainPairCount:
    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(31)
        lv = rng.integers(0, 16_000, 1_500)
        rv = rng.integers(0, 16_000, 400)
        left = decompose_values(lv, device_bits=24)  # 8 residual bits
        right = decompose_values(rv, device_bits=24)
        return lv, rv, left, right

    @pytest.mark.parametrize("op,delta", ALL_THETAS)
    def test_matches_brute_force_certainty(self, columns, op, delta):
        lv, rv, left, right = columns
        theta = Theta(op, delta)
        left_b, right_b = bucket_bounds(left), bucket_bounds(right)
        brute = int(theta.certain(
            left_b.lo[:, None], left_b.hi[:, None],
            right_b.lo[None, :], right_b.hi[None, :],
        ).sum())
        assert theta_certain_pair_count(left, right, theta) == brute

    @pytest.mark.parametrize("op,delta", ALL_THETAS)
    def test_lower_bounds_the_exact_join(self, columns, op, delta):
        lv, rv, left, right = columns
        theta = Theta(op, delta)
        certain = theta_certain_pair_count(left, right, theta)
        exact = len(theta_join_reference(lv, rv, theta))
        assert certain <= exact

    @pytest.mark.parametrize("op,delta", [(ThetaOp.WITHIN, 64), (ThetaOp.LT, 0),
                                          (ThetaOp.EQ, 0)])
    def test_exact_columns_make_certain_equal_exact(self, columns, op, delta):
        lv, rv, _, _ = columns
        theta = Theta(op, delta)
        left = decompose_values(lv, residual_bits=0)
        right = decompose_values(rv, residual_bits=0)
        assert theta_certain_pair_count(left, right, theta) == len(
            theta_join_reference(lv, rv, theta)
        )

    def test_left_ids_restrict_the_left_side(self, columns):
        lv, rv, left, right = columns
        theta = Theta(ThetaOp.GE, 0)
        ids = np.arange(0, len(lv), 3, dtype=np.int64)
        restricted = theta_certain_pair_count(left, right, theta, left_ids=ids)
        left_sub = decompose_values(lv[ids], device_bits=24)
        # Same decomposition domain is not guaranteed for the sliced data,
        # so compare against the brute-force certainty of the sliced bounds.
        left_b, right_b = bucket_bounds(left), bucket_bounds(right)
        brute = int(theta.certain(
            left_b.lo[ids][:, None], left_b.hi[ids][:, None],
            right_b.lo[None, :], right_b.hi[None, :],
        ).sum())
        assert restricted == brute
        assert left_sub.length == len(ids)  # silence the unused-var lint

    @pytest.mark.parametrize("op,delta", ALL_THETAS)
    def test_per_code_and_per_row_sweeps_agree(
        self, columns, monkeypatch, op, delta
    ):
        lv, rv, left, right = columns
        theta = Theta(op, delta)
        ids = np.arange(0, len(lv), 3, dtype=np.int64)
        counts = []
        for per_code in (True, False):
            monkeypatch.setattr(
                theta_module, "_per_code", lambda column, n_rows: per_code
            )
            counts.append(
                [_certain_pair_count(left, right, theta, s) for s in (None, ids)]
            )
        assert counts[0] == counts[1]

    def test_empty_sides(self, columns):
        lv, rv, left, right = columns
        theta = Theta(ThetaOp.LT)
        empty = np.empty(0, dtype=np.int64)
        assert theta_certain_pair_count(left, right, theta, left_ids=empty) == 0


class TestEngineBound:
    @pytest.fixture(scope="class")
    def session(self):
        rng = np.random.default_rng(8)
        s = Session()
        s.create_table("L", {"x": IntType()}, {"x": rng.integers(0, 9_000, 2_000)})
        s.create_table("R", {"x": IntType()}, {"x": rng.integers(0, 9_000, 500)})
        s.bwdecompose("L", "x", 24)
        s.bwdecompose("R", "x", 24)
        return s

    @pytest.mark.parametrize("op,delta", [("within", 700), ("<", 0), (">=", 0)])
    def test_bound_brackets_the_exact_count(self, session, op, delta):
        result = (
            session.table("L").theta_join("R", on="x", op=op, delta=delta)
            .count("n").run(mode="ar")
        )
        bound = result.approximate.bound("n")
        exact = result.scalar("n")
        assert bound.lo <= exact <= bound.hi
        assert bound.lo > 0  # the old [0, candidates] floor is gone here

    def test_selection_under_join_keeps_sound_zero_floor(self, session):
        # A WHERE clause may still drop left rows in refinement, so the
        # certain floor must stay 0 (conservative, sound).
        result = (
            session.table("L").where("x", "<=", 6_000)
            .theta_join("R", on="x", op="within", delta=700)
            .count("n").run(mode="ar")
        )
        bound = result.approximate.bound("n")
        assert bound.lo == 0
        assert bound.hi >= result.scalar("n")
