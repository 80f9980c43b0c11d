"""Tests for A&R theta joins (§IV-D / §VII-B extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theta import (
    PairCandidates,
    Theta,
    ThetaOp,
    theta_join_approx,
    theta_join_refine,
    theta_join_reference,
)
from repro.device.machine import Machine
from repro.errors import ExecutionError
from repro.storage.decompose import decompose_values

from pair_sets import pair_set


@pytest.fixture()
def machine():
    return Machine.paper_testbed()


def loaded(machine, values, residual_bits, label):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    machine.gpu.load_column(label, col, None)
    return col


class TestTheta:
    def test_exact_operators(self):
        l, r = np.array([1, 5]), np.array([3])
        assert Theta(ThetaOp.LT).exact(l[:, None], r[None, :]).tolist() == [[True], [False]]
        assert Theta(ThetaOp.GE).exact(l[:, None], r[None, :]).tolist() == [[False], [True]]
        assert Theta(ThetaOp.WITHIN, 2).exact(l[:, None], r[None, :]).tolist() == [[True], [True]]

    def test_band_needs_nonnegative_delta(self):
        with pytest.raises(ExecutionError):
            Theta(ThetaOp.WITHIN, -1)

    def test_certain_implies_exact_everywhere(self):
        rng = np.random.default_rng(0)
        lo_l = rng.integers(0, 50, 40)
        hi_l = lo_l + rng.integers(0, 10, 40)
        lo_r = rng.integers(0, 50, 40)
        hi_r = lo_r + rng.integers(0, 10, 40)
        for op in ThetaOp:
            theta = Theta(op, delta=5)
            certain = theta.certain(lo_l, hi_l, lo_r, hi_r)
            # sample extreme corners: θ must hold at all of them
            for a, b in ((lo_l, lo_r), (lo_l, hi_r), (hi_l, lo_r), (hi_l, hi_r)):
                assert np.all(~certain | theta.exact(a, b)), op

    def test_pair_candidates_validation(self):
        with pytest.raises(ExecutionError):
            PairCandidates(np.array([1, 2]), np.array([1]))


class TestThetaJoinPair:
    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_approx_superset_refine_exact(self, machine, op):
        rng = np.random.default_rng(hash(op.value) % 100)
        left_v = rng.integers(0, 500, 300)
        right_v = rng.integers(0, 500, 40)
        left = loaded(machine, left_v, 4, "l")
        right = loaded(machine, right_v, 3, "r")
        theta = Theta(op, delta=8)
        tl = machine.new_timeline()

        candidates = theta_join_approx(machine.gpu, tl, left, right, theta)
        truth = theta_join_reference(left_v, right_v, theta)
        assert pair_set(truth) <= pair_set(candidates)

        refined = theta_join_refine(machine.cpu, tl, left, right, theta, candidates)
        assert pair_set(refined) == pair_set(truth)

    def test_fully_resident_inputs_have_no_false_positives(self, machine):
        left_v = np.array([1, 10, 20])
        right_v = np.array([5, 15])
        left = loaded(machine, left_v, 0, "l")
        right = loaded(machine, right_v, 0, "r")
        tl = machine.new_timeline()
        theta = Theta(ThetaOp.LT)
        candidates = theta_join_approx(machine.gpu, tl, left, right, theta)
        assert pair_set(candidates) == pair_set(
            theta_join_reference(left_v, right_v, theta)
        )

    def test_empty_candidates_refine(self, machine):
        left = loaded(machine, np.array([100]), 0, "l")
        right = loaded(machine, np.array([1]), 0, "r")
        tl = machine.new_timeline()
        pairs = theta_join_approx(machine.gpu, tl, left, right, Theta(ThetaOp.LT))
        assert len(pairs) == 0
        refined = theta_join_refine(
            machine.cpu, tl, left, right, Theta(ThetaOp.LT), pairs
        )
        assert len(refined) == 0

    def test_cost_reflects_nested_loop(self, machine):
        left = loaded(machine, np.arange(2000), 4, "l")
        right = loaded(machine, np.arange(100), 4, "r")
        tl = machine.new_timeline()
        theta_join_approx(machine.gpu, tl, left, right, Theta(ThetaOp.EQ))
        gpu_seconds = tl.seconds_by_kind()["gpu"]
        # 2000 x 100 comparisons at the GPU arithmetic rate dominate
        assert gpu_seconds >= 2000 * 100 * 0.4e-9

    def test_tiling_boundary(self, machine):
        """Left side larger than one tile still joins correctly."""
        rng = np.random.default_rng(5)
        left_v = rng.integers(0, 100, 5000)
        right_v = rng.integers(0, 100, 7)
        left = loaded(machine, left_v, 2, "l")
        right = loaded(machine, right_v, 2, "r")
        tl = machine.new_timeline()
        theta = Theta(ThetaOp.EQ)
        refined = theta_join_refine(
            machine.cpu, tl, left, right, theta,
            theta_join_approx(machine.gpu, tl, left, right, theta),
        )
        assert pair_set(refined) == pair_set(
            theta_join_reference(left_v, right_v, theta)
        )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    residual=st.integers(0, 6),
    op=st.sampled_from(list(ThetaOp)),
    delta=st.integers(0, 20),
)
def test_property_theta_ar_equals_reference(seed, residual, op, delta):
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    left_v = rng.integers(0, 200, 80)
    right_v = rng.integers(0, 200, 30)
    left = decompose_values(left_v, residual_bits=residual)
    right = decompose_values(right_v, residual_bits=residual)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(op, delta=delta)
    tl = machine.new_timeline()
    refined = theta_join_refine(
        machine.cpu, tl, left, right, theta,
        theta_join_approx(machine.gpu, tl, left, right, theta),
    )
    truth = theta_join_reference(left_v, right_v, theta)
    assert pair_set(refined) == pair_set(truth)
