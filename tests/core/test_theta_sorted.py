"""The sort-based interval join and the order-insensitive pair contract.

PERFORMANCE.md's PR-2 contract, pinned here:

1. the sorted strategy emits exactly the same candidate-pair *set* as the
   brute-force nested-loop oracle for every θ (property-tested over
   duplicate/tied bounds, empty inputs and single-row sides),
2. modeled Timeline charges are byte-identical whichever strategy produced
   the set, and whether the column caches are cold or warm,
3. order exists only at final materialization (canonicalization), never
   between pipeline operators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import PairCandidates
from repro.core.theta import (
    Theta,
    ThetaOp,
    theta_join_approx,
    theta_join_refine,
    theta_join_reference,
)
from repro.device.machine import Machine
from repro.errors import ExecutionError
from repro.storage.decompose import BwdColumn, decompose_values


@pytest.fixture()
def machine():
    return Machine.paper_testbed()


def loaded(machine, values, residual_bits, label):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    machine.gpu.load_column(label, col, None)
    return col


def empty_like(col: BwdColumn) -> BwdColumn:
    """A zero-row column sharing ``col``'s decomposition."""
    residual = (
        np.empty(0, dtype=np.uint64) if col.decomposition.residual_bits else None
    )
    return BwdColumn(col.decomposition, 0, np.empty(0, dtype=np.uint64), residual)


def spans_of(timeline):
    return [
        (s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase)
        for s in timeline.spans
    ]


class TestPairContract:
    def test_canonicalized_sorts_lexicographically(self):
        pairs = PairCandidates(np.array([2, 0, 2, 1]), np.array([1, 5, 0, 3]))
        out = pairs.canonicalized()
        assert out.left_positions.tolist() == [0, 1, 2, 2]
        assert out.right_positions.tolist() == [5, 3, 0, 1]

    def test_set_equals_ignores_order(self):
        a = PairCandidates(np.array([0, 1, 2]), np.array([5, 4, 3]))
        b = PairCandidates(np.array([2, 0, 1]), np.array([3, 5, 4]))
        assert a.set_equals(b)
        assert b.set_equals(a)
        assert not a.set_equals(PairCandidates(np.array([0, 1]), np.array([5, 4])))
        assert not a.set_equals(
            PairCandidates(np.array([0, 1, 2]), np.array([5, 4, 9]))
        )

    def test_narrowed_is_order_agnostic(self):
        pairs = PairCandidates(np.array([3, 1, 2]), np.array([0, 1, 2]))
        keep = np.array([True, False, True])
        out = pairs.narrowed(keep)
        assert out.pair_set() == {(3, 0), (2, 2)}

    def test_unknown_strategy_rejected(self, machine):
        left = loaded(machine, np.arange(10), 2, "l")
        right = loaded(machine, np.arange(10), 2, "r")
        with pytest.raises(ExecutionError):
            theta_join_approx(
                machine.gpu, machine.new_timeline(), left, right,
                Theta(ThetaOp.LT), strategy="quantum",
            )


class TestSortedEqualsBruteforce:
    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_pair_set_and_timeline_identical(self, machine, op):
        rng = np.random.default_rng(hash(op.value) % 1000)
        left_v = rng.integers(0, 300, 400)
        right_v = rng.integers(0, 300, 150)
        left = loaded(machine, left_v, 4, "l")
        right = loaded(machine, right_v, 3, "r")
        theta = Theta(op, delta=9)

        tl_sorted, tl_brute = machine.new_timeline(), machine.new_timeline()
        sorted_pairs = theta_join_approx(
            machine.gpu, tl_sorted, left, right, theta, strategy="sorted"
        )
        brute_pairs = theta_join_approx(
            machine.gpu, tl_brute, left, right, theta, strategy="bruteforce"
        )
        assert sorted_pairs.set_equals(brute_pairs)
        assert spans_of(tl_sorted) == spans_of(tl_brute)

        refined = theta_join_refine(
            machine.cpu, tl_sorted, left, right, theta, sorted_pairs
        )
        truth = theta_join_reference(left_v, right_v, theta)
        assert refined.pair_set() == truth.pair_set()

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_duplicate_and_tied_bounds(self, machine, op):
        # Heavy ties: few distinct values, buckets collapse many rows onto
        # identical interval bounds on both sides.
        left_v = np.array([5, 5, 5, 10, 10, 0, 15, 15, 15, 15])
        right_v = np.array([5, 5, 10, 10, 10, 15, 0, 0])
        left = loaded(machine, left_v, 2, "l")
        right = loaded(machine, right_v, 2, "r")
        theta = Theta(op, delta=3)
        sorted_pairs = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="sorted",
        )
        brute_pairs = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="bruteforce",
        )
        assert sorted_pairs.set_equals(brute_pairs)

    @pytest.mark.parametrize("op", list(ThetaOp))
    @pytest.mark.parametrize("empty_side", ["left", "right", "both"])
    def test_empty_inputs(self, machine, op, empty_side):
        template = loaded(machine, np.arange(20), 2, "l")
        left = empty_like(template) if empty_side in ("left", "both") else template
        right = empty_like(template) if empty_side in ("right", "both") else template
        theta = Theta(op, delta=2)
        for strategy in ("sorted", "bruteforce"):
            pairs = theta_join_approx(
                machine.gpu, machine.new_timeline(), left, right, theta,
                strategy=strategy,
            )
            assert len(pairs) == 0
            refined = theta_join_refine(
                machine.cpu, machine.new_timeline(), left, right, theta, pairs
            )
            assert len(refined) == 0

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_single_row_sides(self, machine, op):
        for i, (left_v, right_v) in enumerate((
            ([7], [7]), ([7], [3, 7, 20]), ([1, 5, 9], [5]), ([0], [64]),
        )):
            left = loaded(machine, np.array(left_v), 1, f"l{i}")
            right = loaded(machine, np.array(right_v), 1, f"r{i}")
            theta = Theta(op, delta=4)
            sorted_pairs = theta_join_approx(
                machine.gpu, machine.new_timeline(), left, right, theta,
                strategy="sorted",
            )
            brute_pairs = theta_join_approx(
                machine.gpu, machine.new_timeline(), left, right, theta,
                strategy="bruteforce",
            )
            assert sorted_pairs.set_equals(brute_pairs)

    def test_auto_picks_bruteforce_for_tiny_right_side(self, machine):
        """The tiled oracle path stays live as the auto fallback."""
        left = loaded(machine, np.arange(100), 2, "l")
        right = loaded(machine, np.arange(5), 2, "r")
        theta = Theta(ThetaOp.LE)
        auto = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta
        )
        brute = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="bruteforce",
        )
        # identical emission order proves the same (tiled) producer ran
        assert np.array_equal(auto.left_positions, brute.left_positions)
        assert np.array_equal(auto.right_positions, brute.right_positions)


class TestColdWarmTimelineIdentity:
    """Mirrors tests/storage/test_code_cache.py for the join path: cold
    (packed-stream) and warm (cached-view) executions must charge
    byte-identical modeled timelines."""

    @staticmethod
    def _cold_column(values, residual_bits):
        warm = decompose_values(np.asarray(values), residual_bits=residual_bits)
        return BwdColumn(
            warm.decomposition, warm.length,
            warm._approx_words, warm._residual_words,
        )

    @pytest.mark.parametrize("strategy", ["sorted", "bruteforce"])
    def test_join_cold_equals_warm(self, machine, strategy):
        rng = np.random.default_rng(11)
        left_v = rng.integers(0, 2000, 600)
        right_v = rng.integers(0, 2000, 200)
        theta = Theta(ThetaOp.WITHIN, 16)
        results = []
        for cold in (True, False):
            if cold:
                left = self._cold_column(left_v, 4)
                right = self._cold_column(right_v, 4)
            else:
                left = decompose_values(left_v, residual_bits=4)
                right = decompose_values(right_v, residual_bits=4)
            tl = machine.new_timeline()
            pairs = theta_join_approx(
                machine.gpu, tl, left, right, theta, strategy=strategy
            )
            # repeat on the now-warm column: spans must repeat identically
            theta_join_approx(
                machine.gpu, tl, left, right, theta, strategy=strategy
            )
            refined = theta_join_refine(
                machine.cpu, tl, left, right, theta, pairs
            )
            results.append((spans_of(tl), sorted(refined.pair_set())))
        assert results[0] == results[1]
        first_join, repeat_join = results[0][0][0], results[0][0][1]
        assert first_join == repeat_join


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    residual_left=st.integers(0, 6),
    residual_right=st.integers(0, 6),
    op=st.sampled_from(list(ThetaOp)),
    delta=st.integers(0, 25),
    domain=st.sampled_from([4, 40, 4000]),
    n_left=st.integers(1, 90),
    n_right=st.integers(1, 70),
)
def test_property_sorted_pair_set_equals_oracle(
    seed, residual_left, residual_right, op, delta, domain, n_left, n_right
):
    """The sorted join's candidate-pair set equals the brute-force oracle's
    across every θ, asymmetric residual widths, tiny tied domains and
    single-row sides — and charges an identical modeled timeline."""
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    left_v = rng.integers(0, domain, n_left)
    right_v = rng.integers(0, domain, n_right)
    left = decompose_values(left_v, residual_bits=residual_left)
    right = decompose_values(right_v, residual_bits=residual_right)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(op, delta=delta)

    tl_sorted, tl_brute = machine.new_timeline(), machine.new_timeline()
    sorted_pairs = theta_join_approx(
        machine.gpu, tl_sorted, left, right, theta, strategy="sorted"
    )
    brute_pairs = theta_join_approx(
        machine.gpu, tl_brute, left, right, theta, strategy="bruteforce"
    )
    assert sorted_pairs.set_equals(brute_pairs)
    assert spans_of(tl_sorted) == spans_of(tl_brute)

    refined = theta_join_refine(
        machine.cpu, tl_sorted, left, right, theta, sorted_pairs
    )
    truth = theta_join_reference(left_v, right_v, theta)
    assert refined.pair_set() == truth.pair_set()
