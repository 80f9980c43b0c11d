"""The sort-based interval join and the order-insensitive pair contract.

PERFORMANCE.md's PR-2 contract, pinned here:

1. the join emits exactly the candidate-pair *set* of the |L|·|R| nested
   loop over bucket bounds, and refines to :func:`theta_join_reference`,
   for every θ — property-tested over duplicate-heavy sides, one-code
   sides, ``delta = 0``, right sides of 0 to 31 rows, a whole column and a
   selected subset, deciding per distinct code and per row alike,
2. modeled Timeline charges are byte-identical whichever sweep found the
   set, and whether the column caches are cold or warm,
3. order exists only at final materialization (canonicalization), never
   between pipeline operators.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import theta as theta_module
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

from pair_sets import narrowed, pair_set, set_equals


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


def forced_sweep(per_code):
    """Sweep the left side per distinct code (True) or per row (False)."""
    return mock.patch.object(
        theta_module, "_per_code", lambda column, n_rows: per_code
    )


class TestPairContract:
    def test_canonicalized_sorts_lexicographically(self):
        pairs = PairCandidates(np.array([2, 0, 2, 1]), np.array([1, 5, 0, 3]))
        out = pairs.canonicalized()
        assert out.left_positions.tolist() == [0, 1, 2, 2]
        assert out.right_positions.tolist() == [5, 3, 0, 1]

    def test_set_equals_ignores_order(self):
        a = PairCandidates(np.array([0, 1, 2]), np.array([5, 4, 3]))
        b = PairCandidates(np.array([2, 0, 1]), np.array([3, 5, 4]))
        assert set_equals(a, b)
        assert set_equals(b, a)
        assert not set_equals(a, PairCandidates(np.array([0, 1]), np.array([5, 4])))
        assert not set_equals(
            a, PairCandidates(np.array([0, 1, 2]), np.array([5, 4, 9]))
        )

    def test_narrowed_is_order_agnostic(self):
        pairs = PairCandidates(np.array([3, 1, 2]), np.array([0, 1, 2]))
        keep = np.array([True, False, True])
        out = narrowed(pairs, keep)
        assert pair_set(out) == {(3, 0), (2, 2)}


class TestProducerShim:
    """``strategy`` / ``emit`` name the one producer: the plain call and the
    named one are the same join, and any other name is refused."""

    def test_named_producer_is_the_plain_call(self, machine):
        left = loaded(machine, np.arange(60) * 7 % 50, 2, "l")
        right = loaded(machine, np.arange(30), 2, "r")
        theta = Theta(ThetaOp.WITHIN, 3)
        tl_plain, tl_named = machine.new_timeline(), machine.new_timeline()
        plain = theta_join_approx(machine.gpu, tl_plain, left, right, theta)
        named = theta_join_approx(
            machine.gpu, tl_named, left, right, theta,
            strategy="sorted", emit="runs",
        )
        assert set_equals(plain, named)
        assert tl_plain.span_tuples() == tl_named.span_tuples()

    @pytest.mark.parametrize("strategy,emit", [
        ("bruteforce", "runs"), ("auto", "runs"), ("sorted", "pairs"),
        ("sorted", "auto"), ("quantum", "runs"),
    ])
    def test_any_other_producer_is_refused(self, machine, strategy, emit):
        left = loaded(machine, np.arange(10), 2, "l")
        with pytest.raises(ExecutionError):
            theta_join_approx(
                machine.gpu, machine.new_timeline(), left, left,
                Theta(ThetaOp.LT), strategy=strategy, emit=emit,
            )


class TestSortedEqualsBruteforce:
    """Fixed cases of the property below: the sorted sweep finds the pair
    set of the brute-force |L|·|R| nested loop (:func:`possible_pairs`)
    and refines to :func:`theta_join_reference`, per code and per row
    alike, on one modeled ledger."""

    @staticmethod
    def check(machine, left_v, right_v, residual_bits, theta):
        left = decompose_values(np.asarray(left_v), residual_bits=residual_bits[0])
        right = decompose_values(
            np.asarray(right_v), residual_bits=residual_bits[1]
        )
        expected = possible_pairs(left, right, theta)
        truth = theta_join_reference(left_v, right_v, theta)
        ledgers = []
        for per_code in (True, False):
            with forced_sweep(per_code):
                tl = machine.new_timeline()
                pairs = theta_join_approx(machine.gpu, tl, left, right, theta)
                assert set_equals(pairs, expected), per_code
                refined = theta_join_refine(
                    machine.cpu, tl, left, right, theta, pairs
                )
                assert pair_set(refined) == pair_set(truth), per_code
            ledgers.append(spans_of(tl))
        assert ledgers[0] == ledgers[1]

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_pair_set_and_timeline_identical(self, machine, op):
        rng = np.random.default_rng(list(ThetaOp).index(op))
        self.check(
            machine, rng.integers(0, 300, 400), rng.integers(0, 300, 150),
            (4, 3), Theta(op, delta=9),
        )

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_duplicate_and_tied_bounds(self, machine, op):
        # Heavy ties: few distinct values, buckets collapse many rows onto
        # identical interval bounds on both sides.
        self.check(
            machine, [5, 5, 5, 10, 10, 0, 15, 15, 15, 15],
            [5, 5, 10, 10, 10, 15, 0, 0], (2, 2), Theta(op, delta=3),
        )

    @pytest.mark.parametrize("op", list(ThetaOp))
    def test_single_row_sides(self, machine, op):
        for left_v, right_v in (
            ([7], [7]), ([7], [3, 7, 20]), ([1, 5, 9], [5]), ([0], [64]),
        ):
            self.check(machine, left_v, right_v, (1, 1), Theta(op, delta=4))

    @pytest.mark.parametrize("op", list(ThetaOp))
    @pytest.mark.parametrize("empty_side", ["left", "right", "both"])
    def test_empty_inputs(self, machine, op, empty_side):
        template = loaded(machine, np.arange(20), 2, "l")
        left = empty_like(template) if empty_side in ("left", "both") else template
        right = empty_like(template) if empty_side in ("right", "both") else template
        theta = Theta(op, delta=2)
        pairs = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta
        )
        assert len(pairs) == 0
        refined = theta_join_refine(
            machine.cpu, machine.new_timeline(), left, right, theta, pairs
        )
        assert len(refined) == 0


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

    @pytest.mark.parametrize("per_code", [True, False], ids=["code", "row"])
    def test_join_cold_equals_warm(self, machine, per_code):
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
            with forced_sweep(per_code):
                pairs = theta_join_approx(machine.gpu, tl, left, right, theta)
                # repeat on the now-warm column: spans must repeat identically
                theta_join_approx(machine.gpu, tl, left, right, theta)
                refined = theta_join_refine(
                    machine.cpu, tl, left, right, theta, pairs
                )
            results.append((spans_of(tl), sorted(pair_set(refined))))
        assert results[0] == results[1]
        first_join, repeat_join = results[0][0][0], results[0][0][1]
        assert first_join == repeat_join


def possible_pairs(left, right, theta, left_ids=None) -> PairCandidates:
    """The |L|·|R| nested loop over bucket bounds — every pair whose
    buckets could satisfy θ — restricted to ``left_ids`` when given."""

    def bounds(col):
        dec = col.decomposition
        lo = dec.approx_lower_bounds(col.approx_codes())
        return lo, lo + dec.max_error

    (l_lo, l_hi), (r_lo, r_hi) = bounds(left), bounds(right)
    rows = np.arange(left.length) if left_ids is None else left_ids
    li, ri = np.nonzero(theta.possible(
        l_lo[rows, None], l_hi[rows, None], r_lo[None, :], r_hi[None, :]
    ))
    return PairCandidates(rows[li], ri)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    residual_left=st.integers(0, 13),
    residual_right=st.integers(0, 13),
    op=st.sampled_from(list(ThetaOp)),
    delta=st.sampled_from([0, 1, 7, 25]),
    domain=st.sampled_from([1, 4, 40, 4000]),
    n_left=st.integers(1, 90),
    n_right=st.sampled_from([0, 1, 2, 4, 31]),
    subset=st.booleans(),
)
def test_property_sorted_pair_set_equals_oracle(
    seed, residual_left, residual_right, op, delta, domain, n_left, n_right,
    subset,
):
    """The join's candidate-pair set is the nested loop's across every θ,
    asymmetric residual widths (a residual as wide as the domain leaves a
    one-code side, ``approx_bits == 0``), duplicate-heavy domains, tiny
    and empty right sides, a whole column and a scrambled subset; it
    refines to :func:`theta_join_reference`; and deciding per distinct
    code or per row finds the same set on an identical modeled ledger."""
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    left_v = rng.integers(0, domain, n_left)
    right_v = rng.integers(0, domain, max(n_right, 1))
    left = decompose_values(left_v, residual_bits=residual_left)
    right = decompose_values(right_v, residual_bits=residual_right)
    if n_right == 0:
        right, right_v = empty_like(right), right_v[:0]
    left_ids = (
        rng.permutation(n_left)[: rng.integers(0, n_left + 1)]
        if subset else None
    )
    theta = Theta(op, delta=delta)
    expected = possible_pairs(left, right, theta, left_ids)
    truth = theta_join_reference(left_v, right_v, theta)
    if left_ids is not None:
        truth = narrowed(truth, np.isin(truth.left_positions, left_ids))

    ledgers = []
    for per_code in (True, False):
        with forced_sweep(per_code):
            tl = machine.new_timeline()
            pairs = theta_join_approx(
                machine.gpu, tl, left, right, theta, left_ids=left_ids
            )
            assert set_equals(pairs, expected)
            refined = theta_join_refine(machine.cpu, tl, left, right, theta, pairs)
            assert set_equals(refined, truth)
        ledgers.append(tl.span_tuples())
    assert ledgers[0] == ledgers[1]
