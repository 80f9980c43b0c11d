"""Tests for A&R grouping (§IV-E) and grouped aggregation helpers (§IV-F)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    grouped_avg,
    grouped_count,
    grouped_count_interval,
    grouped_max,
    grouped_min,
    grouped_sum,
    grouped_sum_interval,
)
from repro.core.candidates import Approximation
from repro.core.grouping import (
    GroupAssignment,
    combine_keys,
    group_approx,
    group_refine,
)
from repro.core.intervals import IntervalColumn
from repro.device.machine import Machine
from repro.errors import ExecutionError
from repro.storage.decompose import decompose_values
from repro.util import unique_inverse


@pytest.fixture()
def machine():
    return Machine.paper_testbed()


def load(machine, values, residual_bits, label):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    machine.gpu.load_column(label, col, None)
    return col


def all_rows(n):
    return Approximation(ids=np.arange(n, dtype=np.int64))


def classic_groups(*key_columns):
    """Ground truth: dense group ids over exact composite keys."""
    stacked = np.stack(key_columns, axis=1)
    _, gids = np.unique(stacked, axis=0, return_inverse=True)
    return gids


class TestCombineKeys:
    def test_two_columns(self):
        g0 = np.array([0, 0, 1, 1])
        c1 = np.array([5, 7, 5, 5])
        gids, n = combine_keys(g0, c1)
        assert n == 3
        assert gids[2] == gids[3] and gids[0] != gids[1]

    def test_empty(self):
        gids, n = combine_keys(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert n == 0 and gids.size == 0

    def test_overflow_guard(self):
        with pytest.raises(ExecutionError):
            combine_keys(np.array([1 << 40]), np.array([1 << 40]))


class TestGroupApprox:
    def test_exact_when_fully_resident(self, machine):
        keys = np.array([3, 1, 3, 2, 1, 3])
        col = load(machine, keys, 0, "k")
        tl = machine.new_timeline()
        out = group_approx(machine.gpu, tl, all_rows(6), [("k", col)])
        assert out.exact
        assert out.n_groups == 3
        assert np.array_equal(out.gids, classic_groups(keys))

    def test_approximate_grouping_is_coarser(self, machine):
        """Approximate groups merge values sharing a bucket — refinement
        splits them back out."""
        keys = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        col = load(machine, keys, 2, "k")  # buckets of 4
        tl = machine.new_timeline()
        out = group_approx(machine.gpu, tl, all_rows(8), [("k", col)])
        assert not out.exact
        assert out.n_groups == 2  # two buckets
        refined = group_refine(
            machine.cpu, tl, out, [("k", col)], all_rows(8)
        )
        assert refined.exact
        assert refined.n_groups == 8

    def test_multi_column_grouping(self, machine):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, 500)
        b = rng.integers(0, 2, 500)
        col_a = load(machine, a, 0, "a")
        col_b = load(machine, b, 0, "b")
        tl = machine.new_timeline()
        out = group_approx(machine.gpu, tl, all_rows(500), [("a", col_a), ("b", col_b)])
        truth = classic_groups(a, b)
        assert out.n_groups == len(np.unique(truth))
        # same partition (up to renumbering)
        for g in range(out.n_groups):
            members = truth[out.gids == g]
            assert len(np.unique(members)) == 1

    def test_grouping_over_candidate_subset(self, machine):
        keys = np.array([9, 9, 5, 5, 7])
        col = load(machine, keys, 0, "k")
        tl = machine.new_timeline()
        cand = Approximation(ids=np.array([4, 2, 0]))
        out = group_approx(machine.gpu, tl, cand, [("k", col)])
        assert out.n_groups == 3

    def test_requires_columns(self, machine):
        with pytest.raises(ExecutionError):
            group_approx(machine.gpu, machine.new_timeline(), all_rows(3), [])

    def test_group_refine_noop_when_exact(self, machine):
        keys = np.array([1, 2, 1])
        col = load(machine, keys, 0, "k")
        tl = machine.new_timeline()
        out = group_approx(machine.gpu, tl, all_rows(3), [("k", col)])
        assert group_refine(machine.cpu, tl, out, [("k", col)], all_rows(3)) is out


class TestGroupRefineEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        residual_bits=st.integers(0, 6),
        cardinality=st.integers(1, 40),
    )
    def test_property_refined_grouping_matches_classic(
        self, seed, residual_bits, cardinality
    ):
        machine = Machine.paper_testbed()
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, cardinality, 300)
        col = decompose_values(keys, residual_bits=residual_bits)
        machine.gpu.load_column("k", col, None)
        tl = machine.new_timeline()
        approx = group_approx(machine.gpu, tl, all_rows(300), [("k", col)])
        refined = group_refine(machine.cpu, tl, approx, [("k", col)], all_rows(300))
        truth = classic_groups(keys)
        assert refined.n_groups == len(np.unique(truth))
        for g in range(refined.n_groups):
            assert len(np.unique(truth[refined.gids == g])) == 1


class TestGroupAssignmentValidation:
    def test_gid_range_checked(self):
        with pytest.raises(ExecutionError):
            GroupAssignment(gids=np.array([0, 3]), n_groups=2, exact=True)

    def test_negative_gid_rejected(self):
        """A negative id would index from the far end inside the kernels."""
        with pytest.raises(ExecutionError, match="group id out of range"):
            GroupAssignment(gids=np.array([1, -1]), n_groups=2, exact=True)
        with pytest.raises(ExecutionError, match="group id out of range"):
            grouped_count(np.array([-1]), 2)

    def test_kernels_take_a_checked_assignment(self):
        groups = GroupAssignment(gids=np.array([0, 1, 0]), n_groups=2, exact=True)
        values = np.array([4, 5, 6])
        assert np.array_equal(grouped_sum(values, groups), grouped_sum(values, groups.gids, 2))
        assert np.array_equal(grouped_count(groups), [2, 1])
        assert np.allclose(grouped_avg(values, groups), [5.0, 5.0])
        with pytest.raises(ExecutionError, match="misaligned"):
            grouped_min(values[:2], groups)


_KEY_CASES = {
    "empty": [],
    "single": [42],
    "all-equal": [7] * 9,
    "negative": [-5, 3, -5, 0, -9, 3],
    "span == n": [10, 13, 10, 12],  # 10..13 over 4 keys: presence table
    "span == n + 1": [10, 14, 10, 12],  # 10..14 over 4 keys: sorted
    "span 2**61": [0, 1 << 61, 5, 0],
    "int64 ends": [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0],
}


class TestUniqueInverse:
    @pytest.mark.parametrize("case", list(_KEY_CASES))
    def test_equals_np_unique(self, case):
        keys = np.array(_KEY_CASES[case], dtype=np.int64)
        uniques, inverse = unique_inverse(keys)
        want_u, want_i = np.unique(keys, return_inverse=True)
        assert np.array_equal(uniques, want_u) and np.array_equal(inverse, want_i)
        assert uniques.dtype == np.int64 and inverse.dtype == np.int64

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 60),
        spread=st.sampled_from([1, 3, 60, 61, 200, 1 << 40]),
        offset=st.integers(-(1 << 40), 1 << 40),
    )
    def test_property_equals_np_unique_either_side_of_the_switch(
        self, seed, n, spread, offset
    ):
        keys = np.random.default_rng(seed).integers(0, spread, n) + offset
        uniques, inverse = unique_inverse(keys)
        want_u, want_i = np.unique(keys, return_inverse=True)
        assert np.array_equal(uniques, want_u) and np.array_equal(inverse, want_i)
        assert np.array_equal(uniques[inverse], keys)


class TestGroupedAggregates:
    def test_sum_count_min_max_avg(self):
        values = np.array([1, 2, 3, 4, 5])
        gids = np.array([0, 1, 0, 1, 0])
        assert np.array_equal(grouped_sum(values, gids, 2), [9, 6])
        assert np.array_equal(grouped_count(gids, 2), [3, 2])
        assert np.array_equal(grouped_min(values, gids, 2), [1, 2])
        assert np.array_equal(grouped_max(values, gids, 2), [5, 4])
        assert np.allclose(grouped_avg(values, gids, 2), [3.0, 3.0])

    def test_empty_group_in_avg_rejected(self):
        with pytest.raises(ExecutionError):
            grouped_avg(np.array([1]), np.array([0]), 2)

    def test_misaligned_rejected(self):
        with pytest.raises(ExecutionError):
            grouped_sum(np.array([1, 2]), np.array([0]), 1)

    def test_gid_out_of_range_rejected(self):
        with pytest.raises(ExecutionError):
            grouped_sum(np.array([1]), np.array([5]), 2)

    def test_interval_sums_bracket_exact(self):
        lo = np.array([1, 10, 100])
        hi = np.array([3, 12, 104])
        gids = np.array([0, 0, 1])
        bounds = grouped_sum_interval(IntervalColumn.from_bounds(lo, hi), gids, 2)
        assert bounds[0].lo == 11 and bounds[0].hi == 15
        assert bounds[1].lo == 100 and bounds[1].hi == 104

    def test_count_intervals(self):
        gids = np.array([0, 0, 1, 1, 1])
        certain = np.array([True, False, True, True, False])
        bounds = grouped_count_interval(certain, gids, 2)
        assert (bounds[0].lo, bounds[0].hi) == (1.0, 2.0)
        assert (bounds[1].lo, bounds[1].hi) == (2.0, 3.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_groups=st.integers(1, 20))
    def test_property_grouped_sums_match_python(self, seed, n_groups):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        values = rng.integers(-50, 50, n)
        gids = rng.integers(0, n_groups, n)
        got = grouped_sum(values, gids, n_groups)
        for g in range(n_groups):
            assert got[g] == int(values[gids == g].sum())
