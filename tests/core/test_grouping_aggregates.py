"""Tests for A&R grouping (§IV-E) and grouped aggregation helpers (§IV-F)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntType, Session
from repro.core.aggregates import (
    fold,
    grouped_count,
    grouped_count_interval,
    grouped_max,
    grouped_min,
    grouped_sum,
    grouped_sum_interval,
    row_partials,
)
from repro.core.approximate import project_approx
from repro.core.candidates import Approximation
from repro.core.grouping import (
    GroupAssignment,
    combine_keys,
    group_approx_from_keys,
    group_refine,
)
from repro.core.intervals import IntervalColumn
from repro.core.pair_agg import group_pair_rows
from repro.device.machine import Machine
from repro.device.timeline import Timeline
from repro.engine.merge import Part, lower_aggregates, merge
from repro.engine.result import Result
from repro.errors import EmptyInputError, ExecutionError
from repro.plan.expr import ColRef
from repro.plan.logical import Aggregate, Query
from repro.storage.decompose import decompose_values
from repro.util import unique_inverse


def _avg(values, groups):
    """Per-group float64 means, the one way there is: ``fold``."""
    return fold("avg", row_partials("avg", values, len(values)), groups)


@pytest.fixture()
def machine():
    return Machine.paper_testbed()


def load(machine, values, residual_bits, label):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    machine.gpu.load_column(label, col, None)
    return col


def all_rows(n):
    return Approximation(ids=np.arange(n, dtype=np.int64))


def assigned(gids, n_groups):
    """A checked assignment over bare ids — what every kernel runs on."""
    return GroupAssignment(gids, n_groups, exact=True)


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


_KEY_CASES = {
    "empty": [],
    "single": [42],
    "all-equal": [7] * 9,
    "negative": [-5, 3, -5, 0, -9, 3],
    "span == n": [10, 13, 10, 12],  # 10..13 over 4 keys: presence table
    "span == n + 1": [10, 14, 10, 12],  # 10..14 over 4 keys: sorted
    "span 2**61": [0, 1 << 61, 5, 0],
    "int64 ends": [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0],
    # a span past int64: ``keys - keys.min()`` wraps (PR 22)
    "span 2**64": [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0,
                   np.iinfo(np.int64).max],
    "span 2**63 + 6": [np.iinfo(np.int64).min, 0, 5, 0],
    "span 2**63 + 1": [-(1 << 62), 1 << 62, 0, 1 << 62],
}


def _rank_pre_group(machine, keys):
    out = group_approx_from_keys(
        machine.gpu, machine.new_timeline(), [("k", keys, True)]
    )
    return out.gids, out.n_groups


def _rank_pair_rows(machine, keys):
    out = group_pair_rows([keys])
    return out.gids, out.n_groups


def _rank_host_fold(machine, keys):
    """``ArExecutor._refine_group``'s fold: GROUP BY a column the device
    never saw.  Result rows come in group-id order, so the ids are read
    back off the key column."""
    session = Session()
    session.create_table(
        "t", {"k": IntType(), "v": IntType()},
        {"k": keys, "v": np.arange(len(keys))},
    )
    session.execute("select bwdecompose(v, 8) from t")
    result = session.execute(
        "select k, count(*) as n from t where v >= 0 group by k", mode="ar"
    )
    ranked = np.asarray(result.columns["k"], dtype=np.int64)
    gids = np.array([int(np.flatnonzero(ranked == k)[0]) for k in keys], dtype=np.int64)
    return gids, result.row_count


#: every place keys are shifted to their minimum ahead of a composite
_KEY_RANKERS = {
    "group_approx_from_keys": _rank_pre_group,
    "group_pair_rows": _rank_pair_rows,
    "_refine_group": _rank_host_fold,
}


def pre_group(machine, tl, candidates, columns):
    """The engine's pre-grouping: project each column's bucket floors onto
    the candidates, then group on those payloads."""
    keyed = []
    for label, col in columns:
        payload = project_approx(
            machine.gpu, tl, col, label, candidates
        ).payload(label)
        keyed.append((label, payload.lo, payload.is_exact))
    return group_approx_from_keys(machine.gpu, tl, keyed)


class TestGroupApprox:
    def test_exact_when_fully_resident(self, machine):
        keys = np.array([3, 1, 3, 2, 1, 3])
        col = load(machine, keys, 0, "k")
        tl = machine.new_timeline()
        out = pre_group(machine, tl, all_rows(6), [("k", col)])
        assert out.exact
        assert out.n_groups == 3
        assert np.array_equal(out.gids, classic_groups(keys))

    def test_approximate_grouping_is_coarser(self, machine):
        """Approximate groups merge values sharing a bucket — refinement
        splits them back out."""
        keys = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        col = load(machine, keys, 2, "k")  # buckets of 4
        tl = machine.new_timeline()
        out = pre_group(machine, tl, all_rows(8), [("k", col)])
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
        out = pre_group(machine, tl, all_rows(500), [("a", col_a), ("b", col_b)])
        assert out.n_groups == 6
        assert np.array_equal(out.gids, classic_groups(a, b))

    def test_grouping_over_candidate_subset(self, machine):
        keys = np.array([9, 9, 5, 5, 7])
        col = load(machine, keys, 0, "k")
        tl = machine.new_timeline()
        cand = Approximation(ids=np.array([4, 2, 0]))
        out = pre_group(machine, tl, cand, [("k", col)])
        assert out.n_groups == 3

    def test_requires_columns(self, machine):
        with pytest.raises(ExecutionError):
            group_approx_from_keys(machine.gpu, machine.new_timeline(), [])

    def test_misaligned_column_rejected(self, machine):
        with pytest.raises(ExecutionError, match="'b' misaligned"):
            group_approx_from_keys(
                machine.gpu, machine.new_timeline(),
                [("a", np.arange(3), True), ("b", np.arange(2), True)],
            )

    def test_group_refine_noop_when_exact(self, machine):
        keys = np.array([1, 2, 1])
        col = load(machine, keys, 0, "k")
        tl = machine.new_timeline()
        out = pre_group(machine, tl, all_rows(3), [("k", col)])
        assert group_refine(machine.cpu, tl, out, [("k", col)], all_rows(3)) is out

    @pytest.mark.parametrize("caller", list(_KEY_RANKERS))
    @pytest.mark.parametrize("case", list(_KEY_CASES))
    def test_key_lattice_ranks_in_key_order_or_refuses(self, machine, case, caller):
        """One column over the key lattice, through every caller that shifts
        keys to their minimum: the sorted rank, or — where the keys span 62
        bits or more — the documented refusal.  A span taken in int64 wraps
        and used to number such keys out of order."""
        keys = np.array(_KEY_CASES[case], dtype=np.int64)
        if caller == "_refine_group" and not keys.size:
            pytest.skip("an empty column cannot be decomposed")
        span = int(keys.max()) - int(keys.min()) + 1 if keys.size else 1
        if span >= 1 << 62:
            with pytest.raises(ExecutionError, match="exceeds 62 bits"):
                _KEY_RANKERS[caller](machine, keys)
            return
        gids, n_groups = _KEY_RANKERS[caller](machine, keys)
        want_u, want_i = np.unique(keys, return_inverse=True)
        assert np.array_equal(gids, want_i) and n_groups == len(want_u)


def reference_group_from_keys(gpu, timeline, keyed):
    """The loop ``group_approx_from_keys`` replaced: rank after every
    column, one ``hash_group`` each (sound while no span wraps int64)."""
    n = len(keyed[0][1])
    gids, exact = np.zeros(n, dtype=np.int64), True
    n_groups = min(1, n)
    for label, keys, key_exact in keyed:
        keys = np.asarray(keys, dtype=np.int64)
        shifted = keys - int(keys.min()) if len(keys) else keys
        span = int(shifted.max(initial=0)) + 2
        gids, uniques = gpu.hash_group(
            gids * span + shifted, timeline, op=f"group.approx({label})"
        )
        n_groups, exact = len(uniques), exact and key_exact
    return GroupAssignment(gids=gids, n_groups=n_groups, exact=exact)


#: ``(lowest key, number of distinct values)`` per column shape.  Two
#: ``wide`` columns fill 60 bits of box; whatever follows forces the
#: mid-way renumbering.
_COLUMN_SHAPES = {
    "constant": (-7, 1),
    "narrow": (-3, 6),
    "medium": (-1000, 70_000),
    "wide": (-(1 << 29), 1 << 30),
}


GOLDEN_Q1_BOX_SPANS = [
    ("GTX 680", "gpu", "group.approx(returnflag)", 16000, 0.0002046, "approximate"),
    ("GTX 680", "gpu", "group.approx(linestatus)", 16000, 0.00010540000000000001,
     "approximate"),
]


class TestGroupFromKeysEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([0, 1, 2, 50, 400]),
        shapes=st.lists(st.sampled_from(list(_COLUMN_SHAPES)), min_size=1, max_size=4),
        exact=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_property_lexicographic_ranks_and_the_old_loops_ledger(
        self, seed, n, shapes, exact
    ):
        machine = Machine.paper_testbed()
        rng = np.random.default_rng(seed)
        columns = [
            rng.integers(0, _COLUMN_SHAPES[shape][1], n) + _COLUMN_SHAPES[shape][0]
            for shape in shapes
        ]
        keyed = [
            (f"c{i}", column, exact[i]) for i, column in enumerate(columns)
        ]
        tl, want_tl = machine.new_timeline(), machine.new_timeline()
        out = group_approx_from_keys(machine.gpu, tl, keyed)
        want = reference_group_from_keys(machine.gpu, want_tl, keyed)
        assert out.gids.dtype == np.int64
        assert np.array_equal(out.gids, want.gids)
        assert (out.n_groups, out.exact) == (want.n_groups, want.exact)
        assert tl.span_tuples() == want_tl.span_tuples()
        if n:
            assert np.array_equal(out.gids, classic_groups(*columns))

    def test_wide_boxes_renumber_midway(self, machine):
        """Three 30-bit columns: a 90-bit box, ranked in two stages."""
        rng = np.random.default_rng(3)
        columns = [rng.integers(-(1 << 29), 1 << 29, 200) for _ in range(3)]
        columns[1][::2] = columns[1][0]  # shared prefixes survive the stage
        keyed = [(f"c{i}", c, True) for i, c in enumerate(columns)]
        tl, want_tl = machine.new_timeline(), machine.new_timeline()
        out = group_approx_from_keys(machine.gpu, tl, keyed)
        reference_group_from_keys(machine.gpu, want_tl, keyed)
        assert np.array_equal(out.gids, classic_groups(*columns))
        assert tl.span_tuples() == want_tl.span_tuples()

    def test_golden_ledger_of_a_q1_shaped_box(self, machine):
        """Charges recorded from the rank-after-every-column loop at the
        commit before it was deleted (3 x 2 box, 1 000 rows, seed 11)."""
        rng = np.random.default_rng(11)
        keyed = [
            ("returnflag", rng.integers(65, 68, 1000), True),
            ("linestatus", rng.integers(70, 72, 1000), True),
        ]
        tl = machine.new_timeline()
        out = group_approx_from_keys(machine.gpu, tl, keyed)
        assert out.n_groups == 6
        assert tl.span_tuples() == GOLDEN_Q1_BOX_SPANS


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
        approx = pre_group(machine, tl, all_rows(300), [("k", col)])
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
            grouped_count(assigned(np.array([-1]), 2))

    def test_kernels_take_a_checked_assignment(self):
        groups = GroupAssignment(gids=np.array([0, 1, 0]), n_groups=2, exact=True)
        values = np.array([4, 5, 6])
        assert np.array_equal(grouped_sum(values, groups), [10, 5])
        assert np.array_equal(grouped_count(groups), [2, 1])
        assert np.allclose(_avg(values, groups), [5.0, 5.0])
        with pytest.raises(ExecutionError, match="misaligned"):
            grouped_min(values[:2], groups)


class TestUniqueInverse:
    @pytest.mark.parametrize("case", list(_KEY_CASES))
    def test_equals_np_unique(self, case):
        keys = np.array(_KEY_CASES[case], dtype=np.int64)
        uniques, inverse = unique_inverse(keys)
        want_u, want_i = np.unique(keys, return_inverse=True)
        assert np.array_equal(uniques, want_u) and np.array_equal(inverse, want_i)
        assert uniques.dtype == np.int64 and inverse.dtype == np.int64

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.int8, np.int32]
    )
    def test_narrow_keys_are_not_widened_and_do_not_wrap(self, dtype):
        """Unsigned keys are ranked at their own width; a narrow signed
        ``keys - lo`` that would wrap is taken in int64."""
        info = np.iinfo(dtype)
        top = np.array([info.max], dtype=dtype)
        for keys in (
            np.array([info.min, info.max, info.min], dtype=dtype),  # sorted
            top - np.array([0, 2, 0, 1, 3, 2, 2], dtype=dtype),  # every value
            top - np.array([0, 3, 0, 3, 3, 0], dtype=dtype),  # with gaps
            (np.arange(200).repeat(2) + info.min).astype(dtype),  # span > int8
        ):
            uniques, inverse = unique_inverse(keys)
            want_u, want_i = np.unique(keys, return_inverse=True)
            assert np.array_equal(uniques, want_u) and np.array_equal(inverse, want_i)
            assert inverse.dtype == np.int64
            assert uniques.dtype == (dtype if info.min == 0 else np.int64)

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
        groups = assigned(np.array([0, 1, 0, 1, 0]), 2)
        assert np.array_equal(grouped_sum(values, groups), [9, 6])
        assert np.array_equal(grouped_count(groups), [3, 2])
        assert np.array_equal(grouped_min(values, groups), [1, 2])
        assert np.array_equal(grouped_max(values, groups), [5, 4])
        assert np.allclose(_avg(values, groups), [3.0, 3.0])

    def test_empty_group_in_avg_rejected(self):
        with pytest.raises(ExecutionError):
            _avg(np.array([1]), assigned(np.array([0]), 2))

    def test_misaligned_rejected(self):
        with pytest.raises(ExecutionError):
            grouped_sum(np.array([1, 2]), assigned(np.array([0]), 1))

    def test_gid_out_of_range_rejected(self):
        with pytest.raises(ExecutionError):
            grouped_sum(np.array([1]), assigned(np.array([5]), 2))

    def test_interval_sums_bracket_exact(self):
        lo = np.array([1, 10, 100])
        hi = np.array([3, 12, 104])
        groups = assigned(np.array([0, 0, 1]), 2)
        bounds = grouped_sum_interval(IntervalColumn.from_bounds(lo, hi), groups)
        assert bounds[0].lo == 11 and bounds[0].hi == 15
        assert bounds[1].lo == 100 and bounds[1].hi == 104

    def test_count_intervals(self):
        groups = assigned(np.array([0, 0, 1, 1, 1]), 2)
        certain = np.array([True, False, True, True, False])
        bounds = grouped_count_interval(certain, groups)
        assert (bounds[0].lo, bounds[0].hi) == (1.0, 2.0)
        assert (bounds[1].lo, bounds[1].hi) == (2.0, 3.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_groups=st.integers(1, 20))
    def test_property_grouped_sums_match_python(self, seed, n_groups):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        values = rng.integers(-50, 50, n)
        gids = rng.integers(0, n_groups, n)
        got = grouped_sum(values, assigned(gids, n_groups))
        for g in range(n_groups):
            assert got[g] == int(values[gids == g].sum())

    # ------------------------------------------------------------------
    # One group is a reduction, not a scatter (PR 18)
    # ------------------------------------------------------------------
    @staticmethod
    def _scattered(ufunc, start, values, gids, n_groups):
        """The reference: ``ufunc.at`` into one slot per group."""
        out = np.full(n_groups, start, dtype=np.int64)
        ufunc.at(out, gids, np.asarray(values, dtype=np.int64))
        return out

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        st.sampled_from(["none", "assignment"]),
    )
    def test_one_group_reduces_exactly_like_the_scatter(self, values, how):
        """Ungrouped (``None``) or a checked one-group assignment: the int64
        fold the scatter computes, wrap-around, empty input and all — and
        the same single float64 division."""
        values = np.array(values, dtype=np.int64)
        zeros = np.zeros(len(values), dtype=np.int64)
        groups = {"none": None, "assignment": assigned(zeros, 1)}[how]
        i64 = np.iinfo(np.int64)
        for kernel, ufunc, start in (
            (grouped_sum, np.add, 0),
            (grouped_min, np.minimum, i64.max),
            (grouped_max, np.maximum, i64.min),
        ):
            got = kernel(values, groups)
            assert got.dtype == np.int64 and got.shape == (1,)
            assert np.array_equal(got, self._scattered(ufunc, start, values, zeros, 1))
        if len(values):
            want = self._scattered(np.add, 0, values, zeros, 1).astype(np.float64)
            assert np.array_equal(_avg(values, groups), want / len(values))
        else:
            with pytest.raises(ExecutionError, match="avg over an empty group"):
                _avg(values, groups)

    def test_one_group_still_checks_alignment_and_range(self):
        with pytest.raises(ExecutionError, match="misaligned"):
            grouped_min(np.array([1, 2]), assigned(np.array([0]), 1))
        with pytest.raises(ExecutionError, match="out of range"):
            grouped_sum(np.array([1]), assigned(np.array([1]), 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_groups=st.sampled_from([None, 1, 2, 7]),
           degenerate=st.booleans(), big=st.booleans())
    def test_vanishing_rows_adjust_the_sums(self, seed, n_groups, degenerate, big):
        """``certain=``: the sums of the bounds hulled with 0 at every
        uncertain row — the reference hulls copies of both bound arrays,
        as the executor used to — without touching the bounds."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        scale = 2**61 if big else 1_000    # big: the int64 sums wrap
        lo = rng.integers(-scale, scale, n)
        hi = lo if degenerate else lo + rng.integers(0, 50, n)
        bounds = IntervalColumn.from_bounds(lo, hi)
        certain = rng.random(n) < rng.choice([0.0, 0.5, 0.9, 1.0])
        gids = rng.integers(0, n_groups or 1, n)
        groups = None if n_groups is None else assigned(gids, n_groups)

        want_lo, want_hi = np.array(lo), np.array(hi)
        want_lo[~certain] = np.minimum(want_lo[~certain], 0)
        want_hi[~certain] = np.maximum(want_hi[~certain], 0)
        held = (bounds.lo.copy(), bounds.hi.copy())
        try:
            got = grouped_sum_interval(bounds, groups, certain=certain)
        except ExecutionError as exc:   # wrapped past each other: refused alike
            assert big and "malformed interval" in str(exc)
            return
        assert np.array_equal(bounds.lo, held[0]) and np.array_equal(bounds.hi, held[1])
        for g, interval in enumerate(got):
            assert interval.lo == float(want_lo[gids == g].sum())
            assert interval.hi == float(want_hi[gids == g].sum())
        assert len(got) == (n_groups or 1)


# ----------------------------------------------------------------------
# The algebra (PR 19): fold each part, merge the folds ≡ one fold over all
# ----------------------------------------------------------------------
FUNCS = ("count", "sum", "min", "max", "avg")
_I64 = st.integers(-(2**63), 2**63 - 1)          # sums (and v·w) wrap
_ROW = st.tuples(_I64, st.integers(1, 9), st.integers(-2, 2), st.integers(0, 1),
                 st.integers(0, 4))              # value, weight, key, key, part


def _query(func, grouped):
    expr = None if func == "count" else ColRef("v")
    return Query(
        table="t", group_by=("k1", "k2") if grouped else (),
        aggregates=(Aggregate(func, expr, "x"),),
    )


def _run(query, values, weights, k1, k2, *, lowered=True):
    """What an engine answers over these weighted rows, every aggregate one
    fold of the rows as partials: the *lowered* query (what a part runs), or
    the query as written (``avg`` divided) — one run's final answer."""
    groups, columns = None, {}
    if query.group_by:
        groups = group_pair_rows([k1, k2])
        columns = {
            "k1": groups.representatives(k1.take),
            "k2": groups.representatives(k2.take),
        }
    aggregates = lower_aggregates(query.aggregates) if lowered else query.aggregates
    for agg in aggregates:
        operand = None if agg.func == "count" else values
        columns[agg.alias] = fold(
            agg.func, row_partials(agg.func, operand, weights), groups
        )
    n_groups = 1 if groups is None else groups.n_groups
    return Result(columns=columns, row_count=n_groups, timeline=Timeline())


def _attempt(thunk):
    try:
        return thunk()
    except EmptyInputError as exc:
        return str(exc)


def _same_bytes(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    (cols_a, rows_a), (cols_b, rows_b) = a, b
    return rows_a == rows_b and list(cols_a) == list(cols_b) and all(
        cols_a[c].dtype == cols_b[c].dtype and cols_a[c].tobytes() == cols_b[c].tobytes()
        for c in cols_a
    )


class TestPartialAggregatesAreAMonoid:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(_ROW, max_size=24), n_parts=st.integers(1, 5),
        grouped=st.booleans(), order=st.randoms(use_true_random=False),
    )
    def test_fold_the_parts_merge_the_folds(self, rows, n_parts, grouped, order):
        """Any split of the rows into parts — some empty, some holding groups
        no other part has — merged in any order is one fold over all the
        rows, byte for byte; an empty part is the identity; the empty-input
        error is raised iff every part is empty, worded as one run words it."""
        cols = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [
            np.empty(0, dtype=np.int64)] * 5
        values, weights, k1, k2, part_of = cols
        part_of = part_of % n_parts
        for func in FUNCS:
            query = _query(func, grouped)
            rows_ = (values, weights, k1, k2)
            whole = _attempt(lambda: _run(query, *rows_, lowered=False))
            if not isinstance(whole, str):
                whole = (whole.columns, whole.row_count)
            alone = _attempt(lambda: merge(query, [Part(_run(query, *rows_))]))
            assert _same_bytes(alone, whole), "a merge of one part is that part"

            parts = []
            for p in range(n_parts):
                at = part_of == p
                run = _attempt(lambda: _run(query, values[at], weights[at], k1[at], k2[at]))
                if not isinstance(run, str):    # an empty slice contributes nothing
                    parts.append(Part(run))
                else:
                    assert not at.any() and func in ("min", "max")
            merged = _attempt(lambda: merge(query, parts))
            assert _same_bytes(merged, whole), (func, grouped)

            shuffled = list(parts)
            order.shuffle(shuffled)
            assert _same_bytes(_attempt(lambda: merge(query, shuffled)), whole)

            none = np.empty(0, dtype=np.int64)
            identity = _attempt(lambda: _run(query, none, none, none, none))
            if not isinstance(identity, str):
                assert _same_bytes(
                    _attempt(lambda: merge(query, parts + [Part(identity)])), whole
                )

            raises = isinstance(whole, str)
            assert raises == (len(values) == 0 and not grouped and func in ("min", "max", "avg"))
            if raises:
                assert whole == ("avg over an empty group" if func == "avg"
                                 else f"{func} of an empty result")

    def test_unit_rows_are_counted_not_summed(self):
        """``weights`` an ``int``: that many rows of multiplicity one."""
        values = np.array([5, 7, 9, 11])
        groups = assigned(np.array([0, 1, 0, 0]), 2)
        ones = np.ones(4, dtype=np.int64)
        for func in FUNCS:
            operand = None if func == "count" else values
            for g in (groups, None):
                assert np.array_equal(
                    fold(func, row_partials(func, operand, 4), g),
                    fold(func, row_partials(func, operand, ones), g),
                )
        with pytest.raises(ExecutionError, match="sum requires an argument"):
            row_partials("sum", None, 4)
        with pytest.raises(ExecutionError, match="unknown aggregate"):
            fold("median", row_partials("sum", values, 4), None)


# ----------------------------------------------------------------------
# Group-major rows (PR 24): slices reduce to what the scatter gives
# ----------------------------------------------------------------------
def _folded(func, values, groups):
    try:
        out = fold(func, row_partials(func, values, len(values)), groups)
    except EmptyInputError as exc:
        return str(exc)
    return out.dtype, out.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_I64, st.integers(0, 6), st.booleans()), max_size=40),
    n_groups=st.sampled_from([1, 2, 7]),
    func=st.sampled_from(FUNCS),
)
def test_group_major_rows_fold_like_scattered_ones(rows, n_groups, func):
    """The fold over rows taken into group-major order, their assignment
    knowing its ``starts``, is byte for byte the scattered fold over the
    rows as they came (sums wrap alike, an empty ``avg`` refuses alike) —
    also once a mask has narrowed the ordered rows and emptied groups, with
    one group, and with no row; ``counts`` and ``representatives`` agree."""
    values = np.array([v for v, _, _ in rows], dtype=np.int64)
    gids = np.array([g % n_groups for _, g, _ in rows], dtype=np.int64)
    kept = np.array([k for _, _, k in rows], dtype=bool)
    order = np.argsort(gids, kind="stable")
    for mask in (np.ones(len(rows), dtype=bool), kept):
        came = assigned(gids[mask], n_groups)
        in_order = order[mask[order]]
        starts = np.searchsorted(gids[in_order], np.arange(n_groups + 1))
        ordered = GroupAssignment(gids[in_order], n_groups, True, starts)
        assert _folded(func, values[in_order], ordered) == _folded(
            func, values[mask], came
        )
        assert np.array_equal(ordered.counts, came.counts)
        assert np.array_equal(
            ordered.representatives((gids[in_order] + 10).take),
            came.representatives((gids[mask] + 10).take),
        )


def test_group_boundaries_are_checked_against_the_rows():
    gids = np.array([0, 0, 1])
    with pytest.raises(ExecutionError, match="boundaries misaligned"):
        GroupAssignment(gids, 2, True, np.array([0, 2]))        # n_groups + 1
    with pytest.raises(ExecutionError, match="boundaries misaligned"):
        GroupAssignment(gids, 2, True, np.array([0, 2, 4]))     # past the rows
    with pytest.raises(ExecutionError, match="out of range"):
        GroupAssignment(gids + 1, 2, True, np.array([0, 2, 3]))
