"""Tests for error-bound interval arithmetic — DESIGN.md invariant 4."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import grouped_sum_interval
from repro.core.intervals import Interval, IntervalColumn
from repro.errors import BoundOverflowError, ExecutionError


def column(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.int64)
    hi = np.array([p[1] for p in pairs], dtype=np.int64)
    return IntervalColumn.from_bounds(lo, hi)


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(2.0, 6.0)
        assert iv.width == 4.0
        assert iv.midpoint == 4.0
        assert not iv.is_exact
        assert iv.contains(2.0) and iv.contains(6.0) and not iv.contains(6.1)

    def test_exact_interval(self):
        assert Interval(3.0, 3.0).is_exact

    def test_malformed_rejected(self):
        with pytest.raises(ExecutionError):
            Interval(5.0, 4.0)


class TestIntervalColumnConstruction:
    def test_exact_constructor(self):
        c = IntervalColumn.exact(np.array([1, 2, 3]))
        assert c.is_exact and c.refinable
        assert c.max_error == 0

    def test_from_bounds_detects_exactness(self):
        assert column([(1, 1), (2, 2)]).refinable
        assert not column([(1, 2)]).refinable

    def test_misaligned_rejected(self):
        with pytest.raises(ExecutionError):
            IntervalColumn(np.array([1, 2]), np.array([3]), refinable=False)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ExecutionError):
            column([(5, 3)])

    def test_take(self):
        c = column([(0, 1), (2, 3), (4, 5)]).take(np.array([2, 0]))
        assert np.array_equal(c.lo, [4, 0])
        assert np.array_equal(c.hi, [5, 1])

    def test_len_and_nbytes(self):
        c = column([(0, 1), (2, 3)])
        assert len(c) == 2
        assert c.nbytes == 32


class TestArithmetic:
    def test_add(self):
        c = column([(1, 2)]).add(column([(10, 20)]))
        assert (c.lo[0], c.hi[0]) == (11, 22)

    def test_sub(self):
        c = column([(1, 2)]).sub(column([(10, 20)]))
        assert (c.lo[0], c.hi[0]) == (-19, -8)

    def test_neg(self):
        c = column([(1, 2)]).neg()
        assert (c.lo[0], c.hi[0]) == (-2, -1)

    def test_mul_mixed_signs(self):
        c = column([(-2, 3)]).mul(column([(-5, 4)]))
        assert (c.lo[0], c.hi[0]) == (-15, 12)

    def test_mul_destroys_refinability(self):
        """§IV-G destructive distributivity: inexact × anything ⇒ not refinable."""
        inexact = column([(1, 2)])
        exact = IntervalColumn.exact(np.array([3]))
        assert not inexact.mul(exact).refinable
        assert not inexact.mul(inexact).refinable
        assert exact.mul(exact).refinable

    def test_add_refinability(self):
        """Exact + exact stays refinable; inexact inputs are conservatively
        marked non-refinable (our engine recomputes on the host)."""
        assert column([(1, 2)]).add(column([(3, 9)])).refinable is False
        a = IntervalColumn.exact(np.array([1]))
        assert a.add(a).refinable

    def test_floordiv(self):
        c = column([(10, 20)]).floordiv(column([(2, 4)]))
        assert (c.lo[0], c.hi[0]) == (2, 10)

    def test_floordiv_zero_rejected(self):
        with pytest.raises(ExecutionError):
            column([(1, 2)]).floordiv(column([(-1, 1)]))

    def test_sqrt_floor_brackets(self):
        c = column([(16, 26)]).sqrt_floor()
        assert c.lo[0] <= 4 and c.hi[0] >= 5

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ExecutionError):
            column([(-4, 4)]).sqrt_floor()

    def test_power_odd(self):
        c = column([(-2, 3)]).power(3)
        assert (c.lo[0], c.hi[0]) == (-8, 27)

    def test_power_even_crossing_zero(self):
        c = column([(-2, 3)]).power(2)
        assert (c.lo[0], c.hi[0]) == (0, 9)

    def test_power_negative_exponent_rejected(self):
        with pytest.raises(ExecutionError):
            column([(1, 2)]).power(-1)

    def test_scalar_ops(self):
        c = column([(1, 2)])
        assert (c.add_scalar(5).lo[0], c.add_scalar(5).hi[0]) == (6, 7)
        assert (c.mul_scalar(3).lo[0], c.mul_scalar(3).hi[0]) == (3, 6)
        neg = c.mul_scalar(-3)
        assert (neg.lo[0], neg.hi[0]) == (-6, -3)


def sum_bounds(c: IntervalColumn):
    """The ungrouped sum's bounds, as the executor takes them."""
    iv, = grouped_sum_interval(c, None)
    return iv


class TestAggregateBounds:
    def test_sum_interval(self):
        iv = sum_bounds(column([(1, 2), (10, 20)]))
        assert (iv.lo, iv.hi) == (11.0, 22.0)

    def test_sum_empty(self):
        iv = sum_bounds(column([]))
        assert iv.is_exact and iv.lo == 0


# ----------------------------------------------------------------------
# Property: soundness — op(concrete) ∈ op(intervals)
# ----------------------------------------------------------------------
_bound_pairs = st.tuples(st.integers(-200, 200), st.integers(0, 50)).map(
    lambda t: (t[0], t[0] + t[1])
)


@settings(max_examples=120, deadline=None)
@given(
    a=_bound_pairs, b=_bound_pairs,
    fa=st.floats(0, 1), fb=st.floats(0, 1),
    op=st.sampled_from(["add", "sub", "mul"]),
)
def test_property_arithmetic_soundness(a, b, fa, fb, op):
    ca, cb = column([a]), column([b])
    va = round(a[0] + fa * (a[1] - a[0]))
    vb = round(b[0] + fb * (b[1] - b[0]))
    out = getattr(ca, op)(cb)
    concrete = {"add": va + vb, "sub": va - vb, "mul": va * vb}[op]
    assert out.lo[0] <= concrete <= out.hi[0]


@settings(max_examples=80, deadline=None)
@given(a=_bound_pairs, d=st.integers(1, 40), fa=st.floats(0, 1))
def test_property_division_soundness(a, d, fa):
    ca = column([a])
    cd = IntervalColumn.exact(np.array([d]))
    va = round(a[0] + fa * (a[1] - a[0]))
    out = ca.floordiv(cd)
    assert out.lo[0] <= va // d <= out.hi[0]


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(_bound_pairs, min_size=1, max_size=30),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_sum_bounds_contain_concrete_sum(pairs, seed):
    rng = np.random.default_rng(seed)
    c = column(pairs)
    concrete = np.array(
        [rng.integers(lo, hi + 1) for lo, hi in zip(c.lo, c.hi)], dtype=np.int64
    )
    iv = sum_bounds(c)
    assert iv.lo <= float(concrete.sum()) <= iv.hi


# ----------------------------------------------------------------------
# Degenerate columns: one shared array, same answers (PR 13)
# ----------------------------------------------------------------------
_INT64 = np.iinfo(np.int64)


def _trees(n_leaves):
    leaf = st.integers(0, n_leaves - 1).map(lambda i: ("leaf", i))
    scalar = st.integers(-1000, 1000)

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(["add_scalar", "mul_scalar"]), children, scalar),
            st.tuples(st.just("take"), children, st.integers(0, 2**31 - 1)),
        )

    return st.recursive(leaf, extend, max_leaves=6)


def _evaluate(tree, leaves):
    kind = tree[0]
    if kind == "leaf":
        return leaves[tree[1]]
    operand = _evaluate(tree[1], leaves)
    if kind in ("add", "sub", "mul"):
        return getattr(operand, kind)(_evaluate(tree[2], leaves))
    if kind == "neg":
        return operand.neg()
    if kind == "take":
        n = len(operand)
        return operand.take(np.random.default_rng(tree[2]).integers(0, n, n))
    return getattr(operand, kind)(tree[2])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 16), tree=_trees(3))
def test_property_aliased_and_unaliased_twins_agree(seed, n, tree):
    """``hi is lo`` is a representation, not a different arithmetic: over the
    whole int64 range (wrap-around included) it gives what two equal arrays
    give through the general corner rules."""
    values = np.random.default_rng(seed).integers(
        _INT64.min, _INT64.max, size=(3, n), endpoint=True
    )
    aliased = _evaluate(tree, [IntervalColumn.exact(v) for v in values])
    twin = _evaluate(
        tree, [IntervalColumn(v, v.copy(), refinable=True) for v in values]
    )
    assert aliased.hi is aliased.lo and twin.hi is not twin.lo
    assert not aliased.lo.flags.writeable
    assert np.array_equal(aliased.lo, twin.lo)
    assert np.array_equal(aliased.hi, twin.hi)
    assert aliased.refinable == twin.refinable
    assert aliased.is_exact and twin.is_exact


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 16),
    op=st.sampled_from(["add", "sub", "mul"]),
    degenerate_first=st.booleans(),
)
def test_property_degenerate_with_inexact_takes_the_corner_rules(
    seed, n, op, degenerate_first
):
    rng = np.random.default_rng(seed)
    point = IntervalColumn.exact(rng.integers(-10**6, 10**6, n))
    lo = rng.integers(-10**6, 10**6, n)
    wide = IntervalColumn.from_bounds(lo, lo + rng.integers(0, 1000, n))
    a, b = (point, wide) if degenerate_first else (wide, point)
    got = getattr(a, op)(b)
    if op == "add":
        want = (a.lo + b.lo, a.hi + b.hi)
    elif op == "sub":
        want = (a.lo - b.hi, a.hi - b.lo)
    else:
        corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        want = (np.minimum.reduce(corners), np.maximum.reduce(corners))
    assert np.array_equal(got.lo, want[0]) and np.array_equal(got.hi, want[1])
    assert got.refinable == wide.is_exact
    assert got.is_exact == bool(np.array_equal(*want))


class TestDegenerateRepresentation:
    def test_exact_shares_one_read_only_array_and_leaves_the_source_alone(self):
        source = np.array([3, 1, 2])
        c = IntervalColumn.exact(source)
        assert c.hi is c.lo and c.is_exact
        with pytest.raises(ValueError):
            c.lo[0] = 9
        source[0] = 7  # the caller's array is not frozen, only our view of it
        assert source.flags.writeable

    def test_take_and_equal_bounds_stay_degenerate(self):
        taken = IntervalColumn.exact(np.array([5, 6, 7])).take(np.array([0, 2]))
        assert taken.hi is taken.lo and not taken.lo.flags.writeable
        assert taken.lo.tolist() == [5, 7]
        equal = column([(4, 4), (9, 9)])
        assert equal.hi is equal.lo and equal.refinable

    def test_separate_arrays_are_still_validated(self):
        c = IntervalColumn(np.array([1, 2]), np.array([1, 2]), refinable=True)
        assert c.hi is not c.lo and c.is_exact
        with pytest.raises(ExecutionError):
            IntervalColumn(np.array([2]), np.array([1]), refinable=False)

    def test_degenerate_sum_reads_one_array(self):
        iv = sum_bounds(IntervalColumn.exact(np.array([1, 2, 3])))
        assert (iv.lo, iv.hi) == (6.0, 6.0)

    def test_empty_column(self):
        c = IntervalColumn.exact(np.empty(0, dtype=np.int64))
        assert len(c) == 0 and c.is_exact and len(c.neg().mul(c)) == 0


class TestStructurallyInexact:
    """Bucket bounds over residual bits (``hi = lo + max_error``) cannot be
    degenerate: the column is built without an equality pass (PR 17)."""

    @pytest.fixture()
    def equality_scans(self, monkeypatch):
        calls = []
        real = np.array_equal

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "array_equal", spy)
        return calls

    def test_inexact_constructor_knows_without_looking(self, equality_scans):
        c = IntervalColumn.inexact(np.array([0, 16]), np.array([15, 31]))
        assert not c.is_exact and not c.refinable and c.hi is not c.lo
        assert equality_scans == []
        with pytest.raises(ExecutionError):
            IntervalColumn.inexact(np.array([2]), np.array([1]))  # still validated

    def test_bucket_payloads_skip_the_scan_and_read_as_before(self, equality_scans):
        from repro.core.approximate import _payload_from_codes
        from repro.storage.decompose import decompose_values

        values = np.arange(0, 4096, 7)
        for residual_bits, exact in ((4, False), (0, True)):
            column = decompose_values(values, residual_bits=residual_bits)
            payload = _payload_from_codes(column, column.approx_codes())
            assert equality_scans == []
            want = IntervalColumn.from_bounds(  # the scanning constructor
                payload.lo, payload.lo + column.decomposition.max_error
            )
            assert payload.is_exact == want.is_exact == exact
            assert payload.refinable == want.refinable == exact
            assert (payload.hi == want.hi).all()
            equality_scans.clear()

    def test_an_empty_payload_stays_exact(self):
        from repro.core.approximate import _payload_from_codes
        from repro.storage.decompose import decompose_values

        column = decompose_values(np.arange(100), residual_bits=3)
        payload = _payload_from_codes(column, column.approx_codes()[:0])
        assert payload.is_exact and payload.refinable and payload.hi is payload.lo


class TestBoundsLeavingInt64:
    """An inexact bound that would leave int64 raises instead of wrapping;
    exact operands wrap, as their values do."""

    MAX = int(_INT64.max)

    def test_a_wrapping_bound_raises(self):
        col = IntervalColumn.inexact(np.array([0, 5]), np.array([10, 9]))
        with pytest.raises(BoundOverflowError):
            col.mul_scalar(1 << 62)
        with pytest.raises(BoundOverflowError):
            col.add_scalar(self.MAX - 9)
        with pytest.raises(BoundOverflowError):
            IntervalColumn.inexact(
                np.array([_INT64.min]), np.array([0])
            ).neg()
        assert col.add_scalar(self.MAX - 10).hi.tolist() == [self.MAX, self.MAX - 1]

    def test_a_hull_past_int64_is_checked_row_by_row(self):
        a = IntervalColumn.inexact(
            np.array([self.MAX - 5, 0]), np.array([self.MAX - 4, 1])
        )
        b = IntervalColumn.inexact(np.array([-10, 10]), np.array([-9, 11]))
        total = a.add(b)  # the hulls' sum passes int64, no row's does
        assert total.lo.tolist() == [self.MAX - 15, 10]
        assert total.hi.tolist() == [self.MAX - 13, 12]

    def test_exact_operands_wrap(self):
        values = np.array([self.MAX, 3])
        twin = IntervalColumn(values, values.copy(), refinable=True)
        assert twin.add_scalar(1).lo.tolist() == [int(_INT64.min), 4]
