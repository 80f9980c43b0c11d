"""``BwdColumn.extended``: appending rows without re-coding the column.

The oracle is the bulk path: ``old.extended(delta)`` must be
indistinguishable from ``BwdColumn.from_values(concat, plan)`` — packed
words, decoded views, both sort permutations, the sorted codes and the
carried histogram — and the O(delta) eligibility rule must agree with
replaying ``plan_decomposition`` over the concatenation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecompositionError
from repro.storage.decompose import (
    BwdColumn,
    _PartialView,
    plan_decomposition,
    set_view_budget,
    view_cache_bytes,
)
from repro.storage.histogram import CodeHistogram


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


def assert_same_column(got: BwdColumn, want: BwdColumn) -> None:
    assert got.decomposition == want.decomposition
    assert got.length == want.length
    assert np.array_equal(got._approx_words, want._approx_words)
    if want._residual_words is None:
        assert got._residual_words is None
    else:
        assert np.array_equal(got._residual_words, want._residual_words)
    assert np.array_equal(got.approx_codes(), want.approx_codes())
    assert np.array_equal(got.residuals(), want.residuals())
    dec = want.decomposition
    for codes, dtype in (
        (got.approx_codes(), dec.approx_dtype),
        (got.sorted_approx_codes(), dec.approx_dtype),
        (got.residuals(), dec.residual_dtype),
    ):
        assert codes.dtype == dtype, "a carried view is held at code width"
    assert np.array_equal(got.reconstruct(), want.reconstruct())
    for bound in ("lo", "exact"):
        assert np.array_equal(
            got.sort_permutation(bound), want.sort_permutation(bound)
        ), bound
    assert np.array_equal(got.sorted_approx_codes(), want.sorted_approx_codes())


@st.composite
def base_and_delta(draw):
    """A tight column domain, base rows off the period grid, a delta inside."""
    total = draw(st.integers(min_value=1, max_value=63))
    residual = draw(st.integers(min_value=0, max_value=total))
    base = draw(st.integers(min_value=-1000, max_value=0))
    top = base + (1 << total) - 1
    inside = st.integers(min_value=base, max_value=top)
    # Few distinct values, so equal keys (where stability shows) are common.
    pool = draw(st.lists(inside, min_size=1, max_size=6))
    rows = st.sampled_from(pool) | inside
    n = draw(st.integers(min_value=0, max_value=150))
    old = [base, top] + draw(st.lists(rows, min_size=n, max_size=n))
    m = draw(st.sampled_from([0, 1, 2, 70, 200]))
    delta = draw(st.lists(rows, min_size=m, max_size=m))
    return (
        np.array(old, dtype=np.int64), np.array(delta, dtype=np.int64),
        total, residual,
    )


@settings(max_examples=120, deadline=None)
@given(case=base_and_delta(), warm=st.sets(
    st.sampled_from(["lo", "sorted", "exact"])
))
def test_property_extended_equals_bulk(case, warm):
    old_values, delta, total, residual = case
    plan = plan_decomposition(old_values, residual_bits=residual, storage_bits=64)
    assert (plan.total_bits, plan.residual_bits) == (total, residual)
    old = BwdColumn.from_values(old_values, plan)
    if "lo" in warm:
        old.sort_permutation("lo")
    if "sorted" in warm:
        old.sorted_approx_codes()
    if "exact" in warm:
        old.sort_permutation("exact")
    histogram = CodeHistogram.build(old)

    assert plan.plan_change(delta) is None
    got = old.extended(delta)
    whole = np.concatenate([old_values, delta])
    want = BwdColumn.from_values(whole, plan)

    # What was resident is carried, what was absent stays absent.
    assert isinstance(got._approx_cache, np.ndarray)
    # ("lo" is merged into its sorted codes, so it is carried with them.)
    assert (got._perm_approx_cache is not None) == ("sorted" in warm)
    assert (got._sorted_codes_cache is not None) == ("sorted" in warm)
    assert (got._perm_exact_cache is not None) == ("exact" in warm)
    for view in (got._approx_cache, got._perm_approx_cache,
                 got._sorted_codes_cache, got._perm_exact_cache):
        assert view is None or not view.flags.writeable
    # The carried views cost the bytes of their dtype — codes at code
    # width, permutations at index width — nothing is widened on the way.
    assert got._approx_cache.itemsize == plan.approx_dtype.itemsize
    if got._sorted_codes_cache is not None:
        assert got._sorted_codes_cache.itemsize == plan.approx_dtype.itemsize
    for perm in (got._perm_approx_cache, got._perm_exact_cache):
        assert perm is None or perm.dtype == np.int64
    assert_same_column(got, want)
    assert old.length == len(old_values), "the old column is left as it was"
    assert np.array_equal(old.reconstruct(), old_values)

    carried = histogram.extended(got)
    built = CodeHistogram.build(want)
    assert np.array_equal(carried.counts, built.counts)
    assert carried.codes_per_bucket == built.codes_per_bucket
    assert carried.total == built.total == len(whole)


@settings(max_examples=150, deadline=None)
@given(
    old=st.lists(st.integers(-300, 5000), min_size=1, max_size=30),
    delta=st.lists(st.integers(-400, 9000), min_size=0, max_size=30),
    residual_bits=st.integers(0, 16),
    prefix=st.booleans(),
)
def test_property_eligibility_agrees_with_replayed_plan(
    old, delta, residual_bits, prefix
):
    """``plan_change`` is None exactly when the replayed plan is unchanged."""
    old, delta = np.array(old, dtype=np.int64), np.array(delta, dtype=np.int64)
    args = dict(residual_bits=residual_bits, prefix_compression=prefix)
    try:
        plan = plan_decomposition(old, **args)
    except DecompositionError:
        return  # negative values without prefix compression: no column
    try:
        replayed = plan_decomposition(np.concatenate([old, delta]), **args)
    except DecompositionError:
        replayed = None  # the rebuild path raises, as it always did
    assert (plan.plan_change(delta) is None) == (replayed == plan)


class TestEligibilityCases:
    OLD = np.array([100, 131, 110], dtype=np.int64)  # base 100, 5 bits

    def plan(self, **kw):
        kw.setdefault("residual_bits", 2)
        return plan_decomposition(self.OLD, **kw)

    def test_inside_the_domain(self):
        assert self.plan().plan_change(np.array([100, 131, 115])) is None
        assert self.plan().plan_change(np.array([], dtype=np.int64)) is None

    def test_below_the_base(self):
        delta = np.array([99])
        assert self.plan().plan_change(delta) == "base"
        replayed = plan_decomposition(
            np.concatenate([self.OLD, delta]), residual_bits=2
        )
        assert replayed.base == 99

    def test_above_the_width(self):
        delta = np.array([132])
        assert self.plan().plan_change(delta) == "width"
        replayed = plan_decomposition(
            np.concatenate([self.OLD, delta]), residual_bits=2
        )
        assert replayed.total_bits == 6

    def test_without_prefix_compression(self):
        plan = self.plan(prefix_compression=False)
        assert (plan.base, plan.total_bits) == (0, 8)
        assert plan.plan_change(np.array([0, 255])) is None
        assert plan.plan_change(np.array([256])) == "width"
        assert plan.plan_change(np.array([-1])) == "base"

    def test_residual_bits_clamped_to_total(self):
        """A clamped residual width unclamps when the codes widen — the
        width rule alone catches it."""
        plan = self.plan(residual_bits=8)
        assert plan.residual_bits == plan.total_bits == 5
        assert plan.plan_change(np.array([131])) is None
        delta = np.array([1000])
        assert plan.plan_change(delta) == "width"
        replayed = plan_decomposition(
            np.concatenate([self.OLD, delta]), residual_bits=8
        )
        assert replayed.residual_bits == 8 != plan.residual_bits

    def test_extended_rejects_values_outside_the_domain(self):
        old = BwdColumn.from_values(self.OLD, self.plan())
        for bad in ([99], [132]):
            with pytest.raises(DecompositionError):
                old.extended(np.array(bad))


class TestUnderAViewBudget:
    """Partially evicted views are not carried; answers stay identical."""

    N, SEG = 1024, 64

    def columns(self):
        rng = np.random.default_rng(3)
        old_values = rng.integers(0, 1 << 12, self.N)
        old_values[:2] = (0, (1 << 12) - 1)
        delta = rng.integers(0, 1 << 12, 200)
        plan = plan_decomposition(old_values, residual_bits=4)
        return old_values, delta, plan

    def test_partial_views_stay_absent(self):
        set_view_budget(None, segment_rows=self.SEG)
        old_values, delta, plan = self.columns()
        old = BwdColumn.from_values(old_values, plan)
        old.sorted_approx_codes()
        # Squeeze out a few segments: the decoded views go partial.
        set_view_budget(
            view_cache_bytes() - 3 * self.SEG * plan.approx_dtype.itemsize
        )
        assert isinstance(old._approx_cache, _PartialView)
        set_view_budget(None)
        partial = old._approx_cache
        got = old.extended(delta)
        assert got._approx_cache is None, "a partial view is not carried"
        assert old._approx_cache is partial, "nor reassembled on the old column"
        want = BwdColumn.from_values(np.concatenate([old_values, delta]), plan)
        assert_same_column(got, want)

    @pytest.mark.parametrize("budget", [0, 4096, 20_000])
    def test_identity_while_evicting(self, budget):
        set_view_budget(budget, segment_rows=self.SEG)
        old_values, delta, plan = self.columns()
        old = BwdColumn.from_values(old_values, plan)
        old.sort_permutation("lo")
        old.sort_permutation("exact")
        got = old.extended(delta)
        assert view_cache_bytes() <= budget
        want = BwdColumn.from_values(np.concatenate([old_values, delta]), plan)
        assert_same_column(got, want)
