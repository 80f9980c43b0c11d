"""Run-length candidate pairs and the single-materialization-point rule.

PERFORMANCE.md's PR-3 contract, pinned here:

1. :class:`RunPairCandidates` implements the order-insensitive pair
   contract — ``__len__`` is the exact pair count, the ``pair_sets``
   helpers compare it with exploded :class:`PairCandidates`, and
   :meth:`canonicalized` is the one place runs explode, in (left, right)
   order,
2. modeled Timeline charges are byte-identical whether a join ran cold or
   warm, budget-evicted or not,
3. the memoized per-bound sort permutations behave like the decoded code
   views (read-only, shared, LRU-budgeted, rebuilt after eviction).

That the runs hold the pair set of the |L|·|R| nested loop, and refine to
:func:`~repro.core.theta.theta_join_reference`, is
``tests/core/test_theta_sorted.py``'s property.
"""

import numpy as np
import pytest

from repro.core.candidates import PairCandidates, RunPairCandidates
from repro.engine.session import Session
from repro.errors import ExecutionError
from repro.storage.column import IntType
from repro.storage.decompose import decompose_values, set_view_budget

from pair_sets import pair_set, set_equals


@pytest.fixture(autouse=True)
def unbounded_after():
    """Tests may cap the process-wide view budget; always restore it."""
    yield
    set_view_budget(None)


def spans_of(timeline):
    return [
        (s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase)
        for s in timeline.spans
    ]


# ----------------------------------------------------------------------
# The representation itself
# ----------------------------------------------------------------------
class TestRunPairCandidates:
    def sample(self) -> RunPairCandidates:
        # left 0 -> order[1:4], left 1 -> empty, left 2 -> order[0:2]
        return RunPairCandidates(
            left_positions=np.array([0, 1, 2]),
            starts=np.array([1, 2, 0]),
            stops=np.array([4, 2, 2]),
            order=np.array([30, 10, 20, 40]),
            order_key="lo",
        )

    def test_len_is_total_pair_count(self):
        assert len(self.sample()) == 5
        empty = RunPairCandidates(
            np.empty(0), np.empty(0), np.empty(0), np.empty(0), "lo"
        )
        assert len(empty) == 0
        assert len(empty.canonicalized()) == 0

    def test_pair_set_and_materialized(self):
        runs = self.sample()
        expected = {(0, 10), (0, 20), (0, 40), (2, 30), (2, 10)}
        assert pair_set(runs) == expected
        mat = runs.materialized()
        assert isinstance(mat, PairCandidates)
        assert pair_set(mat) == expected
        assert len(mat) == len(runs)

    def test_canonicalized_is_materialized_and_sorted(self):
        runs = self.sample()
        out = runs.canonicalized()
        assert isinstance(out, PairCandidates)
        keys = list(zip(out.left_positions.tolist(), out.right_positions.tolist()))
        assert keys == sorted(keys)
        assert pair_set(out) == pair_set(runs)
        lexsorted = runs.materialized().canonicalized()
        assert np.array_equal(out.left_positions, lexsorted.left_positions)
        assert np.array_equal(out.right_positions, lexsorted.right_positions)

    def test_set_equals_across_representations(self):
        runs = self.sample()
        mat = runs.materialized()
        shuffled = PairCandidates(
            mat.left_positions[::-1].copy(), mat.right_positions[::-1].copy()
        )
        assert set_equals(runs, shuffled)
        assert set_equals(shuffled, runs)
        assert set_equals(runs, runs.canonicalized())
        # Same total pair count, different pairs: left 0 loses order[3] and
        # left 1 gains order[2] instead.
        other = RunPairCandidates(
            runs.left_positions, np.array([1, 2, 0]), np.array([3, 3, 2]),
            runs.order, "lo",
        )
        assert len(other) == len(runs)
        assert not set_equals(runs, other)
        assert not set_equals(other, mat)

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RunPairCandidates(
                np.array([0]), np.array([0, 1]), np.array([1, 2]),
                np.array([0]), "lo",
            )
        with pytest.raises(ExecutionError):  # stop beyond permutation
            RunPairCandidates(
                np.array([0]), np.array([0]), np.array([3]), np.array([5, 6]),
                "lo",
            )
        with pytest.raises(ExecutionError):  # inverted run
            RunPairCandidates(
                np.array([0]), np.array([2]), np.array([1]),
                np.array([5, 6, 7]), "lo",
            )


# ----------------------------------------------------------------------
# Timeline identity: cache state is unobservable in modeled seconds
# ----------------------------------------------------------------------
def theta_join(session, op, delta=0):
    """orders.price θ quotes.price through the builder, A&R mode."""
    return (
        session.table("orders")
        .theta_join("quotes", on="price", op=op, delta=delta)
        .run(mode="ar")
    )


class TestTimelineIdentity:
    @pytest.fixture()
    def session(self):
        s = Session()
        rng = np.random.default_rng(33)
        s.create_table("orders", {"price": IntType()},
                       {"price": rng.integers(0, 5000, 700)})
        s.create_table("quotes", {"price": IntType()},
                       {"price": rng.integers(0, 5000, 250)})
        s.bwdecompose("orders", "price", residual_bits=4)
        s.bwdecompose("quotes", "price", residual_bits=4)
        return s

    def test_budget_evicted_run_join_charges_identically(self, session):
        """A zero view budget keeps every cache (code views *and* sort
        permutations) permanently cold; the run-length pipeline must charge
        exactly what the unbounded warm one does, and still be correct."""
        warm = theta_join(session, "within", 20)
        set_view_budget(0)
        cold = theta_join(session, "within", 20)
        assert np.array_equal(warm.column("left_pos"), cold.column("left_pos"))
        assert np.array_equal(warm.column("right_pos"), cold.column("right_pos"))
        assert spans_of(warm.timeline) == spans_of(cold.timeline)

    def test_repeated_join_reuses_permutations_and_charges_identically(
        self, session
    ):
        first = theta_join(session, "<")
        col = session.catalog.decomposition_of("quotes", "price")
        perm = col._perm_approx_cache
        assert perm is not None  # memoized by the first join
        again = theta_join(session, "<")
        assert col._perm_approx_cache is perm  # reused, not rebuilt
        assert spans_of(first.timeline) == spans_of(again.timeline)


# ----------------------------------------------------------------------
# The memoized sort permutations
# ----------------------------------------------------------------------
class TestSortPermutation:
    def test_sorts_each_key(self):
        values = np.random.default_rng(7).integers(0, 10_000, 500)
        col = decompose_values(values, residual_bits=5)
        lo = col.decomposition.approx_lower_bounds(col.approx_codes())
        exact = col.reconstruct()
        p_lo = col.sort_permutation("lo")
        p_exact = col.sort_permutation("exact")
        assert np.all(np.diff(lo[p_lo]) >= 0)
        assert np.all(np.diff(exact[p_exact]) >= 0)
        for perm in (p_lo, p_exact):
            assert perm.flags.writeable is False
            assert sorted(perm.tolist()) == list(range(len(values)))

    def test_lo_and_hi_share_one_permutation(self):
        col = decompose_values(np.arange(100)[::-1].copy(), residual_bits=3)
        assert col.sort_permutation("lo") is col.sort_permutation("hi")

    def test_memoized_and_rebuilt_after_eviction(self):
        values = np.random.default_rng(8).integers(0, 1 << 16, 400)
        col = decompose_values(values, residual_bits=4)
        first = col.sort_permutation("exact")
        assert col.sort_permutation("exact") is first
        set_view_budget(0)  # evicts views and permutations alike
        assert col._perm_exact_cache is None
        set_view_budget(None)
        rebuilt = col.sort_permutation("exact")
        assert rebuilt is not first
        assert np.array_equal(rebuilt, first)

    def test_unknown_bound_rejected(self):
        col = decompose_values(np.arange(10), residual_bits=2)
        with pytest.raises(ValueError):
            col.sort_permutation("median")
