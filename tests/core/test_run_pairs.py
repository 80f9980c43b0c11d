"""Run-length candidate pairs and the single-materialization-point rule.

PERFORMANCE.md's PR-3 contract, pinned here:

1. :class:`RunPairCandidates` is a faithful second implementation of the
   order-insensitive pair contract — ``__len__`` is the exact pair count,
   ``pair_set``/``set_equals`` compare across representations, and
   :meth:`canonicalized` is the one place runs explode into a materialized
   :class:`PairCandidates`,
2. every producer — brute force, sorted-materialized, sorted-runs — emits
   the same candidate pair *set*, and refinement lands on
   :func:`theta_join_reference` whichever representation flowed through,
3. modeled Timeline charges are byte-identical whether a join ran with
   materialized or run-length pairs, cold or warm, budget-evicted or not,
4. the memoized per-bound sort permutations behave like the decoded code
   views (read-only, shared, LRU-budgeted, rebuilt after eviction).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import PairCandidates, RunPairCandidates
from repro.core.theta import (
    Theta,
    ThetaOp,
    _refine_runs_chunked,
    theta_join_approx,
    theta_join_refine,
    theta_join_reference,
)
from repro.device.machine import Machine
from repro.engine.session import Session
from repro.errors import ExecutionError
from repro.storage.column import IntType
from repro.storage.decompose import decompose_values, set_view_budget


@pytest.fixture(autouse=True)
def unbounded_after():
    """Tests may cap the process-wide view budget; always restore it."""
    yield
    set_view_budget(None)


@pytest.fixture()
def machine():
    return Machine.paper_testbed()


def loaded(machine, values, residual_bits, label):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    machine.gpu.load_column(label, col, None)
    return col


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
            np.empty(0), np.empty(0), np.empty(0), np.empty(0)
        )
        assert len(empty) == 0

    def test_pair_set_and_materialized(self):
        runs = self.sample()
        expected = {(0, 10), (0, 20), (0, 40), (2, 30), (2, 10)}
        assert runs.pair_set() == expected
        mat = runs.materialized()
        assert isinstance(mat, PairCandidates)
        assert mat.pair_set() == expected
        assert len(mat) == len(runs)

    def test_canonicalized_is_materialized_and_sorted(self):
        out = self.sample().canonicalized()
        assert isinstance(out, PairCandidates)
        keys = list(zip(out.left_positions.tolist(), out.right_positions.tolist()))
        assert keys == sorted(keys)
        assert out.pair_set() == self.sample().pair_set()

    def test_set_equals_across_representations(self):
        runs = self.sample()
        mat = runs.materialized()
        shuffled = PairCandidates(
            mat.left_positions[::-1].copy(), mat.right_positions[::-1].copy()
        )
        assert runs.set_equals(shuffled)
        assert shuffled.set_equals(runs)
        assert runs.set_equals(runs.canonicalized())
        # Same total pair count, different pairs: left 0 loses order[3] and
        # left 1 gains order[2] instead.
        other = RunPairCandidates(
            runs.left_positions, np.array([1, 2, 0]), np.array([3, 3, 2]),
            runs.order,
        )
        assert len(other) == len(runs)
        assert not runs.set_equals(other)
        assert not other.set_equals(mat)

    def test_narrowed_mask_follows_run_order(self):
        runs = self.sample()
        enumerated = runs.materialized()
        keep = np.zeros(len(runs), dtype=bool)
        keep[[0, 3]] = True
        out = runs.narrowed(keep)
        assert out.pair_set() == {
            tuple(p) for p in zip(
                enumerated.left_positions[keep].tolist(),
                enumerated.right_positions[keep].tolist(),
            )
        }

    def test_with_runs_preserves_order_but_downgrades_bound_keys(self):
        runs = self.sample()  # order_key="lo"
        shrunk = runs.with_runs(runs.starts, runs.starts + 1)
        assert shrunk.order is runs.order
        assert len(shrunk) == 3  # one pair per left row
        # Arbitrary new bounds break bucket alignment: a bound-sorted key
        # must not survive the narrow (only "exact" spans stay sound).
        assert shrunk.order_key == "raw"
        exact = RunPairCandidates(
            runs.left_positions, runs.starts, runs.stops, runs.order,
            order_key="exact",
        )
        assert exact.with_runs(runs.starts, runs.starts + 1).order_key == "exact"

    def test_refine_never_resurrects_narrowed_pairs(self, machine):
        """A with_runs-narrowed candidate set stays a superset boundary for
        refinement: pairs removed by the narrow must not reappear, even
        when both right rows share one approximation bucket."""
        left = loaded(machine, np.array([5]), 3, "l")
        right = loaded(machine, np.array([7, 5]), 3, "r")
        theta = Theta(ThetaOp.WITHIN, 0)
        runs = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="sorted", emit="runs",
        )
        assert runs.pair_set() == {(0, 0), (0, 1)}
        narrowed = runs.with_runs(runs.starts, runs.starts + 1)
        kept = narrowed.pair_set()
        assert len(kept) == 1
        refined = theta_join_refine(
            machine.cpu, machine.new_timeline(), left, right, theta, narrowed
        )
        assert refined.pair_set() <= kept

    def test_validation(self):
        with pytest.raises(ExecutionError):
            RunPairCandidates(
                np.array([0]), np.array([0, 1]), np.array([1, 2]), np.array([0])
            )
        with pytest.raises(ExecutionError):  # stop beyond permutation
            RunPairCandidates(
                np.array([0]), np.array([0]), np.array([3]), np.array([5, 6])
            )
        with pytest.raises(ExecutionError):  # inverted run
            RunPairCandidates(
                np.array([0]), np.array([2]), np.array([1]), np.array([5, 6, 7])
            )


class TestEmitModes:
    def test_sorted_native_shape_is_runs(self, machine, monkeypatch):
        """The sorted producer's own shape carries the pair count and the
        pair set without exploding a pair; only ``emit="pairs"`` does."""
        left = loaded(machine, np.arange(100), 2, "l")
        right = loaded(machine, np.arange(50), 2, "r")
        theta = Theta(ThetaOp.LE)
        exploded = []
        original = RunPairCandidates.materialized

        def spy(self):
            exploded.append(len(self))
            return original(self)

        monkeypatch.setattr(RunPairCandidates, "materialized", spy)
        out = {}
        for emit in ("auto", "runs", "pairs"):
            out[emit] = theta_join_approx(
                machine.gpu, machine.new_timeline(), left, right, theta,
                strategy="sorted", emit=emit,
            )
            assert len(exploded) == (emit == "pairs"), emit
        assert len(out["auto"]) == len(out["runs"]) == len(out["pairs"])
        assert isinstance(out["pairs"], PairCandidates)
        assert out["auto"].set_equals(out["pairs"])
        assert out["runs"].set_equals(out["pairs"])

    def test_bruteforce_cannot_emit_runs(self, machine):
        left = loaded(machine, np.arange(40), 2, "l")
        right = loaded(machine, np.arange(40), 2, "r")
        pairs = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right,
            Theta(ThetaOp.LT), strategy="bruteforce",
        )
        assert isinstance(pairs, PairCandidates)
        with pytest.raises(ExecutionError):
            theta_join_approx(
                machine.gpu, machine.new_timeline(), left, right,
                Theta(ThetaOp.LT), strategy="bruteforce", emit="runs",
            )

    def test_unknown_emit_rejected(self, machine):
        left = loaded(machine, np.arange(10), 2, "l")
        with pytest.raises(ExecutionError):
            theta_join_approx(
                machine.gpu, machine.new_timeline(), left, left,
                Theta(ThetaOp.LT), emit="eager",
            )


# ----------------------------------------------------------------------
# All four producers agree, for every θ
# ----------------------------------------------------------------------
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
def test_property_four_producers_agree(
    seed, residual_left, residual_right, op, delta, domain, n_left, n_right
):
    """Brute force, sorted-materialized and sorted-runs emit the same
    candidate pair set; refining any of them (keep-mask narrowing or
    run-narrowing alike) lands exactly on ``theta_join_reference``."""
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    left_v = rng.integers(0, domain, n_left)
    right_v = rng.integers(0, domain, n_right)
    left = decompose_values(left_v, residual_bits=residual_left)
    right = decompose_values(right_v, residual_bits=residual_right)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(op, delta=delta)

    candidates = {
        "bruteforce": theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="bruteforce",
        ),
        "sorted-pairs": theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="sorted", emit="pairs",
        ),
        "sorted-runs": theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            strategy="sorted", emit="runs",
        ),
    }
    # one count from every producer, before any of them is read
    assert len({len(pairs) for pairs in candidates.values()}) == 1
    assert candidates["bruteforce"].set_equals(candidates["sorted-pairs"])
    assert candidates["bruteforce"].set_equals(candidates["sorted-runs"])
    assert candidates["sorted-runs"].set_equals(candidates["sorted-pairs"])

    truth = theta_join_reference(left_v, right_v, theta)
    for name, pairs in candidates.items():
        refined = theta_join_refine(
            machine.cpu, machine.new_timeline(), left, right, theta, pairs
        )
        assert refined.pair_set() == truth.pair_set(), name


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    residual=st.integers(0, 5),
    op=st.sampled_from(list(ThetaOp)),
    delta=st.integers(0, 20),
    chunk=st.sampled_from([1, 7, 64, 1 << 22]),
)
def test_property_chunked_fallback_matches_sorted_refine(
    seed, residual, op, delta, chunk
):
    """The materialize+mask fallback (for runs without a monotone order
    key) refines to the same set as the run-narrowing path, at any chunk
    granularity."""
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    left_v = rng.integers(0, 300, 60)
    right_v = rng.integers(0, 300, 45)
    left = decompose_values(left_v, residual_bits=residual)
    right = decompose_values(right_v, residual_bits=residual)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(op, delta=delta)
    runs = theta_join_approx(
        machine.gpu, machine.new_timeline(), left, right, theta,
        strategy="sorted", emit="runs",
    )
    sorted_refined = theta_join_refine(
        machine.cpu, machine.new_timeline(), left, right, theta, runs
    )
    chunked = _refine_runs_chunked(left, right, theta, runs, chunk_elems=chunk)
    assert chunked.set_equals(sorted_refined)

    # A raw-order run set (no monotone key) dispatches to the fallback and
    # still refines correctly through the public entry point.
    raw = RunPairCandidates(
        runs.left_positions, runs.starts, runs.stops, runs.order,
        order_key="raw",
    )
    via_dispatch = theta_join_refine(
        machine.cpu, machine.new_timeline(), left, right, theta, raw
    )
    assert isinstance(via_dispatch, PairCandidates)
    assert via_dispatch.set_equals(sorted_refined)


# ----------------------------------------------------------------------
# Timeline identity: representation is unobservable in modeled seconds
# ----------------------------------------------------------------------
def theta_join(session, op, delta=0, **knobs):
    """orders.price θ quotes.price through the builder, A&R mode."""
    return (
        session.table("orders")
        .theta_join("quotes", on="price", op=op, delta=delta, **knobs)
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

    @pytest.mark.parametrize("op,delta", [
        ("<", 0), (">=", 0), ("=", 0), ("within", 20),
    ])
    def test_runs_vs_materialized_byte_identical_pipeline(
        self, session, op, delta
    ):
        results = {
            emit: theta_join(session, op, delta, strategy="sorted", emit=emit)
            for emit in ("runs", "pairs")
        }
        a, b = results["runs"], results["pairs"]
        assert np.array_equal(a.column("left_pos"), b.column("left_pos"))
        assert np.array_equal(a.column("right_pos"), b.column("right_pos"))
        assert spans_of(a.timeline) == spans_of(b.timeline)

    def test_budget_evicted_run_join_charges_identically(self, session):
        """A zero view budget keeps every cache (code views *and* sort
        permutations) permanently cold; the run-length pipeline must charge
        exactly what the unbounded warm one does, and still be correct."""
        warm = theta_join(session, "within", 20, emit="runs")
        set_view_budget(0)
        cold = theta_join(session, "within", 20, emit="runs")
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
