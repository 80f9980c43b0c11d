"""Candidates narrowed at positions equal candidates narrowed by a mask.

A keep-mask is turned into ascending positions once (``np.flatnonzero``)
and every aligned array is taken at them.  Pinned here against a boolean
compress of each array on its own, at keep densities from none to all:
``Approximation.narrowed`` keeps ids and every payload aligned and in their
order — degenerate payloads stay degenerate, ``replacing=`` columns stand
in — and refuses a mask; ``RunPairCandidates.rows_narrowed`` still takes a
mask and refuses a misaligned one.
"""

import numpy as np
import pytest

from repro.core.candidates import Approximation, RunPairCandidates
from repro.core.intervals import IntervalColumn
from repro.errors import ExecutionError

N = 500
DENSITIES = {"none": 0.0, "2%": 0.02, "half": 0.5, "98%": 0.98, "all": 1.0}


def keep_mask(rng, density: float) -> np.ndarray:
    mask = np.zeros(N, dtype=bool)
    mask[rng.choice(N, round(density * N), replace=False)] = True
    return mask


def scrambled_candidates(rng) -> Approximation:
    lo = rng.integers(-50, 50, N)
    return Approximation(
        rng.permutation(4 * N)[:N],  # no order but their own to keep
        order_preserved=False,
        payloads={
            "exact": IntervalColumn.exact(rng.integers(0, 9, N)),
            "bounds": IntervalColumn(lo, lo + rng.integers(0, 5, N), refinable=True),
            "other": IntervalColumn.exact(rng.integers(0, 1 << 40, N)),
        },
        exact=False,
    )


@pytest.mark.parametrize("density", DENSITIES.values(), ids=DENSITIES)
class TestApproximationNarrowed:
    def test_positions_take_what_the_mask_compresses(self, density):
        rng = np.random.default_rng(round(density * 100))
        cand, mask = scrambled_candidates(rng), keep_mask(rng, density)
        out = cand.narrowed(np.flatnonzero(mask))
        assert np.array_equal(out.ids, cand.ids[mask])
        assert out.labels == cand.labels
        for name, before in cand.payloads.items():
            after = out.payload(name)
            assert np.array_equal(after.lo, before.lo[mask]), name
            assert np.array_equal(after.hi, before.hi[mask]), name
            assert (after.hi is after.lo) == (before.hi is before.lo), name
            assert after.refinable == before.refinable, name
        assert not out.order_preserved and not out.exact

    def test_replacing_stands_in(self, density):
        rng = np.random.default_rng(round(density * 100) + 1)
        cand, mask = scrambled_candidates(rng), keep_mask(rng, density)
        exact = IntervalColumn.exact(cand.payload("bounds").lo[mask] + 1)
        out = cand.narrowed(np.flatnonzero(mask), {"bounds": exact})
        assert out.payload("bounds") is exact
        assert np.array_equal(out.payload("exact").lo, cand.payload("exact").lo[mask])
        assert np.array_equal(out.ids, cand.ids[mask])

    def test_run_pairs_narrow_their_rows(self, density):
        rng = np.random.default_rng(round(density * 100) + 2)
        starts = rng.integers(0, 30, N)
        pairs = RunPairCandidates(
            rng.permutation(N), starts, starts + rng.integers(0, 10, N),
            np.arange(40), order_key="exact",
        )
        mask = keep_mask(rng, density)
        out = pairs.rows_narrowed(mask)
        assert np.array_equal(out.left_positions, pairs.left_positions[mask])
        assert np.array_equal(out.starts, pairs.starts[mask])
        assert np.array_equal(out.stops, pairs.stops[mask])
        assert len(out) == int((pairs.stops - pairs.starts)[mask].sum())
        assert out.order is pairs.order and out.order_key == "exact"


def test_approximation_refuses_a_mask():
    rng = np.random.default_rng(7)
    with pytest.raises(TypeError, match="positions"):
        scrambled_candidates(rng).narrowed(keep_mask(rng, 0.5))


def test_run_pairs_refuse_a_misaligned_mask():
    pairs = RunPairCandidates(
        np.array([0, 1, 2]), np.array([0, 1, 0]), np.array([1, 2, 2]),
        np.arange(2), order_key="exact",
    )
    with pytest.raises(ExecutionError, match="misaligned"):
        pairs.rows_narrowed(np.array([True, False]))
    with pytest.raises(ExecutionError, match="misaligned"):
        pairs.rows_narrowed(np.ones(4, dtype=bool))
