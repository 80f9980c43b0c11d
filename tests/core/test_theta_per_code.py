"""Theta approximation per distinct code (PR 16).

When a left side has no more distinct approximation codes than rows
(``2**approx_bits <= n``), the candidate runs and the certain-pair count
are decided once per code — on the sorted bucket-bound table — and read
back through the rows' codes.  Both must equal the nested-loop predicate
over every pair of buckets, as the per-row sweeps do:
six θ × whole column / row subset × residual 0 / > 0 × both sides of the
threshold.
"""

import numpy as np
import pytest

from repro.core import theta as theta_module
from repro.core.theta import (
    Theta,
    ThetaOp,
    _certain_pair_count,
    _left_runs,
    _per_code,
)
from repro.storage.decompose import decompose_values

from pair_sets import bucket_bounds, pair_set

N_LEFT, N_RIGHT = 300, 120
THETAS = [
    Theta(ThetaOp.LT), Theta(ThetaOp.LE), Theta(ThetaOp.GT), Theta(ThetaOp.GE),
    Theta(ThetaOp.EQ), Theta(ThetaOp.WITHIN, 37), Theta(ThetaOp.WITHIN, 0),
]
#: (value domain bits, residual bits) -> approximation bits; 300 rows
SHAPES = {
    "per-code, exact": (6, 0),      # 64 codes
    "per-code, residual": (11, 4),  # 128 codes
    "per-row, exact": (14, 0),      # 16 384 codes
    "per-row, residual": (20, 4),   # 65 536 codes
}


def _sides(shape, seed=0):
    domain_bits, residual = SHAPES[shape]
    rng = np.random.default_rng([seed, domain_bits, residual])
    hi = 1 << domain_bits
    left = decompose_values(
        np.r_[0, hi - 1, rng.integers(0, hi, N_LEFT - 2)], residual_bits=residual
    )
    right = decompose_values(
        np.r_[0, hi - 1, rng.integers(0, hi, N_RIGHT - 2)],
        residual_bits=int(rng.choice([0, 3])),
    )
    return left, right


def _subset(rng, n):
    return rng.permutation(N_LEFT)[:n].astype(np.int64)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("theta", THETAS, ids=lambda t: f"{t.op.name}{t.delta}")
@pytest.mark.parametrize("subset", [None, 200, 5], ids=["whole", "rows200", "rows5"])
def test_runs_equal_the_per_row_sweeps(shape, theta, subset):
    left, right = _sides(shape)
    ids = None if subset is None else _subset(np.random.default_rng(subset), subset)
    n = N_LEFT if ids is None else len(ids)
    # 5 rows are fewer than any shape's codes: the subset decides per row
    assert _per_code(left, n) == (shape.startswith("per-code") and n >= 200)

    right_b = bucket_bounds(right)
    runs = _left_runs(left, ids, theta, right)
    rows = np.arange(N_LEFT) if ids is None else ids
    left_b = bucket_bounds(left, rows)
    possible = theta.possible(
        left_b.lo[:, None], left_b.hi[:, None], right_b.lo[None, :], right_b.hi[None, :],
    )
    assert len(runs) == possible.sum()  # counted per code or summed per row
    li, ri = np.nonzero(possible)
    assert pair_set(runs) == set(zip(rows[li].tolist(), ri.tolist()))
    assert sorted(runs.left_positions.tolist()) == sorted(rows.tolist())
    assert runs.whole_left == (ids is None)
    for field in (runs.left_positions, runs.starts, runs.stops):
        assert field.dtype == np.int64


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("theta", THETAS, ids=lambda t: f"{t.op.name}{t.delta}")
@pytest.mark.parametrize("subset", [None, 200, 0], ids=["whole", "rows200", "rows0"])
def test_certain_count_equals_per_row_and_brute_force(monkeypatch, shape, theta, subset):
    left, right = _sides(shape, seed=1)
    ids = None if subset is None else _subset(np.random.default_rng(subset), subset)
    got = _certain_pair_count(left, right, theta, ids)

    left_b, right_b = bucket_bounds(left, ids), bucket_bounds(right)
    brute = int(theta.certain(
        left_b.lo[:, None], left_b.hi[:, None], right_b.lo[None, :], right_b.hi[None, :],
    ).sum())
    assert got == brute
    monkeypatch.setattr(theta_module, "_per_code", lambda column, n_rows: False)
    assert _certain_pair_count(left, right, theta, ids) == got


def test_a_skewed_side_weighs_codes_by_their_rows():
    """Duplicate-heavy left: three codes carry every row."""
    left = decompose_values(
        np.repeat([0, 100, 1023], [250, 49, 1]), residual_bits=2
    )
    right = decompose_values(np.arange(0, 1024, 8), residual_bits=3)
    assert _per_code(left, left.length)
    for theta in THETAS:
        left_b, right_b = bucket_bounds(left), bucket_bounds(right)
        brute = int(theta.certain(
            left_b.lo[:, None], left_b.hi[:, None],
            right_b.lo[None, :], right_b.hi[None, :],
        ).sum())
        assert _certain_pair_count(left, right, theta, None) == brute
