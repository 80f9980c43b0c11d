"""Candidate-cardinality estimation from the approximation histograms.

The approximation stream gives the optimizer its statistics for free: the
major bits *are* an equi-width histogram key (``storage.histogram``), so
scan selectivities are exact at bucket granularity, and a theta join's
candidate-pair count can be estimated by convolving the two sides' code
histograms under :meth:`~repro.core.theta.Theta.possible` semantics —
seeded by the PR-5 ``[certain, candidates]`` bounds: the memoized exact
certain-pair count is the floor, ``|L|·|R|`` the ceiling.

Estimates deliberately ignore strict-vs-non-strict comparison edges and
intra-bucket value placement (linear interpolation inside merged buckets);
PERFORMANCE.md documents where that over/under-estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.relax import relax_to_code_range
from ..core.theta import Theta, ThetaOp, theta_certain_pair_count
from ..errors import PlanError
from ..plan.expr import ColRef, Predicate
from ..storage.decompose import BwdColumn
from ..storage.histogram import CodeHistogram


def _drivable_bwd(catalog, table: str, pred: Predicate) -> BwdColumn:
    if not isinstance(pred.target, ColRef):
        raise PlanError(f"cannot estimate a non-column predicate {pred!r}")
    bwd = catalog.decomposition_of(table, pred.target.name)
    if bwd is None:
        raise PlanError(
            f"{table}.{pred.target.name} is not decomposed; no histogram"
        )
    return bwd


def _delta_rows(catalog, table: str) -> int:
    """Exact pending-delta row count (0 when the catalog has no deltas)."""
    getter = getattr(catalog, "delta_rows", None)
    return int(getter(table)) if getter is not None else 0


def estimate_scan_candidates(catalog, table: str, pred: Predicate) -> int:
    """Tuples the *relaxed* predicate admits (exact at bucket granularity).

    Pending delta rows (PR 9) are outside the decomposition's histogram
    and are always evaluated exactly on the delta path, so the *exact*
    delta row count is added on top of the base-segment estimate.
    """
    bwd = _drivable_bwd(catalog, table, pred)
    lo, hi = relax_to_code_range(pred.vrange, bwd.decomposition)
    base = catalog.histogram_of(table, pred.target.name).estimate_code_range(lo, hi)
    return base + _delta_rows(catalog, table)


def estimate_selectivity(catalog, table: str, pred: Predicate) -> float:
    """Fraction of tuples the relaxed predicate admits."""
    bwd = _drivable_bwd(catalog, table, pred)
    lo, hi = relax_to_code_range(pred.vrange, bwd.decomposition)
    return catalog.histogram_of(table, pred.target.name).selectivity(lo, hi)


# ----------------------------------------------------------------------
# Theta-join candidate pairs: histogram convolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThetaCardinality:
    """Estimated pair counts for one theta join.

    ``certain_pairs`` is the exact memoized lower bound (pairs whose
    approximation intervals satisfy θ for *every* exact value);
    ``candidate_pairs`` the histogram-convolution estimate of the pairs the
    approximate join will emit, clamped to ``[certain, |L|·|R|]``.
    """

    n_left: int
    n_right: int
    certain_pairs: int
    candidate_pairs: int

    def scaled(self, left_fraction: float) -> "ThetaCardinality":
        """Scale the left side by a selection's surviving fraction."""
        f = min(max(left_fraction, 0.0), 1.0)
        return ThetaCardinality(
            n_left=int(round(self.n_left * f)),
            n_right=self.n_right,
            certain_pairs=int(round(self.certain_pairs * f)),
            candidate_pairs=int(round(self.candidate_pairs * f)),
        )


def _cumulative_floor_rows(hist: CodeHistogram, bwd: BwdColumn):
    """(bounds, cum): bucket-start floor values and cumulative row counts.

    ``np.interp(t, bounds, cum)`` then estimates the rows whose interval
    *floor* value is below ``t``, linearly interpolated inside buckets.
    """
    dec = bwd.decomposition
    m = hist.codes_per_bucket
    n_buckets = len(hist.counts)
    boundary_codes = np.arange(n_buckets + 1, dtype=np.int64) * m
    bounds = dec.approx_lower_bounds(boundary_codes).astype(np.float64)
    cum = np.concatenate(
        [np.zeros(1), np.cumsum(hist.counts, dtype=np.float64)]
    )
    return bounds, cum


def estimate_theta_cardinality(
    left: BwdColumn,
    right: BwdColumn,
    theta: Theta,
    *,
    left_hist: CodeHistogram | None = None,
    right_hist: CodeHistogram | None = None,
    left_delta_rows: int = 0,
    right_delta_rows: int = 0,
) -> ThetaCardinality:
    """Convolve the two code histograms under ``Theta.possible`` semantics.

    For every left bucket (value hull ``[l_lo, l_hi]``, ``c`` rows) the
    number of right rows whose approximation interval could satisfy θ is a
    contiguous range of the right cumulative distribution — two
    ``np.interp`` lookups per θ shape, vectorized over all left buckets.

    ``left_delta_rows`` / ``right_delta_rows`` are *exact* pending-delta
    row counts (PR 9): delta rows are invisible to both histograms yet
    every delta pair is materialized exactly on the delta path, so the
    estimate grows by the full delta cross terms and the ``|L|·|R|``
    ceiling widens to the delta-inclusive side sizes.
    """
    if left_hist is None:
        left_hist = CodeHistogram.build(left)
    if right_hist is None:
        right_hist = CodeHistogram.build(right)
    n_l, n_r = left.length, right.length
    l_dec, r_dec = left.decomposition, right.decomposition

    m_l = left_hist.codes_per_bucket
    n_lb = len(left_hist.counts)
    lo_codes = np.arange(n_lb, dtype=np.int64) * m_l
    hi_codes = np.minimum(lo_codes + m_l - 1, l_dec.max_code)
    l_lo = l_dec.approx_lower_bounds(lo_codes).astype(np.float64)
    l_hi = l_dec.approx_lower_bounds(hi_codes).astype(np.float64) + l_dec.max_error

    bounds, cum = _cumulative_floor_rows(right_hist, right)
    r_err = float(r_dec.max_error)

    def below(t: np.ndarray) -> np.ndarray:
        return np.interp(t, bounds, cum, left=0.0, right=float(n_r))

    if theta.op in (ThetaOp.LT, ThetaOp.LE):
        # possible iff l_lo ≤/< r_hi ⇔ right floor ≳ l_lo - r_err
        per_bucket = float(n_r) - below(l_lo - r_err)
    elif theta.op in (ThetaOp.GT, ThetaOp.GE):
        # possible iff l_hi ≥/> r_lo ⇔ right floor ≲ l_hi
        per_bucket = below(l_hi)
    elif theta.op is ThetaOp.EQ:
        per_bucket = below(l_hi) - below(l_lo - r_err)
    else:  # WITHIN: interval overlap widened by delta on both sides
        d = float(theta.delta)
        per_bucket = below(l_hi + d) - below(l_lo - d - r_err)

    counts = left_hist.counts.astype(np.float64)
    estimate = int(round(float(np.dot(counts, np.clip(per_bucket, 0.0, n_r)))))

    certain = theta_certain_pair_count(left, right, theta)
    n_l_tot = n_l + int(left_delta_rows)
    n_r_tot = n_r + int(right_delta_rows)
    # Delta rows pair exactly: new-left × all-right plus base-left × new-right.
    estimate += int(left_delta_rows) * n_r_tot + n_l * int(right_delta_rows)
    estimate = max(certain, min(estimate, n_l_tot * n_r_tot))
    return ThetaCardinality(
        n_left=n_l_tot, n_right=n_r_tot,
        certain_pairs=certain, candidate_pairs=estimate,
    )
