"""Grouped and scalar aggregation kernels (paper §IV-F).

Pure-NumPy aggregation helpers shared by the approximate (device) and
refined (host) sides; cost accounting happens at the call sites, which know
which device ran the kernel.

The A&R treatment per aggregate function:

* ``count`` — trivial: candidates give an upper bound, certain rows a lower
  bound; the refined count is exact by construction.
* ``min`` / ``max`` — candidate sets that assuredly contain the extremum
  (see :func:`repro.core.approximate.minmax_approx`), refined by a join
  with the residuals and a plain reduction.
* ``sum`` / ``avg`` — victims of destructive distributivity (§IV-G): on
  distributed data the device-side bounds cannot be sharpened into an exact
  result, so refinement recomputes from exact values on the host.  When all
  inputs are device-resident the approximate sum *is* exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .grouping import GroupAssignment
from .intervals import Interval, IntervalColumn

#: What every grouped kernel runs on: a :class:`GroupAssignment` —
#: range-checked once when it was built, trusted here — or bare group ids
#: followed by ``n_groups``, which are checked on every call; or ``None``,
#: an ungrouped block: every row in the one group, no ids to say so.
Groups = GroupAssignment | np.ndarray | None
_INT64 = np.iinfo(np.int64)


def grouped_sum(
    values: np.ndarray, groups: Groups, n_groups: int | None = None
) -> np.ndarray:
    """Exact per-group int64 sums — scattered once per assignment and
    read-only ``values`` array (:attr:`GroupAssignment.sums`; an array
    that can still be written to is summed every time)."""
    groups = _assignment(groups, n_groups)
    if groups is None:
        return _scatter(np.add, 0, values, None, None)
    for held, sums in groups.sums:
        if held is values:
            return sums.copy()
    sums = _scatter(np.add, 0, values, groups, None)
    if isinstance(values, np.ndarray) and not values.flags.writeable:
        groups.sums.append((values, sums.copy()))
    return sums


def grouped_min(
    values: np.ndarray, groups: Groups, n_groups: int | None = None
) -> np.ndarray:
    return _scatter(np.minimum, _INT64.max, values, groups, n_groups)


def grouped_max(
    values: np.ndarray, groups: Groups, n_groups: int | None = None
) -> np.ndarray:
    return _scatter(np.maximum, _INT64.min, values, groups, n_groups)


def grouped_count(groups: Groups, n_groups: int | None = None) -> np.ndarray:
    """Exact per-group row counts."""
    return _assignment(groups, n_groups).counts.astype(np.int64)


def grouped_avg(
    values: np.ndarray, groups: Groups, n_groups: int | None = None
) -> np.ndarray:
    """Exact per-group means as float64."""
    groups = _assignment(groups, n_groups)
    sums = grouped_sum(values, groups).astype(np.float64)
    counts = np.array([len(values)]) if groups is None else groups.counts
    if bool((counts == 0).any()):
        raise ExecutionError("avg over an empty group")
    return sums / counts


def grouped_sum_interval(
    bounds: IntervalColumn,
    groups: Groups,
    n_groups: int | None = None,
    *,
    certain: np.ndarray | None = None,
) -> list[Interval]:
    """Per-group strict sum bounds from per-row intervals (approximate sum).

    A row not ``certain`` (a mask; default: every row is) may yet vanish in
    refinement, so its contribution is hulled with 0: ``max(lo, 0)`` comes
    off the low sums and ``min(hi, 0)`` off the high ones at those rows —
    the int64 sums of the hulled bounds, no bound array copied.
    """
    groups = _assignment(groups, n_groups)
    lo = grouped_sum(bounds.lo, groups)
    # degenerate bounds: one array, one sum
    hi = lo if bounds.hi is bounds.lo else grouped_sum(bounds.hi, groups)
    if certain is not None and not certain.all():
        rows = np.flatnonzero(~certain)
        at = (None,) if groups is None else (groups.gids[rows], groups.n_groups)
        lo = lo - grouped_sum(np.maximum(bounds.lo[rows], 0), *at)
        hi = hi - grouped_sum(np.minimum(bounds.hi[rows], 0), *at)
    return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]


def grouped_count_interval(
    certain_mask: np.ndarray, groups: Groups, n_groups: int | None = None
) -> list[Interval]:
    """Per-group count bounds: certain rows ≤ count ≤ candidate rows."""
    groups = _assignment(groups, n_groups)
    total = groups.counts
    if certain_mask.all():
        certain = total
    else:
        certain = np.bincount(groups.gids[certain_mask], minlength=groups.n_groups)
    return [Interval(float(a), float(b)) for a, b in zip(certain, total)]


def _assignment(groups: Groups, n_groups: int | None) -> GroupAssignment:
    if n_groups is None:
        return groups
    return GroupAssignment(groups, n_groups, exact=True)


def _scatter(ufunc, start: int, values, groups: Groups, n_groups) -> np.ndarray:
    """``ufunc.at`` of ``values`` into one ``start``-valued slot per group
    — over one group there is nothing to scatter: the same int64 fold
    (wrap-around included) is ``ufunc.reduce``."""
    groups = _assignment(groups, n_groups)
    values = np.asarray(values, dtype=np.int64)
    if groups is not None and values.shape != groups.gids.shape:
        raise ExecutionError("values and group ids misaligned")
    if groups is None or groups.n_groups == 1:
        return np.array([ufunc.reduce(values, initial=start)], dtype=np.int64)
    out = np.full(groups.n_groups, start, dtype=np.int64)
    ufunc.at(out, groups.gids, values)
    return out
