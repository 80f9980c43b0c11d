"""Grouped and scalar aggregation kernels (paper §IV-F).

Pure-NumPy aggregation helpers shared by the approximate (device) and
refined (host) sides; cost accounting happens at the call sites, which know
which device ran the kernel.

The A&R treatment per aggregate function:

* ``count`` — trivial: candidates give an upper bound, certain rows a lower
  bound; the refined count is exact by construction.
* ``min`` / ``max`` — candidate sets that assuredly contain the extremum
  (``ArExecutor._minmax_prune`` keeps every row that could still win),
  refined by a join with the residuals and a plain reduction.
* ``sum`` / ``avg`` — victims of destructive distributivity (§IV-G): on
  distributed data the device-side bounds cannot be sharpened into an exact
  result, so refinement recomputes from exact values on the host.  When all
  inputs are device-resident the approximate sum *is* exact.

**The monoid.**  The exact side refines every aggregate the same way
whatever produced its input, because that input is always a column of
*partials* ``(count, sum, min, max)`` under one commutative, associative
combine: counts and sums add in int64 — wrapping around exactly as one sum
over all the rows wraps, which is what makes any split of the rows and any
order of the parts give the same bytes — and ``min`` / ``max`` keep the
extreme.  The identity is ``(0, 0, int64 max, int64 min)``: an empty part
changes nothing.  A row of value ``v`` and multiplicity ``w`` is the
partial ``(w, v·w, v, v)``; a run of a theta join's sorted right side, a
shard fragment's output row and a base or delta part's are partials as
they stand.  ``avg`` is not an element: it travels as its ``(sum, count)``
and is divided once, in float64, at the end of :func:`fold`.  ``min`` /
``max`` of no partial and ``avg`` over a zero count have no value; that is
:class:`~repro.errors.EmptyInputError`, raised here only.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import EmptyInputError, ExecutionError
from .grouping import GroupAssignment
from .intervals import Interval, IntervalColumn

#: What every grouped kernel runs on: a :class:`GroupAssignment` —
#: range-checked once when it was built, trusted here — or ``None``, an
#: ungrouped block: every row in the one group, no ids to say so.
Groups = GroupAssignment | None
_INT64 = np.iinfo(np.int64)


def fold(
    func: str, partials: Mapping[str, np.ndarray | int], groups: Groups
) -> np.ndarray:
    """One aggregate per group over columns of partials — the only place
    ``count`` / ``sum`` / ``min`` / ``max`` / ``avg`` combine.

    ``partials`` holds whichever of the ``count`` / ``sum`` / ``min`` /
    ``max`` columns ``func`` reads, aligned with ``groups``; where they came
    from — rows (:func:`row_partials`), run payloads, shard fragments, base
    and delta parts — does not matter, which is why every path that
    aggregates is one call of this.  ``avg`` reads ``sum`` and ``count``.
    """
    if func == "count":
        return _counts(partials["count"], groups)
    if groups is not None and groups.n_groups == 0:
        return np.array([], dtype=np.int64)
    if func == "sum":
        return grouped_sum(partials["sum"], groups)
    if func == "avg":
        counts = _counts(partials["count"], groups)
        if bool((counts == 0).any()):
            raise EmptyInputError("avg over an empty group")
        return grouped_sum(partials["sum"], groups).astype(np.float64) / counts
    if func not in ("min", "max"):
        raise ExecutionError(f"unknown aggregate {func!r}")
    if len(partials[func]) == 0:
        raise EmptyInputError(f"{func} of an empty result")
    return (grouped_min if func == "min" else grouped_max)(partials[func], groups)


def row_partials(
    func: str, values: np.ndarray | None, weights: np.ndarray | int
) -> dict[str, np.ndarray | int]:
    """Rows as the partials ``func`` folds: a row of value ``v`` and
    multiplicity ``w`` *is* ``(w, v·w, v, v)``.

    ``weights`` are the multiplicities (the weighted left-row view of a pair
    set), or — rows that each count once — just how many rows there are.
    """
    if func == "count":
        return {"count": weights}
    if values is None:
        raise ExecutionError(f"{func} requires an argument")
    if func in ("min", "max"):  # multiplicity-blind: a row is there or not
        return {func: values}
    once = isinstance(weights, int)
    return {"count": weights, "sum": values if once else values * weights}


def _counts(column: np.ndarray | int, groups: Groups) -> np.ndarray:
    """Per-group totals of a ``count`` column; an ``int`` stands for that
    many rows of multiplicity one, which are counted, not summed."""
    if not isinstance(column, int):
        return grouped_sum(column, groups)
    if groups is None:
        return np.array([column], dtype=np.int64)
    return grouped_count(groups)


def grouped_sum(values: np.ndarray, groups: Groups) -> np.ndarray:
    """Exact per-group int64 sums — scattered once per assignment and
    read-only ``values`` array (:attr:`GroupAssignment.sums`; an array
    that can still be written to is summed every time)."""
    if groups is None:
        return _scatter(np.add, 0, values, None)
    for held, sums in groups.sums:
        if held is values:
            return sums.copy()
    sums = _scatter(np.add, 0, values, groups)
    if isinstance(values, np.ndarray) and not values.flags.writeable:
        groups.sums.append((values, sums.copy()))
    return sums


def grouped_min(values: np.ndarray, groups: Groups) -> np.ndarray:
    return _scatter(np.minimum, _INT64.max, values, groups)


def grouped_max(values: np.ndarray, groups: Groups) -> np.ndarray:
    return _scatter(np.maximum, _INT64.min, values, groups)


def grouped_count(groups: GroupAssignment) -> np.ndarray:
    """Exact per-group row counts."""
    return groups.counts.astype(np.int64)


def grouped_sum_interval(
    bounds: IntervalColumn, groups: Groups, *, certain: np.ndarray | None = None
) -> list[Interval]:
    """Per-group strict sum bounds from per-row intervals (approximate sum).

    A row not ``certain`` (a mask; default: every row is) may yet vanish in
    refinement, so its contribution is hulled with 0: ``max(lo, 0)`` comes
    off the low sums and ``min(hi, 0)`` off the high ones at those rows —
    the int64 sums of the hulled bounds, no bound array copied.
    """
    lo = grouped_sum(bounds.lo, groups)
    # degenerate bounds: one array, one sum
    hi = lo if bounds.hi is bounds.lo else grouped_sum(bounds.hi, groups)
    if certain is not None and not certain.all():
        rows = np.flatnonzero(~certain)
        at = None
        if groups is not None:
            at = GroupAssignment(groups.gids[rows], groups.n_groups, groups.exact)
        lo = lo - grouped_sum(np.maximum(bounds.lo[rows], 0), at)
        hi = hi - grouped_sum(np.minimum(bounds.hi[rows], 0), at)
    return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]


def grouped_count_interval(
    certain_mask: np.ndarray, groups: GroupAssignment
) -> list[Interval]:
    """Per-group count bounds: certain rows ≤ count ≤ candidate rows."""
    total = groups.counts
    certain = total
    if not certain_mask.all():
        certain = _scatter(np.add, 0, certain_mask, groups)
    return [Interval(float(a), float(b)) for a, b in zip(certain, total)]


def _scatter(ufunc, start: int, values, groups: Groups) -> np.ndarray:
    """``values`` folded by ``ufunc`` into one ``start``-valued slot per
    group — the same int64 fold (wrap-around included) whichever way the
    rows lie: over one group it is ``ufunc.reduce``, over group-major rows
    (:attr:`GroupAssignment.starts`) ``ufunc.reduceat`` of the non-empty
    groups' slices, over rows in any order ``ufunc.at``."""
    values = np.asarray(values, dtype=np.int64)
    if groups is not None and values.shape != groups.gids.shape:
        raise ExecutionError("values and group ids misaligned")
    if groups is None or groups.n_groups == 1:
        return np.array([ufunc.reduce(values, initial=start)], dtype=np.int64)
    out = np.full(groups.n_groups, start, dtype=np.int64)
    if groups.starts is None:
        ufunc.at(out, groups.gids, values)
    else:
        live = np.flatnonzero(groups.counts)
        out[live] = ufunc.reduceat(values, groups.starts[live])
    return out
