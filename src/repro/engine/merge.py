"""The one merge of partial Results: shard fragments, base + delta parts.

A query answered in parts — one fragment per shard, or the packed base plus
the delta contributions — is the disjoint union of what the parts answered,
so its Result is their Results combined:

* aggregates — each part's output row *is* a partial of the monoid of
  :mod:`repro.core.aggregates`, so the merged aggregate is one
  :func:`~repro.core.aggregates.fold` over the parts' rows, grouped by
  the ``np.unique``-ordered ids of their concatenated exact keys — the ids
  one run over all the rows assigns.  ``avg`` cannot merge from finals, so
  the parts run the *lowered* query (:func:`lower_aggregates`: its ``sum``
  and ``count`` under :data:`AVG_SUM_SUFFIX` / :data:`AVG_CNT_SUFFIX`) and
  the division happens here, once;
* bare theta pairs — concatenated under each part's position translation
  (a shard's row map, a delta part's offsets) and re-sorted canonically;
* selected rows — concatenated in part order, which is position order.

A part whose slice was empty (:class:`~repro.errors.EmptyInputError`) is
left out by the caller; when every part is, the fold raises the same error
one run over the union raises.  Billing and the approximate answer stay with
the two callers (``shard.merge.*`` in :mod:`repro.shard.executor`,
``ingest.delta.merge`` in :mod:`repro.ingest.union`): they differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.aggregates import fold
from ..core.pair_agg import group_pair_rows
from ..errors import PlanError
from ..plan.logical import Aggregate, Query
from .result import Result

#: Suffixes of the part-only aliases an ``avg`` lowers into (dropped from
#: the merged result).
AVG_SUM_SUFFIX = "#sum"
AVG_CNT_SUFFIX = "#cnt"


def lower_aggregates(aggregates: tuple[Aggregate, ...]) -> tuple[Aggregate, ...]:
    """The aggregates a part runs: ``avg`` splits into mergeable partials."""
    lowered: list[Aggregate] = []
    taken = {a.alias for a in aggregates}
    for agg in aggregates:
        if agg.func != "avg":
            lowered.append(agg)
            continue
        sum_alias = agg.alias + AVG_SUM_SUFFIX
        cnt_alias = agg.alias + AVG_CNT_SUFFIX
        if sum_alias in taken or cnt_alias in taken:
            raise PlanError(
                f"aggregate alias {agg.alias!r} collides with the avg "
                f"partial aliases ({sum_alias!r}, {cnt_alias!r})"
            )
        lowered.append(Aggregate("sum", agg.expr, sum_alias))
        lowered.append(Aggregate("count", None, cnt_alias))
    return tuple(lowered)


@dataclass
class Part:
    """One part's Result and how its positions translate into the whole's."""

    result: Result
    #: ``left_pos`` → global fact positions: a shard's row map, or the
    #: offset of a delta part's rows behind the base.
    left: np.ndarray | int = 0
    #: ``right_pos`` offset (the delta right side sits behind the base's).
    right: int = 0


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    if len(arrays) == 1:  # pruning leaves most merges one part: no copy
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


def fold_parts(agg: Aggregate, results: list[Result], groups=None) -> np.ndarray:
    """One aggregate of the original query over the parts' lowered rows."""
    def column(alias: str) -> np.ndarray:
        return _concat([r.columns[alias] for r in results])

    if agg.func != "avg":
        return fold(agg.func, {agg.func: column(agg.alias)}, groups)
    partials = {
        "sum": column(agg.alias + AVG_SUM_SUFFIX),
        "count": column(agg.alias + AVG_CNT_SUFFIX),
    }
    return fold("avg", partials, groups)


def merge(query: Query, parts: list[Part]) -> tuple[dict[str, np.ndarray], int]:
    """``(columns, row_count)`` of ``query`` over the union of the parts."""
    results = [p.result for p in parts]
    if query.is_aggregation():
        groups, columns = None, {}
        if query.group_by:
            keys = {
                name: _concat([r.columns[name] for r in results])
                for name in query.group_by
            }
            groups = group_pair_rows(list(keys.values()))
            columns = {n: groups.representatives(k.take) for n, k in keys.items()}
        for agg in query.aggregates:
            columns[agg.alias] = fold_parts(agg, results, groups)
        return columns, 1 if groups is None else groups.n_groups
    if not query.theta_joins:
        columns = {
            name: _concat([r.columns[name] for r in results])
            for name in query.select
        }
        return columns, sum(r.row_count for r in results)
    left = _concat([
        p.left[p.result.columns["left_pos"]] if isinstance(p.left, np.ndarray)
        else np.asarray(p.result.columns["left_pos"], dtype=np.int64) + p.left
        for p in parts
    ])
    right = _concat([
        np.asarray(p.result.columns["right_pos"], dtype=np.int64) + p.right
        for p in parts
    ])
    order = np.lexsort((right, left))  # canonical (left, right) order
    return {"left_pos": left[order], "right_pos": right[order]}, len(left)
