"""Aggregation over theta-join pair sets, shared by the A&R and classic engines.

Every aggregate this engine supports over a theta join's output is a
function of left-side values only (plus the pair count), so it reduces to a
*weighted* aggregate over the distinct left rows: the run-length candidate
set contributes one entry per run with the run length as weight (see
:meth:`~repro.core.candidates.RunPairCandidates.left_multiplicities`).  That is
what lets ``count(*)`` — and any grouped aggregate — over a band join finish
without ever exploding a single pair.

Both executors (``engine/ar_executor.py`` refinement side,
``engine/bulk.py`` classic side) hand that view — rows as partials,
:func:`~repro.core.aggregates.row_partials`, or the run payloads of
:func:`right_run_partials` — to the one :func:`~repro.core.aggregates.fold`
on exact values, which is what guarantees the two modes return identical
results.  Cost accounting stays at the call sites, which know which device
ran the kernel.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .candidates import RunPairCandidates
from .grouping import GroupAssignment, combine_keys, key_range


def pair_rows(pairs: RunPairCandidates) -> tuple[np.ndarray, np.ndarray]:
    """The weighted left-row view of a pair set: ``(rows, multiplicities)``."""
    return pairs.left_multiplicities()


def group_pair_rows(key_columns: list[np.ndarray]) -> GroupAssignment:
    """Dense group ids over composite exact keys, aligned with the rows.

    Group numbering comes from ``np.unique`` over the composite key — a
    pure function of the key *values*, so the A&R refinement (producer-order
    rows), the classic executor (table-order rows) and a merge of partial
    results (part-order rows) assign identical ids to identical key tuples.
    """
    if not key_columns:
        raise ExecutionError("group_pair_rows needs at least one key column")
    n = len(key_columns[0])
    gids = np.zeros(n, dtype=np.int64)
    n_groups = min(1, n)
    for keys in key_columns:
        keys = np.asarray(keys, dtype=np.int64)
        gids, n_groups = combine_keys(gids, keys - key_range(keys)[0])
    return GroupAssignment(gids, n_groups, exact=True)


def pair_result_columns(
    group_by: tuple[str, ...],
    group_keys: dict[str, np.ndarray],
    groups: GroupAssignment | None,
    aggregate_columns: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Assemble an aggregated theta block's result columns: a representative
    key per group for each GROUP BY column, then the aggregate outputs.
    Shared by both engines so the result layout cannot diverge.
    """
    columns = {name: groups.representatives(group_keys[name].take) for name in group_by}
    columns.update(aggregate_columns)
    return columns


def right_run_partials(
    sorted_values: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
) -> dict[str, np.ndarray]:
    """Per-non-empty-run partials of right-side values — the run payload.

    The right-side twin of :meth:`left_multiplicities`: aggregates over the
    *right* column of a theta join vary within a run, but the runs index a
    value-sorted right permutation, so every per-run reduction is O(runs):

    * ``sum``   — a prefix-sum difference over the sorted values,
    * ``count`` — the run length,
    * ``min`` / ``max`` — the run's first / last sorted value (valid only
      when ``sorted_values`` is ascending, i.e. the exact-sorted side).

    Empty runs are dropped, matching the filtering of
    :meth:`RunPairCandidates.left_multiplicities`, so the partials align
    with the group ids computed from the weighted left-row view.
    """
    counts = np.asarray(stops, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    keep = counts > 0
    s = np.asarray(starts, dtype=np.int64)[keep]
    e = np.asarray(stops, dtype=np.int64)[keep]
    sorted_values = np.asarray(sorted_values, dtype=np.int64)
    prefix = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(sorted_values, dtype=np.int64))
    )
    return {
        "count": counts[keep],
        "sum": prefix[e] - prefix[s],
        "min": sorted_values[s] if len(s) else np.empty(0, dtype=np.int64),
        "max": sorted_values[e - 1] if len(e) else np.empty(0, dtype=np.int64),
    }
