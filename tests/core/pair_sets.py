"""Set-level views of a theta join's candidate pairs, for tests.

Either representation — :class:`~repro.core.candidates.PairCandidates` or
run-length :class:`~repro.core.candidates.RunPairCandidates` — order
ignored, as the pair contract says.
"""

import numpy as np

from repro.core.candidates import PairCandidates, RunPairCandidates
from repro.core.intervals import IntervalColumn


def narrowed(pairs: PairCandidates, keep_mask: np.ndarray) -> PairCandidates:
    """The pairs a boolean mask over them keeps."""
    keep = np.flatnonzero(keep_mask)
    return PairCandidates(
        pairs.left_positions.take(keep), pairs.right_positions.take(keep)
    )


def pair_set(pairs) -> set[tuple[int, int]]:
    """The pairs as a Python set (small inputs)."""
    if isinstance(pairs, RunPairCandidates):
        pairs = pairs.materialized()
    return set(zip(pairs.left_positions.tolist(), pairs.right_positions.tolist()))


def set_equals(a, b) -> bool:
    """True when both hold the same pairs, either representation.

    Compares canonicalized arrays, so duplicates must match in multiplicity
    too — producers never emit duplicates.
    """
    if len(a) != len(b):
        return False
    a, b = a.canonicalized(), b.canonicalized()
    return bool(
        np.array_equal(a.left_positions, b.left_positions)
        and np.array_equal(a.right_positions, b.right_positions)
    )


def bucket_bounds(column, ids=None) -> IntervalColumn:
    """Approximate value intervals of a decomposed column's rows (all, or
    ``ids``): the bucket bounds a theta join's nested loop compares."""
    codes = column.approx_codes() if ids is None else column.approx_at(ids)
    dec = column.decomposition
    return IntervalColumn.from_bounds(
        dec.approx_lower_bounds(codes), dec.approx_upper_bounds(codes)
    )
