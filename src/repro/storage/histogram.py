"""Code-domain histograms: free statistics from the approximation stream.

The paper's rule-based optimizer pushes approximate selections down blindly
and names cost-based ordering as future work (§III-A, §VII-B).  The
approximation stream makes the required statistics almost free: the major
bits *are* an equi-width histogram key, so counting codes once at
decomposition time yields exact selectivities for any relaxed predicate —
no sampling, no estimation error at bucket granularity.
"""

from __future__ import annotations

import numpy as np

from ..errors import StorageError
from .decompose import BwdColumn

#: Histograms wider than this are downsampled by merging adjacent codes.
MAX_BUCKETS = 1 << 16


class CodeHistogram:
    """Exact tuple counts per approximation-code bucket (merged if wide)."""

    __slots__ = ("counts", "codes_per_bucket", "total", "_max_code")

    def __init__(self, counts: np.ndarray, codes_per_bucket: int, max_code: int) -> None:
        self.counts = np.asarray(counts, dtype=np.int64)
        self.codes_per_bucket = int(codes_per_bucket)
        self.total = int(self.counts.sum())
        self._max_code = max_code

    @classmethod
    def build(cls, column: BwdColumn) -> "CodeHistogram":
        """Count codes in one pass over the approximation stream."""
        dec = column.decomposition
        if column.length == 0:
            raise StorageError("cannot build a histogram over an empty column")
        codes = column.approx_codes().astype(np.int64)  # arithmetic: widen
        n_codes = dec.max_code + 1
        merge = max(1, -(-n_codes // MAX_BUCKETS))
        counts = np.bincount(codes // merge, minlength=-(-n_codes // merge))
        return cls(counts, merge, dec.max_code)

    def extended(self, column: BwdColumn) -> "CodeHistogram":
        """The histogram of ``column``, whose first ``total`` rows are the
        ones counted here: only the rows behind them are read."""
        if column.length < self.total:
            raise StorageError("column is shorter than its histogram")
        codes = column.approx_at(np.arange(self.total, column.length))
        added = np.bincount(
            codes.astype(np.int64) // self.codes_per_bucket,
            minlength=len(self.counts),
        )
        return CodeHistogram(
            self.counts + added, self.codes_per_bucket, self._max_code
        )

    # ------------------------------------------------------------------
    def estimate_code_range(self, lo_code: int, hi_code: int) -> int:
        """Tuples whose code falls in ``[lo_code, hi_code]``.

        Exact when ``codes_per_bucket == 1``; otherwise boundary buckets
        contribute proportionally (standard equi-width interpolation).
        """
        if hi_code < lo_code:
            return 0
        lo_code = max(0, lo_code)
        hi_code = min(self._max_code, hi_code)
        if hi_code < lo_code:
            return 0
        m = self.codes_per_bucket
        lo_b, hi_b = lo_code // m, hi_code // m
        if lo_b == hi_b:
            covered = (hi_code - lo_code + 1) / m
            return int(round(float(self.counts[lo_b]) * covered))
        total = float(self.counts[lo_b + 1 : hi_b].sum())
        total += float(self.counts[lo_b]) * ((lo_b + 1) * m - lo_code) / m
        total += float(self.counts[hi_b]) * (hi_code - hi_b * m + 1) / m
        return int(round(total))

    def selectivity(self, lo_code: int, hi_code: int) -> float:
        """Fraction of tuples matching the relaxed code range."""
        if self.total == 0:
            return 0.0
        return self.estimate_code_range(lo_code, hi_code) / self.total

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes
