"""Needles at the key's dtype (PR 15).

A ``searchsorted`` whose needle dtype differs from its key's promotes —
copies — the whole key (or the whole needle array) per call: a Python-int
needle into a 1 M-row ``uint16`` key measured 392 µs against 1.4 µs.  The
cooperative carve and the shard carve therefore search sorted codes with
needles clipped into and cast to the key's dtype; a spy on
``np.searchsorted`` pins that no call in either sees two dtypes.
"""

import numpy as np
import pytest

from repro import IntType
from repro.core.relax import EMPTY_CODE_RANGE, ValueRange
from repro.device.machine import Machine
from repro.engine import cooperative
from repro.engine.cooperative import ScanRequest, cooperative_scan_hits
from repro.shard import ShardedSession
from repro.storage.decompose import decompose_values


@pytest.fixture()
def searches(monkeypatch):
    """Every ``np.searchsorted`` call's ``(key dtype, needle dtype)``."""
    seen = []
    real = np.searchsorted

    def spy(a, v, *args, **kwargs):
        seen.append((np.asarray(a).dtype, np.asarray(v).dtype))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return seen


#: 13-bit codes (uint16) over 20 000 rows; bounds below zero, above the
#: dtype, inverted, and the relaxation's own "no code matches" sentinel.
CODE_RANGES = [
    (0, (1 << 13) - 1), (100, 900), (-3, 10), (5, 10**6), (-9, -1),
    (70_000, 80_000), (1 << 63, 1 << 64), EMPTY_CODE_RANGE, (900, 100),
    (65_535, 65_535), (0, 0),
]


@pytest.mark.parametrize("code_range", CODE_RANGES)
def test_cooperative_carve_searches_at_the_key_dtype(
    monkeypatch, searches, code_range
):
    values = np.random.default_rng(4).integers(0, 1 << 17, 20_000)
    column = decompose_values(values, residual_bits=4)
    gpu = Machine.paper_testbed().gpu
    gpu.load_column("v", column, None)
    assert column.sorted_approx_codes().dtype == np.uint16
    monkeypatch.setattr(
        cooperative, "relax_to_code_range", lambda vrange, dec: code_range
    )
    carved = cooperative_scan_hits(column, [ScanRequest("q", ValueRange())])["q"]

    assert len(searches) == 2  # one per side, whatever the batch size
    assert all(key == needle == np.uint16 for key, needle in searches)
    lo, hi = code_range
    codes = column.approx_codes().astype(object)  # exact Python-int compares
    want = np.flatnonzero([lo <= c <= hi for c in codes])
    assert carved.size == want.size
    assert np.array_equal(carved.ascending(), want)
    # ... which is also what the solo kernel's narrow compare selects.
    solo, _ = gpu.select_code_ranges(
        [(column, "v", lo, hi)], Machine.paper_testbed().new_timeline()
    )
    assert np.array_equal(solo, want)


def test_shard_carve_searches_at_the_codes_dtype(searches):
    rng = np.random.default_rng(8)
    s = ShardedSession(4)
    s.create_table(
        "fact", {"v": IntType()}, {"v": rng.integers(0, 40_000, 4_000)}
    )
    s.bwdecompose("fact", "v", 24)                      # carve by code band
    s.append("fact", {"v": rng.integers(0, 40_000, 64)})  # route a batch
    narrow = [pair for pair in searches if pair[0] != np.int64]
    assert len(narrow) >= 2, "the spy saw both carves"
    assert all(key == needle for key, needle in searches)
    assert sum(s.shard_rows("fact")) == 4_000
