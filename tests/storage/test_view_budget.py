"""The optional LRU byte budget over decoded code views.

Default is unbounded (the PR-1 behavior).  Under a budget, least-recently-
used views are evicted, columns stay fully correct (the packed streams are
authoritative), and modeled Timeline charges never change — the code-cache
invariant extends to eviction.
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.device.gpu import SimulatedGPU
from repro.device.model import DeviceSpec
from repro.device.timeline import Timeline
from repro.shard import ShardedSession
from repro.storage.decompose import (
    VIEW_SEGMENT_ROWS,
    _PartialView,
    decompose_values,
    set_view_budget,
    view_budget,
    view_cache_bytes,
    view_eviction_stats,
    view_segment_rows,
)


@pytest.fixture(autouse=True)
def unbounded_after():
    """Every test leaves the process-wide knobs back at their defaults."""
    yield
    set_view_budget(None, segment_rows=VIEW_SEGMENT_ROWS)


def small_gpu() -> SimulatedGPU:
    spec = DeviceSpec(
        name="tiny-gpu", kind="gpu", memory_capacity=10**7,
        seq_bandwidth=150e9, random_bandwidth=20e9, launch_overhead=5e-6,
    )
    return SimulatedGPU(spec, processing_reserve_fraction=0.1)


class TestBudgetKnob:
    def test_default_is_unbounded(self):
        assert view_budget() is None
        col = decompose_values(np.arange(1000), residual_bits=4)
        before = view_cache_bytes()
        codes = col.approx_codes()
        # The one accessor hands out the seeded view itself — no signed or
        # widened second copy exists to add bytes to the budget.
        assert codes is col._approx_cache
        assert view_cache_bytes() == before

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            set_view_budget(-1)

    def test_zero_budget_keeps_columns_cold(self):
        set_view_budget(0)
        values = np.random.default_rng(0).integers(0, 10_000, 500)
        col = decompose_values(values, residual_bits=4)
        # seeding was evicted immediately; every accessor still answers
        assert col._approx_cache is None
        assert col._residual_cache is None
        codes = col.approx_codes()
        assert col._approx_cache is None  # dropped right after materializing
        assert np.array_equal(col.reconstruct(), values)
        assert codes.flags.writeable is False

    def test_eviction_is_lru(self):
        set_view_budget(None)
        cols = [
            decompose_values(np.arange(1000) + i, residual_bits=0)
            for i in range(3)
        ]
        per_view = cols[0].approx_codes().nbytes
        # Budget fits two of the three seeded views: the oldest (col 0) is
        # evicted the moment the cap lands.
        set_view_budget(2 * per_view)
        assert cols[0]._approx_cache is None
        assert cols[1]._approx_cache is not None
        assert cols[2]._approx_cache is not None
        # Touch col 1 (now most recent), then rematerialize col 0: the LRU
        # victim must be col 2, not the freshly-touched col 1.
        cols[1].approx_codes()
        cols[0].approx_codes()
        assert cols[2]._approx_cache is None
        assert cols[1]._approx_cache is not None
        assert cols[0]._approx_cache is not None

    def test_evicted_views_rebuild_identically(self):
        values = np.random.default_rng(3).integers(0, 1 << 16, 400)
        col = decompose_values(values, residual_bits=5)
        before_codes = col.approx_codes().copy()
        before_res = col.residuals().copy()
        set_view_budget(0)  # evict everything
        assert col._approx_cache is None and col._residual_cache is None
        set_view_budget(None)
        assert np.array_equal(col.approx_codes(), before_codes)
        assert np.array_equal(col.residuals(), before_res)
        assert np.array_equal(col.reconstruct(), values)

    def test_shrinking_budget_evicts_immediately(self):
        set_view_budget(None)
        col = decompose_values(np.arange(2000), residual_bits=3)
        col.approx_codes()
        assert view_cache_bytes() > 0
        set_view_budget(0)
        assert col._approx_cache is None

    def test_accounting_tracks_usage(self):
        set_view_budget(None)
        base = view_cache_bytes()
        col = decompose_values(np.arange(512), residual_bits=0)
        view = col.approx_codes()
        assert view_cache_bytes() >= base + view.nbytes

    @pytest.mark.parametrize("make", [Session, lambda: ShardedSession(2)])
    def test_sessions_expose_the_budget_and_its_readers(self, make):
        """What a harness needs without importing this module's functions:
        the setter and both readers on either session type."""
        session = make()
        session.create_table(
            "t", {"v": IntType()}, {"v": np.arange(4096) % 1000}
        )
        session.bwdecompose("t", "v", 32)
        session.set_view_budget(None, segment_rows=512)
        session.table("t").where("v", "<", 500).count("n").run()
        assert session.view_cache_bytes() == view_cache_bytes() > 0
        before = session.view_eviction_stats()
        session.set_view_budget(0)
        assert session.view_cache_bytes() == 0
        events, released = session.view_eviction_stats()
        assert events > before[0] and released > before[1]
        assert (events, released) == view_eviction_stats()


class TestSegmentGranularEviction:
    """PR 5: budget pressure drops view *segments*, not whole columns."""

    def test_default_segment_size(self):
        assert view_segment_rows() == VIEW_SEGMENT_ROWS

    def test_segment_rows_must_be_multiple_of_64(self):
        with pytest.raises(ValueError):
            set_view_budget(None, segment_rows=100)
        with pytest.raises(ValueError):
            set_view_budget(None, segment_rows=0)

    def test_partial_eviction_keeps_most_segments(self):
        set_view_budget(None, segment_rows=256)
        cols = [
            decompose_values(np.arange(1024) + i, residual_bits=0)
            for i in range(3)
        ]
        per_view = cols[0].approx_codes().nbytes  # 4 segments of 2 KiB
        # Room for 2.5 views: only half of the oldest view must go.
        set_view_budget(int(2.5 * per_view))
        assert isinstance(cols[0]._approx_cache, _PartialView)
        assert cols[0]._approx_cache.resident == 2
        assert isinstance(cols[1]._approx_cache, np.ndarray)
        assert isinstance(cols[2]._approx_cache, np.ndarray)

    def test_partially_evicted_view_rebuilds_identically(self):
        set_view_budget(None, segment_rows=128)
        values = np.random.default_rng(5).integers(0, 1 << 20, 1000)
        col = decompose_values(values, residual_bits=7)
        codes_before = col.approx_codes().copy()
        res_before = col.residuals().copy()
        per_view = codes_before.nbytes
        set_view_budget(per_view // 2)  # halve: segments of both views go
        set_view_budget(None)
        assert np.array_equal(col.approx_codes(), codes_before)
        assert np.array_equal(col.residuals(), res_before)
        assert np.array_equal(col.reconstruct(), values)
        # Once reassembled the views are plain full arrays again.
        assert isinstance(col._approx_cache, np.ndarray)

    def test_whole_view_drops_without_conversion_when_all_must_go(self):
        set_view_budget(None, segment_rows=128)
        col = decompose_values(np.arange(1024), residual_bits=0)
        assert col._approx_cache is not None
        set_view_budget(0)
        # Budget 0 cannot keep any segment: the attr goes straight to None.
        assert col._approx_cache is None

    def test_accounting_matches_resident_segments(self):
        set_view_budget(None, segment_rows=256)
        base = view_cache_bytes()
        col = decompose_values(np.arange(1024), residual_bits=0)
        view = col.approx_codes()
        assert view.itemsize == 2  # 10-bit codes: two bytes a row, not eight
        assert view_cache_bytes() == base + 1024 * view.itemsize
        # shave one segment
        set_view_budget(view_cache_bytes() - 256 * view.itemsize)
        assert isinstance(col._approx_cache, _PartialView)
        assert col._approx_cache.resident == 3
        assert view_cache_bytes() == base + 3 * 256 * view.itemsize
        set_view_budget(None)
        col.approx_codes()
        assert view_cache_bytes() == base + 1024 * view.itemsize

    def test_changing_segment_rows_flushes(self):
        set_view_budget(None, segment_rows=256)
        col = decompose_values(np.arange(512), residual_bits=0)
        col.approx_codes()
        assert view_cache_bytes() > 0
        set_view_budget(None, segment_rows=512)
        assert view_cache_bytes() == 0
        assert col._approx_cache is None

    def test_partial_view_reassembles_at_code_width(self):
        set_view_budget(None, segment_rows=64)
        values = np.random.default_rng(9).integers(0, 1 << 12, 500)
        col = decompose_values(values, residual_bits=3)
        before = col.approx_codes().copy()
        # Evict a sliver so the view goes partial, then reassemble: the
        # hole is decoded from the packed stream straight into the view's
        # own dtype.
        set_view_budget(view_cache_bytes() - 64 * before.itemsize)
        assert isinstance(col._approx_cache, _PartialView)
        set_view_budget(None)
        after = col.approx_codes()
        assert after.dtype == before.dtype == np.uint16
        assert np.array_equal(after, before)

    def test_segmented_eviction_charges_identically(self):
        """Partial eviction is wall-clock only: a column squeezed through
        a tiny segmented budget charges exactly like an unbounded one."""
        values = np.random.default_rng(2).integers(0, 100_000, 4000)
        spans = []
        for constrained in (False, True):
            set_view_budget(None, segment_rows=128)
            gpu = small_gpu()
            col = decompose_values(values, residual_bits=4)
            gpu.load_column("c", col, None)
            if constrained:
                set_view_budget(5 * 128 * 8)  # a handful of segments
            t = Timeline()
            gpu.select_code_ranges([(col, "c", 10, 4000)], t)
            gpu.select_code_ranges([(col, "c", 10, 4000)], t)
            spans.append(t.span_tuples())
        assert spans[0] == spans[1]


class TestBudgetTimelineInvariance:
    def test_budgeted_scan_charges_identically(self):
        """A budget changes only wall-clock behaviour: a permanently-cold
        column must charge exactly what an unbounded warm one does."""
        values = np.random.default_rng(1).integers(0, 100_000, 4000)
        spans = []
        for budget in (None, 0):
            set_view_budget(budget)
            gpu = small_gpu()
            col = decompose_values(values, residual_bits=4)
            gpu.load_column("c", col, None)
            t = Timeline()
            gpu.select_code_ranges([(col, "c", 10, 4000)], t)
            gpu.select_code_ranges([(col, "c", 10, 4000)], t)
            spans.append([
                (s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase)
                for s in t.spans
            ])
            if budget == 0:
                assert col._approx_cache is None  # genuinely stayed cold
        assert spans[0] == spans[1]
