"""The zero-unpack code cache: correctness and modeled-time invariance.

The decoded-code views memoized on :class:`BwdColumn` are a wall-clock
optimization only.  These tests pin the two contracts PERFORMANCE.md
documents: (1) cached reads are identical to packed-stream reads, and
(2) modeled :class:`Timeline` seconds are byte-identical whether a kernel
runs against a cold packed stream or a warm cache.
"""

import numpy as np
import pytest

from repro.core.approximate import select_approx, select_conjunction_approx
from repro.core.relax import ValueRange
from repro.device.gpu import SimulatedGPU
from repro.device.model import DeviceSpec
from repro.device.timeline import Timeline
from repro.storage.bitpack import code_dtype, unpack_codes
from repro.storage.decompose import BwdColumn, decompose_values
from repro.workloads.tpch import TpchConfig, build_tpch_session, q6_sql


def small_gpu() -> SimulatedGPU:
    spec = DeviceSpec(
        name="tiny-gpu", kind="gpu", memory_capacity=10**7,
        seq_bandwidth=150e9, random_bandwidth=20e9, launch_overhead=5e-6,
    )
    return SimulatedGPU(spec, processing_reserve_fraction=0.1)


def cold_column(values, residual_bits=4) -> BwdColumn:
    """A column whose caches are unseeded (packed streams only)."""
    warm = decompose_values(np.asarray(values), residual_bits=residual_bits)
    return BwdColumn(
        warm.decomposition, warm.length, warm._approx_words, warm._residual_words
    )


class TestCacheCorrectness:
    def test_cached_views_match_packed_stream(self):
        values = np.random.default_rng(5).integers(0, 10_000, 500)
        col = cold_column(values)
        dec = col.decomposition
        expected_approx = unpack_codes(
            col._approx_words, max(dec.approx_bits, 1), col.length
        )
        expected_res = unpack_codes(
            col._residual_words, dec.residual_bits, col.length
        )
        assert np.array_equal(col.approx_codes(), expected_approx)
        assert np.array_equal(col.residuals(), expected_res)
        # second call returns the same memoized object
        assert col.approx_codes() is col.approx_codes()
        assert col.residuals() is col.residuals()
        # ... at the codes' own width, not a machine word per row
        assert col.approx_codes().dtype == code_dtype(max(dec.approx_bits, 1))
        assert col.residuals().dtype == code_dtype(dec.residual_bits)

    def test_from_values_seeds_cache(self):
        values = np.arange(100)
        col = decompose_values(values, residual_bits=3)
        assert col._approx_cache is not None
        assert col._residual_cache is not None
        assert np.array_equal(col.reconstruct(), values)

    def test_cached_views_are_read_only(self):
        col = decompose_values(np.arange(64), residual_bits=2)
        with pytest.raises(ValueError):
            col.approx_codes()[0] = 1
        with pytest.raises(ValueError):
            col.residuals()[0] = 1
        with pytest.raises(ValueError):
            col.sorted_approx_codes()[0] = 1

    def test_warm_gather_matches_packed_gather(self):
        values = np.random.default_rng(9).integers(0, 1 << 20, 300)
        cold = cold_column(values, residual_bits=7)
        warm = decompose_values(values, residual_bits=7)
        pos = np.array([0, 7, 299, 7, 150])
        assert np.array_equal(cold.approx_at(pos), warm.approx_at(pos))
        assert np.array_equal(cold.residual_at(pos), warm.residual_at(pos))
        assert np.array_equal(cold.reconstruct(pos), values[pos])

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_warm_gather_validates_positions(self, bad):
        col = decompose_values(np.arange(10), residual_bits=2)
        col.approx_codes(), col.residuals()
        assert isinstance(col._approx_cache, np.ndarray)
        assert isinstance(col._residual_cache, np.ndarray)
        for gather in (col.approx_at, col.residual_at):
            with pytest.raises(IndexError, match="gather position out of range"):
                gather(np.array([3, bad]))


def spans_of(timeline: Timeline):
    return [
        (s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase)
        for s in timeline.spans
    ]


class TestModeledTimeInvariance:
    """Warm caches must never change what the device model charges."""

    def test_scan_cold_equals_warm(self):
        values = np.random.default_rng(1).integers(0, 100_000, 4000)
        gpu = small_gpu()
        timelines = []
        for col in (cold_column(values), decompose_values(values, residual_bits=4)):
            gpu.load_column(f"c{len(timelines)}", col, None)
            t = Timeline()
            gpu.select_code_ranges([(col, "c", 10, 4000)], t)
            gpu.select_code_ranges([(col, "c", 10, 4000)], t)  # repeat: cache now warm
            timelines.append(spans_of(t))
        assert timelines[0] == timelines[1]
        # the two identical scans inside each timeline charge identically
        first, second = timelines[0][0], timelines[0][1]
        assert first == second

    def test_conjunction_cold_equals_warm(self):
        values = np.random.default_rng(2).integers(0, 100_000, 4000)
        gpu = small_gpu()
        results = []
        for col in (cold_column(values), decompose_values(values, residual_bits=4)):
            gpu.load_column(f"k{len(results)}", col, None)
            t = Timeline()
            cand = select_approx(
                gpu, t, col, "v", ValueRange.between(1000, 60_000)
            )
            cand = select_conjunction_approx(
                gpu, t, [(col, "v2", ValueRange.between(2000, 50_000))],
                candidates=cand,
            )
            results.append((spans_of(t), cand.ids.tolist()))
        assert results[0] == results[1]

    def test_end_to_end_query_timeline_is_stable_across_runs(self):
        """Executing the same query twice (second run fully cache-warm)
        must charge byte-identical modeled seconds."""
        session = build_tpch_session(TpchConfig(scale_factor=0.002, seed=3))
        runs = [spans_of(session.execute(q6_sql(), mode="ar").timeline)
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert any(kind == "gpu" for _, kind, *_ in runs[0])
