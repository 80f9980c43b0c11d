"""Tests for the simulated GPU kernels and residency enforcement."""

import numpy as np
import pytest

from repro.device.gpu import SimulatedGPU, scrambled_like_parallel_scatter
from repro.device.machine import Machine
from repro.device.model import DeviceSpec
from repro.device.timeline import Timeline
from repro.errors import DataNotResident, DeviceOutOfMemory
from repro.storage.decompose import decompose_values


def small_gpu(capacity=10**6) -> SimulatedGPU:
    spec = DeviceSpec(
        name="tiny-gpu", kind="gpu", memory_capacity=capacity,
        seq_bandwidth=150e9, random_bandwidth=20e9, launch_overhead=5e-6,
    )
    return SimulatedGPU(spec, processing_reserve_fraction=0.1)


def loaded_column(gpu, values, residual_bits=4):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    gpu.load_column("col", col, None)
    return col


class TestResidency:
    def test_kernel_requires_loaded_column(self):
        gpu = small_gpu()
        col = decompose_values(np.arange(100), residual_bits=4)
        with pytest.raises(DataNotResident):
            gpu.select_code_ranges([(col, "c", 0, 1)], Timeline())

    def test_load_and_evict(self):
        gpu = small_gpu()
        col = loaded_column(gpu, np.arange(100))
        assert gpu.is_resident(col)
        assert gpu.pool.holds("col")
        gpu.evict_column(col)
        assert not gpu.is_resident(col)
        with pytest.raises(DataNotResident):
            gpu.evict_column(col)

    def test_capacity_enforced(self):
        gpu = small_gpu(capacity=1000)
        col = decompose_values(np.arange(10_000), residual_bits=0)
        with pytest.raises(DeviceOutOfMemory):
            gpu.load_column("big", col)

    def test_processing_reserve_held_back(self):
        gpu = small_gpu(capacity=1000)
        assert gpu.pool.available == 900

    def test_load_charges_load_phase(self):
        gpu = small_gpu()
        col = decompose_values(np.arange(100), residual_bits=4)
        t = Timeline()
        gpu.load_column("c", col, t)
        (span,) = t.spans
        assert span.phase == "load"


class TestScanKernels:
    def test_scan_code_range_positions(self):
        gpu = small_gpu()
        values = np.array([5, 100, 17, 42, 99, 6])
        col = loaded_column(gpu, values, residual_bits=0)
        t = Timeline()
        hits, index = gpu.select_code_ranges(
            [(col, "c", col.decomposition.approx_code_of(17),
              col.decomposition.approx_code_of(99))], t,
        )
        assert index is None  # a scan has no incoming candidates to index
        assert np.array_equal(np.sort(values[hits]), [17, 42, 99])
        assert t.seconds_by_kind()["gpu"] > 0

    def test_probe_restricts_candidates(self):
        gpu = small_gpu()
        values = np.arange(64)
        col = loaded_column(gpu, values, residual_bits=0)
        t = Timeline()
        initial = np.array([1, 10, 20, 40, 63])
        ids, index = gpu.select_code_ranges(
            [(col, "c", 10, 40)], t, positions=initial
        )
        assert np.array_equal(ids, [10, 20, 40])
        assert np.array_equal(index, [1, 2, 3])
        (span,) = t.spans
        assert span.op == "select.approx.probe(c)"

    def test_probe_keeps_the_order_of_its_positions(self):
        gpu = small_gpu()
        values = np.arange(64)
        col = loaded_column(gpu, values, residual_bits=0)
        ids, index = gpu.select_code_ranges(
            [(col, "c", 10, 40)], Timeline(), positions=np.array([63, 40, 1, 12])
        )
        assert np.array_equal(ids, [40, 12])
        assert np.array_equal(index, [1, 3])

    def test_gather_codes(self):
        gpu = small_gpu()
        values = np.array([10, 20, 30, 40])
        col = loaded_column(gpu, values, residual_bits=0)
        t = Timeline()
        out = gpu.gather_codes(col, np.array([3, 1]), t)
        assert np.array_equal(
            col.decomposition.combine(out, np.zeros(2, dtype=np.uint64)), [40, 20]
        )

    def test_full_scan_matches_codes(self):
        gpu = small_gpu()
        values = np.arange(100, 200)
        col = loaded_column(gpu, values, residual_bits=3)
        t = Timeline()
        assert np.array_equal(gpu.full_scan_codes(col, t), col.approx_codes())


class TestScatterOrder:
    @pytest.mark.parametrize("n", [0, 1, 2, 60, 61, 62, 122, 1000])
    def test_lane_major_permutation(self, n):
        """Rows come out lane by lane (61 lanes), each lane in input order —
        the stable sort of ``arange(n) % 61`` the scatter model is defined by."""
        positions = np.arange(n, dtype=np.int64) * 3 + 1
        order = np.argsort(np.arange(n) % 61, kind="stable")
        assert np.array_equal(
            scrambled_like_parallel_scatter(positions), positions[order]
        )


class TestGroupingKernel:
    def test_group_ids_positionally_aligned(self):
        gpu = small_gpu()
        codes = np.array([7, 3, 7, 9, 3])
        t = Timeline()
        gids, uniques = gpu.hash_group(codes, t)
        assert np.array_equal(uniques[gids], codes)
        assert len(uniques) == 3

    def test_fewer_groups_cost_more(self):
        """§VI-B Fig 8f: fewer groups → more write conflicts → slower."""
        gpu = small_gpu()
        few = np.zeros(10_000, dtype=np.int64)
        many = np.arange(10_000, dtype=np.int64) % 1000
        t_few, t_many = Timeline(), Timeline()
        gpu.hash_group(few, t_few)
        gpu.hash_group(many, t_many)
        assert t_few.total_seconds() > t_many.total_seconds()


class TestMachine:
    def test_paper_testbed_wiring(self):
        m = Machine.paper_testbed()
        assert m.gpu.spec.name == "GTX 680"
        assert m.cpu.spec.threads == 32
        assert m.bus.spec.seq_bandwidth == pytest.approx(3.95e9)
        assert isinstance(m.new_timeline(), Timeline)

    def test_reserve_fraction_validated(self):
        with pytest.raises(ValueError):
            Machine.paper_testbed(gpu_processing_reserve_fraction=1.5)
