"""Tests for timelines, the PCI bus model and the CPU scaling model."""

import numpy as np
import pytest

from repro.device.bus import PciBus
from repro.device.cpu import Cpu
from repro.device.model import AccessPattern, DeviceSpec, PCIE_GEN2, XEON_E5_2650_X2
from repro.device.timeline import Timeline


class TestTimeline:
    def test_record_and_totals(self):
        t = Timeline()
        t.record("gpu0", "gpu", "select.approx", 100, 1.0, "approximate")
        t.record("cpu0", "cpu", "select.refine", 50, 2.0, "refine")
        t.record("pci", "bus", "candidates", 10, 0.5, "refine")
        assert t.total_seconds() == pytest.approx(3.5)
        assert t.approximate_seconds() == pytest.approx(1.0)
        assert t.refine_seconds() == pytest.approx(2.5)

    def test_breakdown_by_kind(self):
        t = Timeline()
        t.record("gpu0", "gpu", "a", 0, 1.0)
        t.record("gpu0", "gpu", "b", 0, 0.5)
        t.record("cpu0", "cpu", "c", 0, 2.0)
        kinds = t.seconds_by_kind()
        assert kinds["gpu"] == pytest.approx(1.5)
        assert kinds["cpu"] == pytest.approx(2.0)
        assert "bus" not in kinds

    def test_phase_filter(self):
        t = Timeline()
        t.record("gpu0", "gpu", "a", 0, 1.0, "approximate")
        t.record("pci", "bus", "load", 0, 9.0, "load")
        assert t.total_seconds(phases=("approximate", "refine")) == pytest.approx(1.0)

    def test_bytes_by_kind(self):
        t = Timeline()
        t.record("gpu0", "gpu", "a", 100, 1.0)
        t.record("gpu0", "gpu", "b", 11, 1.0)
        assert t.bytes_by_kind() == {"gpu": 111}

    def test_extend_merges(self):
        a, b = Timeline(), Timeline()
        a.record("x", "gpu", "a", 0, 1.0)
        b.record("y", "cpu", "b", 0, 2.0)
        a.extend(b)
        assert len(a) == 2
        assert a.total_seconds() == pytest.approx(3.0)

    def test_ledger_is_columnar_and_reads_as_spans(self):
        """What a kept Result retains per charge: one reference to a label
        tuple shared by every ledger, and two unboxed numbers (PR 17)."""
        from repro.device.timeline import Span

        a, b = Timeline(), Timeline(scale=2.0)
        for t in (a, b):
            # formatted per charge, as the kernels do: distinct string objects
            t.record("gpu0", "gpu", "select.approx({})".format("v"), 128, 0.25)
            t.record("cpu0", "cpu", "select.refine(v)", np.int64(64), 0.5, "refine")
        assert a.span_tuples() == [
            ("gpu0", "gpu", "select.approx(v)", 128, 0.25, "approximate"),
            ("cpu0", "cpu", "select.refine(v)", 64, 0.5, "refine"),
        ]
        assert [type(cell) for cell in a.span_tuples()[1]] == [str, str, str, int, float, str]
        assert a.spans == [Span(*cells) for cells in a.span_tuples()] == list(a)
        assert b.spans[0].seconds == 0.5 and len(b) == 2
        assert a.spans[0].op is b.spans[0].op  # one label string, shared
        for obj in (a, a.spans[0]):
            assert not hasattr(obj, "__dict__")
        with pytest.raises(TypeError):
            a.record("gpu0", "gpu", "x", 1.5, 0.1)  # bytes are whole
        assert len(a) == 2  # ... and a refused charge leaves no half-span

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Timeline().record("x", "gpu", "a", 0, -1.0)

    def test_render_readable(self):
        t = Timeline()
        t.record("gpu0", "gpu", "select.approx", 128, 0.004)
        text = t.render()
        assert "select.approx" in text
        assert "total" in text


class TestPciBus:
    def test_transfer_charges_bus_span(self):
        bus = PciBus(PCIE_GEN2)
        t = Timeline()
        secs = bus.transfer(t, int(3.95e9), "candidates")
        assert secs == pytest.approx(1.0, rel=1e-3)
        assert t.seconds_by_kind()["bus"] == pytest.approx(secs)

    def test_streaming_baseline_matches_paper_measurement(self):
        """§VI-C: streaming the 1.8 GB spatial input ≈ 0.453 s."""
        bus = PciBus(PCIE_GEN2)
        assert bus.streaming_seconds(int(1.79e9)) == pytest.approx(0.453, rel=0.01)


class TestCpuScaling:
    def test_charge_records_refine_phase_by_default(self):
        cpu = Cpu(XEON_E5_2650_X2)
        t = Timeline()
        cpu.charge(t, "select.refine", 10**9)
        (span,) = t.spans
        assert span.phase == "refine"
        assert span.seconds == pytest.approx(0.2)

    def test_random_pattern_slower(self):
        cpu = Cpu(XEON_E5_2650_X2)
        t = Timeline()
        seq = cpu.charge(t, "a", 10**8, pattern=AccessPattern.SEQUENTIAL)
        rnd = cpu.charge(t, "a", 10**8, pattern=AccessPattern.RANDOM)
        assert rnd > seq

    def test_fig11_throughput_shape(self):
        """Fig 11: near-linear scaling, saturation ~16 q/s at 32 threads."""
        cpu = Cpu(XEON_E5_2650_X2)
        # spatial query stream: ~0.5 s and ~1.1 GB of memory traffic each
        secs, q_bytes = 0.51, 1.1e9
        q1 = cpu.stream_throughput(secs, q_bytes, 1)
        q2 = cpu.stream_throughput(secs, q_bytes, 2)
        q16 = cpu.stream_throughput(secs, q_bytes, 16)
        q32 = cpu.stream_throughput(secs, q_bytes, 32)
        assert q1 == pytest.approx(1.96, rel=0.05)
        assert q2 == pytest.approx(2 * q1, rel=0.01)
        assert q32 == pytest.approx(16.2, rel=0.05)
        assert q32 <= q16 * 1.05  # saturated: no gain past the memory wall

    def test_thread_count_clamped(self):
        cpu = Cpu(XEON_E5_2650_X2)
        assert cpu.stream_throughput(0.5, 1e9, 64) == cpu.stream_throughput(
            0.5, 1e9, 32
        )

    def test_invalid_query_cost(self):
        with pytest.raises(ValueError):
            Cpu(XEON_E5_2650_X2).stream_throughput(0, 1e9, 1)

    def test_per_tuple_cost_added(self):
        cpu = Cpu(XEON_E5_2650_X2)
        t = Timeline()
        from repro.device.model import OpClass

        plain = cpu.charge(t, "a", 0, tuples=0)
        with_tuples = cpu.charge(t, "a", 0, tuples=10**6, op_class=OpClass.HASH)
        assert plain == 0.0
        assert with_tuples == pytest.approx(15e-3)


class TestCustomSpecValidation:
    def test_bus_kind_allowed(self):
        spec = DeviceSpec(
            name="nvlink", kind="bus", memory_capacity=None,
            seq_bandwidth=25e9, random_bandwidth=25e9,
        )
        assert PciBus(spec).streaming_seconds(25 * 10**9) == pytest.approx(1.0)
