"""Tests for cooperative approximation scans (§VII-B extension)."""

import numpy as np
import pytest

from repro.core.refine import select_refine
from repro.core.relax import ValueRange
from repro.device.machine import Machine
from repro.engine.cooperative import (
    ScanRequest,
    cooperative_pass_seconds,
    cooperative_scan_hits,
    cooperative_select_approx,
    individual_scan_seconds,
)
from repro.errors import ExecutionError
from repro.storage.decompose import decompose_values
from repro.workloads.microbench import unique_shuffled_ints


@pytest.fixture()
def setup():
    machine = Machine.paper_testbed()
    values = unique_shuffled_ints(200_000, 1)
    column = decompose_values(values, residual_bits=6)
    machine.gpu.load_column("v", column, None)
    return machine, values, column


REQUESTS = [
    ScanRequest("q1", ValueRange(0, 9_999)),
    ScanRequest("q2", ValueRange(50_000, 80_000)),
    ScanRequest("q3", ValueRange(150_000, None)),
    ScanRequest("q4", ValueRange(None, 123_456)),
]


class TestCooperativeScan:
    def test_results_match_individual_refinement(self, setup):
        machine, values, column = setup
        tl = machine.new_timeline()
        results = cooperative_select_approx(machine.gpu, tl, column, REQUESTS)
        assert set(results) == {"q1", "q2", "q3", "q4"}
        for request in REQUESTS:
            refined = select_refine(
                machine.cpu, tl, column, request.label, request.vrange,
                results[request.label],
            )
            truth = np.flatnonzero(request.vrange.evaluate(values))
            assert set(refined.ids.tolist()) == set(truth.tolist()), request.label

    def test_candidates_are_supersets(self, setup):
        machine, values, column = setup
        tl = machine.new_timeline()
        results = cooperative_select_approx(machine.gpu, tl, column, REQUESTS)
        for request in REQUESTS:
            truth = set(np.flatnonzero(request.vrange.evaluate(values)).tolist())
            assert truth <= set(results[request.label].ids.tolist())

    def test_one_stream_read_beats_individual_scans(self, setup):
        """The point: N queries share one pass over the stream."""
        machine, _, column = setup
        tl = machine.new_timeline()
        cooperative_select_approx(machine.gpu, tl, column, REQUESTS)
        coop_seconds = tl.total_seconds()
        solo_seconds = individual_scan_seconds(machine.gpu, column, REQUESTS)
        assert coop_seconds < solo_seconds
        # the saving comes from stream reads: with 4 requests, strictly
        # less than 4 passes but more than 1 (per-request compute remains)
        assert coop_seconds > solo_seconds / len(REQUESTS)

    def test_single_request_costs_like_plain_scan(self, setup):
        machine, _, column = setup
        tl = machine.new_timeline()
        cooperative_select_approx(machine.gpu, tl, column, REQUESTS[:1])
        solo = individual_scan_seconds(machine.gpu, column, REQUESTS[:1])
        assert tl.total_seconds() == pytest.approx(solo, rel=0.05)

    def test_empty_requests_rejected(self, setup):
        machine, _, column = setup
        with pytest.raises(ExecutionError):
            cooperative_select_approx(
                machine.gpu, machine.new_timeline(), column, []
            )

    def test_duplicate_labels_rejected(self, setup):
        machine, _, column = setup
        with pytest.raises(ExecutionError):
            cooperative_select_approx(
                machine.gpu, machine.new_timeline(), column,
                [ScanRequest("x", ValueRange(0, 1)),
                 ScanRequest("x", ValueRange(2, 3))],
            )

    def test_scramble_flag(self, setup):
        machine, _, column = setup
        tl = machine.new_timeline()
        ordered = cooperative_select_approx(
            machine.gpu, tl, column, REQUESTS[:1], scramble=False
        )["q1"]
        assert ordered.order_preserved
        assert np.all(np.diff(ordered.ids) > 0)


class TestCooperativeCarve:
    """The serve layer's zero-charge shared pass (PR 5)."""

    def test_carved_hits_equal_the_solo_scan(self, setup):
        machine, _, column = setup
        from repro.core.relax import relax_to_code_range

        carved = cooperative_scan_hits(column, REQUESTS)
        codes = column.approx_codes().astype(np.int64)
        for request in REQUESTS:
            lo, hi = relax_to_code_range(request.vrange, column.decomposition)
            solo = np.flatnonzero((codes >= lo) & (codes <= hi))
            got = carved[request.label]
            assert got.size == solo.size  # counted before anything is sorted
            assert got.ascending().dtype == solo.dtype
            assert np.array_equal(got.ascending(), solo), request.label

    def test_carve_handles_empty_and_full_ranges(self, setup):
        machine, _, column = setup
        requests = [
            ScanRequest("none", ValueRange(10**9, None)),   # past the domain
            ScanRequest("all", ValueRange(None, None)),     # everything
            ScanRequest("inverted", ValueRange.empty()),
        ]
        carved = cooperative_scan_hits(column, requests)
        assert carved["none"].size == 0
        assert carved["inverted"].size == 0
        assert carved["all"].size == column.length

    def test_carved_hits_keep_charges_byte_identical(self, setup):
        """precomputed_hits short-circuits compute only, never the charge."""
        machine, _, column = setup
        from repro.core.relax import relax_to_code_range

        request = REQUESTS[1]
        lo, hi = relax_to_code_range(request.vrange, column.decomposition)
        t_solo, t_carved = machine.new_timeline(), machine.new_timeline()
        scan = [(column, request.label, lo, hi)]
        solo, _ = machine.gpu.select_code_ranges(scan, t_solo)
        carved = cooperative_scan_hits(column, [request])[request.label]
        via_kernel, _ = machine.gpu.select_code_ranges(
            scan, t_carved, precomputed_hits=carved
        )
        assert np.array_equal(solo, via_kernel)
        assert t_solo.spans_equal(t_carved)

    def test_pass_seconds_match_the_fused_charge(self, setup):
        machine, _, column = setup
        tl = machine.new_timeline()
        results = cooperative_select_approx(machine.gpu, tl, column, REQUESTS)
        total_hits = sum(len(r.ids) for r in results.values())
        assert cooperative_pass_seconds(
            machine.gpu, column, len(REQUESTS), total_hits
        ) == pytest.approx(tl.total_seconds())
