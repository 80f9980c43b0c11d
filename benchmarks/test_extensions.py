"""Benchmarks for the §VII-B future-work extensions we implemented.

Cooperative scans and the A&R theta join — each with the shape claim that
motivated it.
"""

import numpy as np
from conftest import show

from repro.bench.harness import Experiment
from repro.core.relax import ValueRange
from repro.core.theta import Theta, ThetaOp, theta_join_approx, theta_join_refine
from repro.device.machine import Machine
from repro.engine.cooperative import (
    ScanRequest,
    cooperative_select_approx,
    individual_scan_seconds,
)
from repro.storage.decompose import decompose_values
from repro.workloads.microbench import unique_shuffled_ints


def test_extension_cooperative_scans(benchmark, bench_n):
    """§VII-B: queries sharing one approximation stream read."""
    n = min(bench_n, 1_000_000)
    machine = Machine.paper_testbed()
    column = decompose_values(unique_shuffled_ints(n, 1), residual_bits=6)
    machine.gpu.load_column("v", column, None)
    requests = [
        ScanRequest(f"q{i}", ValueRange(i * n // 16, (i + 3) * n // 16))
        for i in range(8)
    ]

    def run():
        tl = machine.new_timeline()
        cooperative_select_approx(machine.gpu, tl, column, requests)
        return tl.total_seconds()

    coop = benchmark(run)
    solo = individual_scan_seconds(machine.gpu, column, requests)
    exp = Experiment(
        exp_id="ext-coop", title="Cooperative vs individual scans (8 queries)",
        x_label="",
    )
    exp.new_series("cooperative").add(0, coop, {"gpu": coop})
    exp.new_series("individual").add(0, solo, {"gpu": solo})
    show(exp)
    # 8 fused predicates cost ~(1 + 7·0.35)x one scan vs 8x: a >2x win.
    assert coop < 0.6 * solo


def test_extension_theta_join(benchmark):
    """§IV-D: the approximation turns |L|x|R| work into candidate work."""
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(3)
    left_v = rng.integers(0, 100_000, 20_000)
    right_v = rng.integers(0, 100_000, 200)
    left = decompose_values(left_v, residual_bits=6)
    right = decompose_values(right_v, residual_bits=6)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(ThetaOp.WITHIN, delta=16)

    def run():
        tl = machine.new_timeline()
        pairs = theta_join_approx(machine.gpu, tl, left, right, theta)
        refined = theta_join_refine(machine.cpu, tl, left, right, theta, pairs)
        return tl, pairs, refined

    tl, pairs, refined = benchmark(run)
    # candidate work << the nested loop's pair count
    assert len(pairs) < 0.05 * len(left_v) * len(right_v)
    assert len(refined) <= len(pairs)
    # exactness spot check (materialize once, at the end — the contract)
    final = refined.canonicalized()
    sample = np.abs(
        left_v[final.left_positions] - right_v[final.right_positions]
    )
    assert int(sample.max(initial=0)) <= theta.delta
