"""Tier-1 smoke for the end-to-end benchmark (``benchmarks/e2e``).

Runs the whole report twice in its ``--quick`` shape — all five workloads,
each in its own subprocess, timed pass, verification and traced pass — so
a refactor that renames a field, a span or a kernel the benchmark measures
fails here instead of at the next performance claim.  Sizes are tiny; no
timing is asserted, only structure, correctness and determinism.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _report(out: Path) -> dict:
    names = [arg for name in WORKLOADS for arg in ("--workload", name)]
    proc = subprocess.run(
        RUN + names + ["--quick", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = [
        json.loads(line) for line in proc.stdout.splitlines()
        if line.startswith('{"correct"')
    ]
    return {
        "out": out, "lines": dict(zip(WORKLOADS, lines)),
        "workloads": json.loads((out / "results.json").read_text())["workloads"],
    }


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return [_report(tmp_path_factory.mktemp(f"e2e{i}")) for i in range(2)]


@pytest.fixture(scope="module")
def report(reports):
    return reports[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_listed_metric_is_emitted(report, name):
    result = report["workloads"][name]
    for metric in BENCH["end_to_end"]:
        got = result["end_to_end"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0 and got["samples"] >= 1
    for metric in BENCH["per_layer"]:
        got = result["per_layer"][metric["name"]]
        assert got["unit"] == metric["unit"]
        if got["value"] is None:  # never silently absent: a reason is given
            assert result["notes"][metric["name"]]
    # the line the driver reads has exactly the per-layer names, as numbers
    line = report["lines"][name]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert all(
        isinstance(m["value"], (int, float)) for m in line["metrics"].values()
    )


def test_driver_line_without_tracing_has_the_end_to_end_metrics(tmp_path):
    proc = subprocess.run(
        RUN + ["--workload", "serve.dash", "--seed", "3", "--seconds", "0.2",
               "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracles_pass_and_timed_pass_ran_untraced(report, name):
    result = report["workloads"][name]
    assert result["correct"] is True and result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 16
    assert result["config"]["tracing_off_in_timed_pass"] is True


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_is_a_forest_and_attributed(report, name):
    result = report["workloads"][name]
    assert result["trace"]["problems"] == []
    trace = json.loads((report["out"] / result["trace"]["file"]).read_text())
    spans = {s["id"]: s for s in trace["spans"]}
    assert any(s["source"] == "tracer" for s in spans.values())
    for span in spans.values():
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]  # parents resolve
        assert parent["start"] - 1e-9 <= span["start"]
        assert span["end"] <= parent["end"] + 1e-9  # no child outlives it
    assert result["per_layer"]["harness.unattributed_share"]["value"] <= 0.05


def test_same_seed_same_ops_same_modeled_numbers(reports):
    first, second = (r["workloads"] for r in reports)
    for name in WORKLOADS:
        assert first[name]["checks"] == second[name]["checks"], name
    # both solo workloads run one op list
    assert (
        first["solo.analytic"]["checks"]["ops_crc32"]
        == first["solo.evict"]["checks"]["ops_crc32"]
    )
    assert first["solo.analytic"]["checks"]["modeled_ar_speedup"] > 1.0


def test_workloads_stress_the_layers_they_claim(report):
    def value(name, metric):
        return report["workloads"][name]["per_layer"][metric]["value"]

    assert value("solo.analytic", "storage.view_evictions_per_q") == 0
    assert value("solo.evict", "storage.view_evictions_per_q") > 0
    assert value("serve.dash", "ingest.compactions") == 0
    assert value("serve.dash", "ingest.delta_union_ms_per_q") == 0
    assert value("serve.mixed", "ingest.compactions") > 0
    assert value("serve.mixed", "write_lat_p50_ms") > 0
    assert value("shard.s4", "shard.pruned_share") > 0.5
    assert value("solo.analytic", "serve.submit_us_per_q") is None


def test_compare_reports_every_pair_and_checks_exact_numbers(reports):
    a, b = (str(r["out"] / "results.json") for r in reports)
    proc = subprocess.run(
        RUN + ["--compare", a, b], capture_output=True, text=True, timeout=60,
    )
    # timings of a 0.3 s pass may differ; the exact rows may not
    assert proc.returncode in (0, 1), proc.stderr[-4000:]
    rows = proc.stdout.splitlines()
    for name in WORKLOADS:
        for metric in BENCH["end_to_end"]:
            assert any(
                r.startswith(name) and f" {metric['name']} " in r for r in rows
            )
        exact = [r for r in rows if r.startswith(name) and " exact " in r]
        assert len(exact) >= 3 and all(r.endswith(" ok") for r in exact)
