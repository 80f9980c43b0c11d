"""End-to-end benchmark: SQL text in, verified ``Result`` out.

Three ways to call it (README.md has the details):

* one workload, as ``BENCHMARK.json``'s driver does::

      python3 benchmarks/e2e/run.py --workload serve.dash --seed 7 \\
          --seconds 10 --trace 0

  prints every end-to-end metric (``--trace 1``: every per-layer metric)
  and, as the last line, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics``;

* the whole report — every workload in its own subprocess, timed pass,
  verification and traced pass, results and traces written to ``--out``::

      python3 benchmarks/e2e/run.py --seed 7 [--workload NAME]... \\
          [--quick] [--out DIR]

* ``--compare A.json B.json``: per workload and end-to-end metric, both
  values, the ratio with its base, and ``ok`` / ``worse`` / ``unresolved``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

sys.path.insert(0, str(ROOT / "src"))

def prepare_host() -> dict:
    """Quiet the host before NumPy loads (README "Host noise").

    * ``OPENBLAS_NUM_THREADS=1``: OpenBLAS's idle worker is a second
      thread, which turns every ``munmap`` into a cross-CPU TLB shootdown
      (band join 140-165 ms against 49-51 ms single-threaded).
    * one core: unpinned, the guest scheduler moves the process between
      its two cores (``serve.dash`` 620-835 q/s against 940-1075).
    * glibc ``mallopt`` so freed memory stays in the process: by default
      every freed array above 128 KiB goes back to the kernel and is
      faulted in again, and in this microVM a page fault's cost swings 3x
      from one minute to the next (TPC-H Q1 0.6 s or 1.7 s at random;
      ``qps`` spread 18-24 % between runs against 4-10 %).

    Host settings, identical on both sides of any comparison.  Returns
    what was done, for the result's ``config`` block.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} is missing: nothing to benchmark")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    done = {
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"], "core": core,
        "allocator_pinned": False,
    }
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return done
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    done["allocator_pinned"] = bool(
        mallopt(m_mmap_threshold, 1 << 25)  # glibc's maximum, 32 MiB
        and mallopt(m_trim_threshold, (1 << 31) - 1)
        and mallopt(m_top_pad, 1 << 28)
    )
    return done


#: what was done to the host; nothing when this file is merely imported
HOST = prepare_host() if __name__ == "__main__" else {}

import numpy as np  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.storage.decompose import set_view_budget  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import BLOCK, WORKLOADS, read_answer, run_twin  # noqa: E402

#: nominal rounds of the timed pass (``qps`` is the median over rounds)
ROUNDS = 10
#: the traced pass runs this share of ``--seconds`` in three rounds
TRACED_SHARE, TRACED_ROUNDS = 0.3, 3
#: fresh builds per run; ``setup_s`` is their median
BUILDS = 3
#: warn when the memcpy probe's spread over a run exceeds this
MEMCPY_SPREAD_WARN = 0.15


class Pass:
    """One closed-loop pass: whole blocks, grouped into timed rounds.

    Timings are reported at reference host speed: a round's throughput is
    divided, and its latencies multiplied, by the ``host.speed`` probed
    right before and after it (README "Host noise").  ``raw_*`` are the
    same numbers as the wall clock read them.
    """

    def __init__(self) -> None:
        self.done: list = []
        self.writes: list = []
        self.rounds: list[dict] = []
        self.memcpy: list[float] = []
        self.next_block = 0

    @property
    def speed(self) -> list[float]:
        """``host.speed`` per round (mean of the probes around it)."""
        return [r["speed"] for r in self.rounds]

    @property
    def round_qps(self) -> list[float]:
        return [r["qps"] for r in self.rounds]

    @property
    def qps(self) -> float:
        return statistics.median(self.round_qps)

    @property
    def raw_qps(self) -> float:
        return statistics.median(r["raw_qps"] for r in self.rounds)

    def latencies(self, raw: bool = False) -> list[float]:
        return [(d.t1 - d.t0) * (1.0 if raw else d.speed) for d in self.done]


def run_pass(wl, ctx, data, seed, seconds, rounds, first_block, rec, quick=False):
    """Run whole blocks for about ``seconds`` of measured time.

    A round lasts ``seconds / rounds`` and always ends on a block boundary
    (one shuffled cycle, or 16 waves = one compaction period), so every
    round does the same mix of work.  Only time inside ``run_block``
    counts: generating the next block and the memcpy probe do not.
    """
    out = Pass()
    block = first_block
    measured = 0.0
    speed_after = layers.probe_host_speed(quick)
    while measured < seconds:
        speed_before = speed_after
        out.memcpy.append(layers.probe_memcpy(quick))
        # results are kept for verification; without this the collector
        # rescans all of them on every full collection (22 ms, then 66,
        # then 105 as a shard.s4 pass goes on)
        gc.freeze()
        in_round, first, first_write = 0.0, len(out.done), len(out.writes)
        while in_round < seconds / rounds:
            ops = wl.block(data, seed, block)
            t0 = perf_counter()
            done, writes = wl.run_block(ctx, ops, f"b{block}", rec)
            in_round += perf_counter() - t0
            out.done += done
            out.writes += writes
            block += 1
        speed_after = layers.probe_host_speed(quick)
        speed = (speed_before + speed_after) / 2
        for item in out.done[first:] + out.writes[first_write:]:
            item.speed = speed
        latencies = sorted((d.t1 - d.t0) * speed for d in out.done[first:])
        out.rounds.append({
            "queries": len(latencies), "seconds": in_round, "speed": speed,
            "raw_qps": len(latencies) / in_round,
            "qps": len(latencies) / in_round / speed,
            "lat_p50_ms": 1e3 * statistics.median(latencies),
            "lat_p95_ms": 1e3 * layers.percentile(latencies, 95),
        })
        measured += in_round
    out.next_block = block
    return out


def verify(wl, ctx, data, done, writes) -> dict:
    """Check every recorded result against its NumPy oracle (untimed)."""
    od = wl.oracle_data(data, ctx)
    failures: list[str] = []
    exact_rows: dict[str, int] = {}
    for d in done:
        if isinstance(d.result, Exception):
            failures.append(f"{d.op_id} {d.op.cls}: raised {d.result!r}")
            continue
        try:
            exact_rows[d.op_id] = wl.verify(d, od)
        except (oracles.Mismatch, KeyError, AttributeError) as exc:
            # a missing column or bound is a wrong answer too
            failures.append(f"{d.op_id} {d.op.cls}: {exc!r}")
    failures += [f"write: {w.error!r}" for w in writes if w.error is not None]
    return {
        "attempted": len(done) + len(writes), "failed": len(failures),
        "failures": failures[:20], "exact_rows": exact_rows,
    }


def check_window(wl, ctx, done, checks: dict) -> None:
    """Self-consistency over the first block, which every run executes.

    The op list and the modeled ledgers of the first block depend on the
    seed alone, so their CRCs must repeat exactly; on read-only workloads
    the first 16 reads also run as their ``classic`` twins, whose columns
    must equal the ``ar`` answer and whose modeled seconds give
    ``modeled_ar_speedup`` (the paper's headline — never a perf result).
    """
    window = done[: BLOCK if wl.kind == "solo" else BLOCK * BLOCK]
    checks["ops_crc32"] = zlib.crc32(
        "\n".join(f"{d.op.mode} {d.op.sql}" for d in window).encode()
    )
    ledger = [
        d.result.timeline.span_tuples()
        for d in window if not isinstance(d.result, Exception)
    ]
    checks["ledger_crc32"] = zlib.crc32(repr(ledger).encode())
    checks["modeled_ar_speedup"] = None
    if wl.writes:
        return  # a twin run later would see rows the original did not
    ar = classic = 0.0
    for d in window[:BLOCK]:
        if d.op.mode != "ar" or isinstance(d.result, Exception):
            continue
        twin = run_twin(ctx.session, d.op.sql)
        try:
            oracles.check_twin(read_answer(d.result), read_answer(twin), d.op.keys)
        except oracles.Mismatch as exc:
            checks["failed"] += 1
            checks["failures"].append(f"{d.op_id} {d.op.cls} twin: {exc}")
        ar += d.result.timeline.total_seconds()
        classic += twin.timeline.total_seconds()
    checks["modeled_ar_speedup"] = classic / ar


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 quick: bool, out: Path | None) -> dict:
    """Set-up → warm-up → timed pass → verification [→ traced pass]."""
    wl = WORKLOADS[name]
    data = wl.generate(seed, quick)
    setups, raw_setups, ctx = [], [], None
    try:
        for _ in range(1 if quick else BUILDS):
            ctx = None
            gc.collect()
            speed = layers.probe_host_speed(quick)
            t0 = perf_counter()
            ctx = wl.build(data)
            wl.warm_up(ctx, data, seed)
            raw_setups.append(perf_counter() - t0)
            setup_speed = (speed + layers.probe_host_speed(quick)) / 2
            setups.append(raw_setups[-1] * setup_speed)
        tracing_off = ctx.session.tracer is None
        timed = run_pass(wl, ctx, data, seed, seconds, ROUNDS, 0, None, quick)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks = verify(wl, ctx, data, timed.done, timed.writes)
        check_window(wl, ctx, timed.done, checks)
        latencies = sorted(timed.latencies())
        raw_latencies = sorted(timed.latencies(raw=True))
        checks["setup_speed"] = setup_speed
        checks["raw"] = {
            "setup_s": statistics.median(raw_setups), "qps": timed.raw_qps,
            "lat_p50_ms": 1e3 * statistics.median(raw_latencies),
        }
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
            "config": {
                **wl.config(ctx), "tracing_off_in_timed_pass": tracing_off,
                "python": platform.python_version(), "numpy": np.__version__,
                "cpus": os.cpu_count(), "host": HOST,
            },
            "attempted": checks["attempted"], "failed": checks["failed"],
            "failures": checks["failures"],
            "end_to_end": {
                "setup_s": _metric(statistics.median(setups), "s", len(setups)),
                "qps": _metric(timed.qps, "queries/s", len(timed.rounds)),
                "lat_p50_ms": _metric(
                    1e3 * statistics.median(latencies), "ms", len(latencies)),
                "peak_rss_mb": _metric(peak_rss_mb, "MiB", 1),
            },
            "rounds": timed.rounds,
            "checks": {
                k: checks[k]
                for k in ("ops_crc32", "ledger_crc32", "modeled_ar_speedup")
            },
        }
        if traced:
            result.update(_traced_pass(
                wl, ctx, data, seed, seconds, quick, timed, checks, out,
            ))
        result["correct"] = result["failed"] == 0
        return result
    finally:
        set_view_budget(None)
        gc.unfreeze()


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _traced_pass(wl, ctx, data, seed, seconds, quick, timed, checks,
                 out) -> dict:
    tracer = Tracer(max_traces=1 << 30)
    rec = Recorder()
    ctx.session.attach_tracer(tracer)
    before = layers.Snapshot(ctx)
    traced = run_pass(
        wl, ctx, data, seed, seconds * TRACED_SHARE, TRACED_ROUNDS,
        timed.next_block, rec, quick,
    )
    after = layers.Snapshot(ctx)
    ctx.session.attach_tracer(None)
    rec.graft(list(tracer.traces), ctx.seq_ids)
    traced_checks = verify(wl, ctx, data, traced.done, traced.writes)
    probes = {
        **layers.probe_storage(seed, 50_000 if quick else 1_000_000),
        **layers.probe_core(seed, quick),
    }
    values, notes = layers.collect(
        wl, ctx, timed, traced, rec, tracer, before, after, probes,
        {**checks, "exact_rows": traced_checks["exact_rows"]},
    )
    spread = layers.rel_iqr(timed.memcpy)
    if spread > MEMCPY_SPREAD_WARN:
        notes["host.memcpy_gbps"] = (
            f"probe spread {spread:.0%} over the run: the host was noisy"
        )
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    solo = wl.kind == "solo"
    layer_self = rec.layer_self_seconds(solo)
    result = {
        "attempted": checks["attempted"] + traced_checks["attempted"],
        "failed": checks["failed"] + traced_checks["failed"],
        "failures": (checks["failures"] + traced_checks["failures"])[:20],
        "per_layer": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
        "notes": notes,
        "roofline": layers.roofline(values),
        "trace": {
            "queries": len(traced.done), "spans": len(rec),
            "root_seconds": rec.root_seconds(),
            "self_seconds_by_layer": layer_self,
            "problems": rec.problems()[:20],
        },
    }
    if out is not None:
        path = out / f"trace-{wl.name}.json"
        path.write_text(json.dumps({
            "workload": wl.name, "seed": seed,
            "spans": rec.to_json(solo),
            "counts": {
                "before": _jsonable(before.stats), "after": _jsonable(after.stats),
                "view_evictions": [before.evictions, after.evictions],
                "appended_rows": [before.appended_rows, after.appended_rows],
                "rewritten_rows": [before.rewritten_rows, after.rewritten_rows],
            },
        }))
        result["trace"]["file"] = path.name
    return result


def _jsonable(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if isinstance(v, (int, float, str))}


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_result(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} ==")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<44} {m['value']:>14.4f} {m['unit']:<10} n={m['samples']}")
    print(f"  {'failed / attempted':<44} "
          f"{result['failed']:>7d} / {result['attempted']}")
    for line in result["failures"]:
        print(f"    FAILED {line}")
    if "per_layer" not in result:
        return
    for name, m in result["per_layer"].items():
        value = "null" if m["value"] is None else f"{m['value']:.4f}"
        note = result["notes"].get(name, "")
        print(f"  {name:<44} {value:>14} {m['unit']:<10} {note}")
    for name, m in result["roofline"].items():
        print(f"  roofline {name:<35} {m['share_of_memcpy']:>14.4f} "
              f"of host.memcpy_gbps {m['memcpy_gbps']:.2f} GB/s")
    trace = result["trace"]
    print(f"  self time by layer over {trace['queries']} traced queries "
          f"({trace['spans']} spans):")
    for layer, seconds in sorted(
        trace["self_seconds_by_layer"].items(), key=lambda kv: -kv[1]
    ):
        print(f"    {layer:<10} {1e3 * seconds:>12.3f} ms "
              f"{seconds / trace['root_seconds']:>8.2%}")
    for problem in trace["problems"]:
        print(f"    TRACE PROBLEM {problem}")


def contract_line(result: dict, traced: bool) -> str:
    """The last line ``BENCHMARK.json``'s driver reads."""
    if traced:
        # the contract wants a number for every name: 0 where the metric
        # does not apply to this workload (results files keep the null)
        metrics = {
            name: {"value": m["value"] or 0.0, "unit": m["unit"]}
            for name, m in result["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["end_to_end"].items()
        }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Report mode: every workload in its own subprocess
# ----------------------------------------------------------------------
def report(names: list[str], seed: int, seconds: float, quick: bool,
           out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    status = 0
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
            "--out", str(out),
        ] + (["--quick"] if quick else [])
        code = subprocess.run(command).returncode
        path = out / f"result-{name}.json"
        if code not in (0, 1) or not path.exists():
            print(f"{name}: worker exited with {code}", file=sys.stderr)
            status = 2
            continue
        results[name] = json.loads(path.read_text())
        path.unlink()
        status = max(status, code)
    (out / "results.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "quick": quick, "workloads": results},
        indent=1,
    ))
    print(f"wrote {out / 'results.json'} "
          f"({sum(r['failed'] for r in results.values())} failed operations)")
    return status


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: Path, path_b: Path) -> int:
    bounds = {
        m["name"]: m for m in
        json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    worse = 0
    print(f"{'workload':<14} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for name in a:
        if name not in b:
            continue
        ra, rb = a[name], b[name]
        for metric, bound in bounds.items():
            va = ra["end_to_end"][metric]["value"]
            vb = rb["end_to_end"][metric]["value"]
            ratio = vb / va
            loss = 1 - ratio if bound["better"] == "higher" else ratio - 1
            spread = max(
                layers.rel_iqr([r[metric] for r in run["rounds"]])
                if metric in run["rounds"][0] else 0.0
                for run in (ra, rb)
            )
            if spread > bound["bound"]:
                verdict = f"unresolved (rounds spread {spread:.1%})"
            elif loss > bound["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:<14} {metric:<20} {va:>12.4f} {vb:>12.4f} "
                  f"{ratio:>7.3f}x {bound['bound']:>6.2f}  {verdict}")
        exact = [("failed", ra["failed"], rb["failed"])] + [
            (key, ra["checks"][key], rb["checks"][key]) for key in ra["checks"]
        ]
        for key, va, vb in exact:
            verdict = "ok" if va == vb else "worse (must be equal)"
            worse += va != vb
            print(f"{name:<14} {key:<20} {va!s:>12} {vb!s:>12} "
                  f"{'':>8} {'exact':>6}  {verdict}")
    print(f"{worse} worse")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process")
    parser.add_argument("--quick", action="store_true",
                        help="small tables and a short pass (the smoke shape)")
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and trace-*.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds else (0.3 if args.quick else 10.0)
    if args.trace is None:
        return report(
            args.workload or list(WORKLOADS), args.seed, seconds, args.quick,
            args.out or HERE / "out",
        )
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    result = run_workload(
        args.workload[0], args.seed, seconds, bool(args.trace), args.quick,
        args.out,
    )
    print_result(result)
    if args.out is not None:
        (args.out / f"result-{result['workload']}.json").write_text(
            json.dumps(result)
        )
    print(contract_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
