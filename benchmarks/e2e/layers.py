"""Per-layer metrics: probes of single kernels, and collectors over a pass.

Layers are the ``src/repro`` modules.  Everything here is measured from
outside: by timing calls into public functions, by reading ``Result`` /
``server.stats`` fields at the benchmark's own span boundaries, and from
the program's ``Tracer`` spans grafted by :mod:`spans`.

A collector that cannot find its field or span yields ``None`` and a note
instead of failing the run: ROADMAP B/C/E will move those names, and only
end-to-end metrics and oracles may fail a run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from repro import IntType, Session
from repro.core.approximate import select_approx
from repro.core.relax import ValueRange
from repro.core.theta import Theta, ThetaOp, theta_join_approx
from repro.device.timeline import Timeline
from repro.sql import bind, parse
from repro.storage.bitpack import gather_codes, pack_codes, unpack_codes
from repro.storage.decompose import view_cache_bytes, view_eviction_stats

from workloads import BLOCK, SOLO_CLASSES

MIB = float(1 << 20)
GB = 1e9

#: every per-layer metric, with its unit and direction (BENCHMARK.json)
PER_LAYER = (
    ("sql.parse_ms_per_q", "ms", "lower"),
    ("sql.bind_ms_per_q", "ms", "lower"),
    ("opt.plan_ms_per_miss", "ms", "lower"),
    ("opt.plan_cache_hit_rate", "fraction", "higher"),
    ("engine.exec_ms_per_q", "ms", "lower"),
    *((f"engine.class_ms_p50.{c}", "ms", "lower") for c in SOLO_CLASSES),
    ("core.select_approx_mrows_s", "Mrows/s", "higher"),
    ("core.theta_sorted_ms", "ms", "lower"),
    ("core.refine_survival_ratio", "fraction", "higher"),
    ("storage.unpack_w12_gbps", "GB/s", "higher"),
    ("storage.pack_w12_gbps", "GB/s", "higher"),
    ("storage.gather_w12_gbps", "GB/s", "higher"),
    ("storage.view_evictions_per_q", "1/query", "lower"),
    ("storage.view_cache_mb", "MiB", "lower"),
    ("storage.device_bytes_per_row", "B/row", "lower"),
    ("storage.decompose_ms_per_mrow", "ms/Mrow", "lower"),
    ("device.modeled_gpu_ms_per_q", "ms", "lower"),
    ("device.modeled_bus_ms_per_q", "ms", "lower"),
    ("device.modeled_cpu_ms_per_q", "ms", "lower"),
    ("serve.submit_us_per_q", "us", "lower"),
    ("serve.drain_ms_per_wave", "ms", "lower"),
    ("serve.batch_form_us_per_batch", "us", "lower"),
    ("serve.fused_share", "fraction", "higher"),
    ("serve.mean_batch_size", "queries", "higher"),
    ("serve.cost_gated_solo_share", "fraction", "lower"),
    ("serve.backpressure_stalls", "count", "lower"),
    ("serve.overhead_ms_per_q", "ms", "lower"),
    ("shard.fragments_per_q", "count", "lower"),
    ("shard.pruned_share", "fraction", "higher"),
    ("shard.plan_ms_per_q", "ms", "lower"),
    ("shard.merge_ms_per_q", "ms", "lower"),
    ("shard.modeled_wall_ms_per_q", "ms", "lower"),
    ("shard.fragment_skew", "ratio", "lower"),
    ("ingest.append_us_per_row", "us", "lower"),
    ("ingest.compactions", "count", "lower"),
    ("ingest.compact_ms_p50", "ms", "lower"),
    ("ingest.rewritten_rows_per_appended_row", "ratio", "lower"),
    ("ingest.delta_union_ms_per_q", "ms", "lower"),
    ("ingest.delta_cache_hit_rate", "fraction", "higher"),
    ("ingest.deferred_writes", "count", "lower"),
    ("faults.retries_per_q", "1/query", "lower"),
    ("faults.degraded_share", "fraction", "lower"),
    ("obs.traced_qps_ratio", "ratio", "higher"),
    ("obs.spans_per_q", "1/query", "lower"),
    ("harness.unattributed_share", "fraction", "lower"),
    ("harness.sql_opt_self_share", "fraction", "lower"),
    ("harness.round_qps_rel_iqr", "fraction", "lower"),
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("host.speed", "ratio", "higher"),
    # the end-to-end timings as the wall clock read them, before the
    # run's host.speed is divided out
    ("raw.setup_s", "s", "lower"),
    ("raw.qps", "queries/s", "higher"),
    ("raw.lat_p50_ms", "ms", "lower"),
    # end-to-end numbers that do not fit the contract's end_to_end list
    # (one workload only, exactly 0 on a healthy run, or a spread between
    # runs too close to the largest bound allowed): see README
    ("lat_p95_ms", "ms", "lower"),
    ("lat_p99_ms", "ms", "lower"),
    ("write_lat_p50_ms", "ms", "lower"),
    ("failed_share", "fraction", "lower"),
    ("modeled_ar_speedup", "x", "higher"),
)


def rel_iqr(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Probes (workload independent; bytes = read + written, like a memcpy)
# ----------------------------------------------------------------------
#: seconds the two halves of the host probe take on the sandbox this was
#: sized on when it is quiet, so that ``host.speed`` reads 1.0 there
SPIN_REFERENCE_SECONDS = 4.4e-3
ARRAY_REFERENCE_SECONDS = 8.8e-3

_PROBE_VALUES = np.random.default_rng(0).integers(0, 1 << 20, size=200_000)
_PROBE_SORTED = np.sort(_PROBE_VALUES)


def probe_host_speed(quick: bool = False) -> float:
    """How fast this core runs right now; 1.0 = the reference sandbox.

    The sandbox's speed drifts by +-20 % over tens of seconds (README
    "Host noise"), more for interpreter-bound code than for array code.
    The probe is the geometric mean of both kinds, best of 5 each: a
    pure-Python loop, and a mask / ``searchsorted`` / ``sort`` mix over
    200 k integers.  Nothing of the program is in it, so a slower program
    cannot hide in a slower probe.
    """
    def spin():
        x = 0
        for i in range(100_000):
            x += i * i

    def arrays():
        a = _PROBE_VALUES
        a[(a > 1000) & (a < 500_000)].sum()
        np.searchsorted(_PROBE_SORTED, a[:50_000])
        np.sort(a[:50_000])

    reps = 1 if quick else 5
    return (
        SPIN_REFERENCE_SECONDS / _best_of(spin, reps)
        * ARRAY_REFERENCE_SECONDS / _best_of(arrays, reps)
    ) ** 0.5


def probe_memcpy(quick: bool = False) -> float:
    """``np.copyto`` bandwidth in GB/s: the host's roofline for a stream."""
    src = np.ones((4 if quick else 32) << 17, dtype=np.int64)
    dst = np.empty_like(src)
    return 2 * src.nbytes / _best_of(lambda: np.copyto(dst, src)) / GB


def probe_storage(seed: int, n: int) -> dict:
    """``storage.bitpack`` at 12-bit codes (``bwdecompose 24`` of 1 M ints)."""
    gen = np.random.default_rng([seed, 77])
    bits = 12
    codes = gen.integers(0, 1 << bits, size=n).astype(np.uint64)
    words = pack_codes(codes, bits)
    positions = np.sort(gen.integers(0, n, size=n // 5))
    moved = words.nbytes + codes.nbytes
    return {
        "storage.pack_w12_gbps":
            moved / _best_of(lambda: pack_codes(codes, bits)) / GB,
        "storage.unpack_w12_gbps":
            moved / _best_of(lambda: unpack_codes(words, bits, n)) / GB,
        # a gather reads its positions and writes one code per position
        "storage.gather_w12_gbps":
            2 * positions.nbytes
            / _best_of(lambda: gather_codes(words, bits, n, positions)) / GB,
    }


def probe_core(seed: int, quick: bool) -> dict:
    """``select_approx`` at 20 % and the sorted band join, on their own."""
    gen = np.random.default_rng([seed, 78])
    n, n_left, n_right = (50_000, 4_000, 1_000) if quick else (
        1_000_000, 200_000, 50_000
    )
    session = Session()
    session.create_table("p", {"v": IntType()}, {"v": gen.integers(0, n, size=n)})
    for table, rows in (("l", n_left), ("r", n_right)):
        session.create_table(
            table, {"v": IntType()}, {"v": gen.integers(0, 1 << 22, size=rows)}
        )
    for table in "plr":
        session.bwdecompose(table, "v", 24)
    gpu = session.machine.gpu
    column, left, right = (
        session.catalog.decomposition_of(t, "v") for t in "plr"
    )
    vrange = ValueRange.between(n // 2, n // 2 + n // 5)
    theta = Theta(ThetaOp.WITHIN, 64)

    def select():
        select_approx(gpu, Timeline(), column, "v", vrange)

    def join():
        theta_join_approx(
            gpu, Timeline(), left, right, theta, strategy="sorted", emit="runs"
        )

    select(), join()  # lazy views and sort permutations
    return {
        "core.select_approx_mrows_s": n / _best_of(select) / 1e6,
        "core.theta_sorted_ms": _best_of(join) * 1e3,
    }


# ----------------------------------------------------------------------
# Collectors
# ----------------------------------------------------------------------
class Snapshot:
    """Counters read at a pass boundary."""

    def __init__(self, ctx) -> None:
        stats = getattr(ctx.server, "stats", None)
        self.stats = dict(vars(stats)) if stats is not None else {}
        self.evictions, _ = view_eviction_stats()
        self.rewritten_rows = ctx.rewritten_rows
        self.appended_rows = ctx.appended_rows


def collect(wl, ctx, timed, traced, rec, tracer, before, after, probes, checks):
    """Every per-layer metric for one workload: ``(values, notes)``.

    ``timed``/``traced`` are the two passes, ``rec`` the recorder with the
    program's spans grafted, ``before``/``after`` the counter snapshots
    around the traced pass.  A value is ``None`` when the metric does not
    apply to the workload or could not be collected; ``notes`` says which.
    """
    values: dict[str, float | None] = {}
    notes: dict[str, str] = {}
    # span times are put at reference host speed, like the end-to-end ones
    speed = statistics.median(traced.speed)

    def _ms(seconds) -> float:
        return 1e3 * seconds * speed

    def _us(seconds) -> float:
        return 1e6 * seconds * speed
    reads = [d for d in traced.done if not isinstance(d.result, Exception)]
    n_q = max(1, len(traced.done))
    solo, served, sharded = wl.kind == "solo", wl.kind == "serve", wl.n_shards > 0
    unsharded_server = served and not sharded

    def put(name, applies, fn):
        if not applies:
            values[name] = None
            notes[name] = "does not apply to this workload"
            return
        try:
            values[name] = float(fn())
        except (AttributeError, KeyError, IndexError, TypeError,
                ZeroDivisionError, statistics.StatisticsError) as exc:
            values[name] = None
            notes[name] = f"not collected: {type(exc).__name__}: {exc}"

    def mean_span(*names):
        return statistics.fmean(rec.durations(*names))

    def delta(field):
        return after.stats[field] - before.stats[field]

    # sql / opt ---------------------------------------------------------
    put("sql.parse_ms_per_q", True, lambda: _ms(mean_span("sql.parse")))
    put("sql.bind_ms_per_q", True, lambda: _ms(mean_span("sql.bind")))
    plans = rec.spans_named("plan")
    misses = [i for i in plans if not rec.args[i].get("cached", False)]
    if unsharded_server:
        # the scheduler plans outside any span; time its planner directly
        put("opt.plan_ms_per_miss", True, lambda: _ms(_plan_probe(ctx, reads)))
        put("opt.plan_cache_hit_rate", True, lambda: (
            delta("plan_cache_hits")
            / (delta("plan_cache_hits") + delta("plan_cache_misses"))
        ))
    else:
        put("opt.plan_ms_per_miss", True, lambda: _ms(statistics.fmean(
            rec.end[i] - rec.start[i] for i in misses
        )))
        put("opt.plan_cache_hit_rate", True,
            lambda: 1.0 - len(misses) / len(plans))

    # engine ------------------------------------------------------------
    engine_spans = ("execute.ar", "execute.classic") if solo else ("query",)
    put("engine.exec_ms_per_q", True,
        lambda: _ms(sum(rec.durations(*engine_spans)) / n_q))
    by_class: dict[str, list[float]] = {}
    for d in timed.done:
        by_class.setdefault(d.op.cls, []).append((d.t1 - d.t0) * d.speed)
    for cls in SOLO_CLASSES:
        put(f"engine.class_ms_p50.{cls}", solo,
            lambda cls=cls: 1e3 * statistics.median(by_class[cls]))

    # core --------------------------------------------------------------
    for name in ("core.select_approx_mrows_s", "core.theta_sorted_ms"):
        put(name, True, lambda name=name: probes[name])
    put("core.refine_survival_ratio", True, lambda: (
        sum(checks["exact_rows"][d.op_id] for d in reads
            if d.result.approximate is not None)
        / sum(d.result.approximate.candidate_rows for d in reads
              if d.result.approximate is not None)
    ))

    # storage -----------------------------------------------------------
    for name in ("storage.unpack_w12_gbps", "storage.pack_w12_gbps",
                 "storage.gather_w12_gbps"):
        put(name, True, lambda name=name: probes[name])
    put("storage.view_evictions_per_q", True,
        lambda: (after.evictions - before.evictions) / n_q)
    put("storage.view_cache_mb", True, lambda: view_cache_bytes() / MIB)
    put("storage.device_bytes_per_row", True,
        lambda: ctx.session.device_footprint() / ctx.base_rows)
    put("storage.decompose_ms_per_mrow", True, lambda: (
        1e3 * ctx.decompose_seconds * checks["setup_speed"]
        / (ctx.decompose_rows / 1e6)
    ))

    # device (modeled; must not move under a perf change) ---------------
    kinds: dict[str, float] = {}
    for d in reads:
        for kind, seconds in d.result.timeline.seconds_by_kind().items():
            kinds[kind] = kinds.get(kind, 0.0) + seconds
    for kind in ("gpu", "bus", "cpu"):
        put(f"device.modeled_{kind}_ms_per_q", True,
            lambda kind=kind: 1e3 * kinds.get(kind, 0.0) / n_q)

    # serve -------------------------------------------------------------
    n_waves = max(1, len(rec.spans_named("wave")))
    put("serve.submit_us_per_q", served,
        lambda: _us(mean_span("serve.submit")))
    put("serve.drain_ms_per_wave", served, lambda: _ms(mean_span("exec")))
    put("serve.batch_form_us_per_batch", served,
        lambda: _us(mean_span("batch.form")))
    put("serve.fused_share", served,
        lambda: delta("fused_queries") / delta("completed"))
    put("serve.mean_batch_size", served,
        lambda: delta("completed") / delta("batches"))
    put("serve.cost_gated_solo_share", served, lambda: (
        delta("cost_gated_solo") / delta("cost_gated_batches")
        if delta("cost_gated_batches") else 0.0
    ))
    put("serve.backpressure_stalls", served,
        lambda: delta("backpressure_stalls"))
    put("serve.overhead_ms_per_q", served, lambda: _ms(
        sum(rec.durations("wave")) - sum(rec.durations("query"))
        - sum(rec.durations("sql.parse", "sql.bind"))
    ) / (n_waves * BLOCK))

    # shard -------------------------------------------------------------
    put("shard.fragments_per_q", sharded, lambda: statistics.fmean(
        len(d.result.fragment_seconds) for d in reads
    ))
    put("shard.pruned_share", sharded, lambda: statistics.fmean(
        len(d.result.pruned_shards) / wl.n_shards for d in reads
    ))
    put("shard.plan_ms_per_q", sharded, lambda: _ms(mean_span("plan")))
    put("shard.merge_ms_per_q", sharded,
        lambda: _ms(sum(rec.durations("shard.merge")) / n_q))
    put("shard.modeled_wall_ms_per_q", sharded, lambda: 1e3 * statistics.fmean(
        d.result.wall_clock_seconds for d in reads
    ))
    put("shard.fragment_skew", sharded, lambda: statistics.fmean(
        max(d.result.fragment_seconds) / statistics.fmean(d.result.fragment_seconds)
        for d in reads if d.result.fragment_seconds
    ))

    # ingest ------------------------------------------------------------
    writes = wl.writes
    put("ingest.append_us_per_row", writes, lambda: _us(sum(
        rec.durations("ingest.append")
    )) / (after.appended_rows - before.appended_rows))
    put("ingest.compactions", unsharded_server,
        lambda: delta("compactions"))
    put("ingest.compact_ms_p50", writes,
        lambda: _ms(statistics.median(rec.durations("ingest.compact"))))
    put("ingest.rewritten_rows_per_appended_row", writes, lambda: (
        (after.rewritten_rows - before.rewritten_rows)
        / (after.appended_rows - before.appended_rows)
    ))
    put("ingest.delta_union_ms_per_q", unsharded_server, lambda: _ms(sum(
        rec.durations("ingest.delta.part", "ingest.delta.merge")
    )) / n_q)
    put("ingest.delta_cache_hit_rate", writes, lambda: _rate(
        tracer.metrics.counter("delta_cache.hits").value,
        tracer.metrics.counter("delta_cache.misses").value,
    ))
    put("ingest.deferred_writes", unsharded_server,
        lambda: delta("deferred_writes"))

    # faults (no injection here: nonzero means the run is not the workload)
    put("faults.retries_per_q", True, lambda: sum(
        getattr(d.result, "retries", 0) for d in reads
    ) / n_q)
    put("faults.degraded_share", True,
        lambda: sum(bool(d.result.degraded) for d in reads) / n_q)

    # obs / harness -----------------------------------------------------
    put("obs.traced_qps_ratio", True, lambda: traced.qps / timed.qps)
    put("obs.spans_per_q", True,
        lambda: sum(s == "tracer" for s in rec.source) / n_q)
    layer_self = rec.layer_self_seconds(solo)
    root = rec.root_seconds()
    put("harness.unattributed_share", True,
        lambda: layer_self.get("harness", 0.0) / root)
    put("harness.sql_opt_self_share", True, lambda: (
        layer_self.get("sql", 0.0) + layer_self.get("opt", 0.0)
    ) / root)
    put("harness.round_qps_rel_iqr", True, lambda: rel_iqr(timed.round_qps))
    put("host.memcpy_gbps", True, lambda: statistics.median(timed.memcpy))
    put("host.speed", True, lambda: statistics.median(timed.speed))
    for name, value in checks["raw"].items():
        put(f"raw.{name}", True, lambda value=value: value)

    # end-to-end numbers kept off the contract's end_to_end list --------
    latencies = sorted(timed.latencies())
    put("lat_p95_ms", True, lambda: 1e3 * percentile(latencies, 95))
    put("lat_p99_ms", served, lambda: 1e3 * percentile(latencies, 99))
    put("write_lat_p50_ms", writes, lambda: 1e3 * statistics.median(
        (w.t1 - w.t0) * w.speed for w in timed.writes
    ))
    put("failed_share", True, lambda: checks["failed"] / checks["attempted"])
    put("modeled_ar_speedup", not writes, lambda: checks["modeled_ar_speedup"])
    return values, notes


def roofline(values: dict) -> dict:
    """Each probed kernel beside the same run's memcpy: a ratio with its base.

    ``select_approx`` reads one packed 12-bit code per row, so its rows/s
    are put in bytes first.  Kernels whose probe was not collected are
    left out.
    """
    units = {name: unit for name, unit, _ in PER_LAYER}
    base = values.get("host.memcpy_gbps")
    gbps = {
        name: values.get(name) for name in (
            "storage.unpack_w12_gbps", "storage.pack_w12_gbps",
            "storage.gather_w12_gbps",
        )
    }
    mrows = values.get("core.select_approx_mrows_s")
    gbps["core.select_approx_mrows_s"] = mrows and mrows * 1e6 * 1.5 / GB
    return {
        name: {
            "value": values[name], "unit": units[name],
            "share_of_memcpy": v / base, "memcpy_gbps": base,
        }
        for name, v in gbps.items() if v and base
    }


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses)


def _plan_probe(ctx, reads) -> float:
    """Mean seconds of one plan-cache miss through ``Session.plan_for``.

    The session's own cache is separate from the scheduler's and has never
    seen these queries, so each first call is a miss.
    """
    catalog = ctx.session.catalog
    times = []
    for sql in {d.op.sql for d in reads[:64]}:
        query, _ = bind(parse(sql), catalog)
        t0 = perf_counter()
        ctx.session.plan_for(query, optimizer=ctx.server.policy.optimizer)
        times.append(perf_counter() - t0)
    return statistics.fmean(times)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]
