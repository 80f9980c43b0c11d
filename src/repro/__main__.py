"""Command-line entry point: run SQL against a demo workload.

Usage::

    python -m repro --demo spatial "select count(lon) from trips \\
        where lon between 2.68288 and 2.70228 and lat between 50.4222 and 50.4485"
    python -m repro --demo tpch --mode classic "select ..."
    python -m repro --demo tpch --explain "select sum(quantity) from lineitem \\
        where shipdate >= '1995-01-01'"

Demos: ``spatial`` (the Table I trips table) and ``tpch`` (lineitem+part).
Modes: ``ar`` (default), ``classic``, ``approximate``.

Subcommands::

    python -m repro serve-bench [--rows N] [--queries N] [--batches 1 4 16]
    python -m repro shard-bench [--rows N] [--queries N] [--shards 1 2 4]
    python -m repro chaos-bench [--rows N] [--queries N] [--rates 0 0.05 0.1]
    python -m repro ingest-bench [--rows N] [--queries N] [--watermarks 1000 10000]
    python -m repro trace [--rows N] [--queries N] [--out trace.json] [--all]
    python -m repro stats [--rows N] [--queries N] [--slow-ms MS]

drive the multi-query scheduler (queries/sec per batch width, see
:mod:`repro.serve.bench`), the sharded scale-out layer (wall seconds per
shard count, see :mod:`repro.shard.bench`), the fault-injection sweep
(availability / tail latency per fault rate, see
:mod:`repro.faults.bench`), the mixed read/write ingestion driver
(mixed vs read-only queries/sec per delta watermark, see
:mod:`repro.ingest.bench`), and the observability surface (terminal /
Chrome-trace rendering and the metrics+slow-query snapshot, see
:mod:`repro.obs.cli`).
"""

from __future__ import annotations

import argparse
import sys

from .engine.session import Session
from .errors import ReproError
from .util import format_seconds
from .workloads.spatial import SpatialConfig, build_spatial_session
from .workloads.tpch import TpchConfig, build_tpch_session


def build_demo_session(demo: str, scale: float) -> Session:
    if demo == "spatial":
        return build_spatial_session(
            SpatialConfig(n_points=max(1000, int(1_000_000 * scale)))
        )
    if demo == "tpch":
        return build_tpch_session(TpchConfig(scale_factor=0.01 * scale))
    raise ReproError(f"unknown demo {demo!r}; pick 'spatial' or 'tpch'")


def render_result(result) -> str:
    lines = []
    if result.columns:
        names = list(result.columns)
        lines.append(" | ".join(f"{n:>16}" for n in names))
        for i in range(min(result.row_count, 25)):
            lines.append(
                " | ".join(f"{result.columns[n][i]:>16}" for n in names)
            )
        if result.row_count > 25:
            lines.append(f"... ({result.row_count} rows total)")
    if result.approximate is not None and result.approximate.aggregates:
        lines.append("approximate bounds:")
        for alias, bound in result.approximate.aggregates.items():
            lines.append(f"  {alias}: {bound}")
    lines.append(
        f"modeled time: {format_seconds(result.timeline.total_seconds())} "
        f"{ {k: format_seconds(v) for k, v in result.timeline.seconds_by_kind().items()} }"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve-bench":
        from .serve.bench import main as serve_bench_main

        return serve_bench_main(argv[1:])
    if argv and argv[0] == "shard-bench":
        from .shard.bench import main as shard_bench_main

        return shard_bench_main(argv[1:])
    if argv and argv[0] == "chaos-bench":
        from .faults.bench import main as chaos_bench_main

        return chaos_bench_main(argv[1:])
    if argv and argv[0] == "ingest-bench":
        from .ingest.bench import main as ingest_bench_main

        return ingest_bench_main(argv[1:])
    if argv and argv[0] == "trace":
        from .obs.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "stats":
        from .obs.cli import stats_main

        return stats_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="A&R co-processing demo shell"
    )
    parser.add_argument("sql", nargs="+", help="SQL statement(s) to run")
    parser.add_argument("--demo", default="spatial", help="spatial | tpch")
    parser.add_argument("--mode", default="ar", help="ar | classic | approximate")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="demo size multiplier (default 1.0)")
    parser.add_argument("--explain", action="store_true",
                        help="print the physical A&R plan instead of running")
    parser.add_argument("--no-pushdown", action="store_true",
                        help="disable approximate-selection pushdown")
    args = parser.parse_args(argv)

    try:
        session = build_demo_session(args.demo, args.scale)
        for sql in args.sql:
            print(f"> {sql}")
            if args.explain:
                print(session.explain(sql, pushdown=not args.no_pushdown))
            else:
                result = session.execute(
                    sql, mode=args.mode, pushdown=not args.no_pushdown
                )
                print(render_result(result))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
