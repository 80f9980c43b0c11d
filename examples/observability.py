#!/usr/bin/env python3
"""Trace a chaotic, ingesting 4-shard server — then open the flight recorder.

PR 10's observability layer answers "what did the system actually do?"
without perturbing what it did: with a :class:`~repro.obs.trace.Tracer`
attached, every query's plan choice, batch formation, per-shard fragment
attempt (including the retries a fault injector forces and the hedge a
straggler triggers), merge and delta-union gets a hierarchical span
carrying BOTH clocks — real wall time and the paper's modeled device
charges — while Results and modeled Timelines stay byte-identical to an
untraced run.

This walkthrough drives the works through one serving window:

1. a 4-shard session under a transient-fault storm, with fresh rows
   appended mid-flight (served reads union the delta store) and one
   deliberately slowed fragment so the executor hedges it;
2. exports the whole window as Chrome-trace-event JSON — open it in
   Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``: shards are
   tracks, retries/hedges are flow arrows, and each wall-clock track is
   paired with a ``modeled.*`` track laying out the ledger next to it;
3. prints the terminal renderer's span tree for the last query, the
   metrics registry snapshot, the estimated-vs-actual feedback table and
   the slow-query log (armed at 0 ms so every query qualifies).

Run: ``PYTHONPATH=src python examples/observability.py``
"""

from pathlib import Path

import numpy as np

from repro.faults import FaultProfile, RetryPolicy
from repro.obs.trace import Tracer
from repro.shard.session import ShardedSession
from repro.storage.column import IntType

rng = np.random.default_rng(7)
N = 120_000
DOMAIN = 1 << 20

session = ShardedSession(4, retry_policy=RetryPolicy())
session.create_table(
    "events", {"value": IntType()},
    {"value": rng.integers(0, DOMAIN, N).astype(np.int64)},
)
session.bwdecompose("events", "value", 24)

# The flight recorder: slow_ms=0.0 arms the slow-query log for everything,
# so the walkthrough ends with explain output attached to real traces.
tracer = Tracer(slow_ms=0.0)
session.attach_tracer(tracer)

# Chaos: ~1 in 3 fragment attempts fails transiently (retried with
# backoff), and the next 3 attempts are stretched enough to trip the
# straggler hedge.
injector = session.inject_faults(FaultProfile(transient_rate=0.35), seed=11)
injector.slow_next(3, 50.0)

# Ingest: rows land in the delta store mid-window, so served reads carry
# ingest.delta.* spans until the explicit compaction below folds them in.
session.append(
    "events", {"value": rng.integers(0, DOMAIN, 900).astype(np.int64)}
)

windows = [
    (0, 500_000), (100_000, 800_000), (200_000, 900_000),
    (50_000, 300_000), (0, DOMAIN),
]
with session.serve(max_batch=4, optimizer="cost") as server:
    handles = [
        session.table("events").where("value", between=(lo, hi))
        .count("n").submit(server)
        for lo, hi in windows
    ]
    server.drain()
    results = [h.result() for h in handles]

for (lo, hi), r in zip(windows, results):
    print(f"  count[{lo:>7},{hi:>7}] = {r.scalar('n'):>7}  "
          f"retries={r.retries}  degraded={r.degraded}")

folded = session.compact("events")
print(f"\ncompacted {folded} delta rows (epoch now "
      f"{session.catalog.epoch})")

out = Path(__file__).resolve().parent / "out" / "observability_trace.json"
out.parent.mkdir(exist_ok=True)  # ignored by git: every run rewrites it
n_events = tracer.export(out)
print(f"wrote {n_events} Chrome-trace events ({len(tracer.traces)} traces) "
      f"to {out} — open it at https://ui.perfetto.dev")

print("\n— last query's span tree —")
print(tracer.render())

print("\n— metrics registry —")
print(tracer.metrics.render())

print("\n— estimated vs actual —")
print(tracer.feedback.render())

print("\n— slow-query log —")
print(tracer.slow_log.render())
