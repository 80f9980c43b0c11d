"""Wall-clock benchmark suite for the simulation's hot paths.

Measures *real* elapsed seconds — not modeled Timeline seconds — of the
paths the perf PRs target: bit-(un)packing, the relaxed selection scan, a
three-predicate conjunction, the theta/band join (the sorted interval join
at three sizes; a repeated-join entry for the memoized sort permutations;
``serve.theta.b16``, sixteen whole-column band joins sharing one right
side through ``Session.serve``; since PR 23 every entry that
calls ``theta_join_approx`` alone and discards the result —
``join.theta.band``, ``.large``, ``.xlarge``, ``.repeat`` — times
*counting* the candidate pairs, not forming their per-row runs, so the
entries that read the refined result carry a claim about the join: the
whole run-length A&R pipeline, ``join.theta.pipeline.large``, and a
builder-path ``count(*)`` over the large band join,
``join.theta.count.large``, that *asserts* the aggregate-only fast path
never materializes a pair), a
TPC-H Q6-shaped A&R run at ≥ 1M lineitem rows, TPC-H Q1 on the same
session (the one grouped query: 8 aggregates over 4 groups of ~1M
candidates, every column device-resident; ``tpch.q1.ar.evict`` is the same
query under the 8 MiB view budget; ``agg.grouped.q1`` is its eleven
grouped folds alone, over rows in any order and group-major),
``ingest.compact.wm4k`` (a
4 096-row delta folded into a 1M-row column plus the first fused scan
after it), the PR-15 code-width entries (``micro.unpack.w12.narrow`` — the
decode an evicted 12-bit view is rebuilt with; ``scan.selection.evict`` —
selections cycling over three columns under an 8 MiB view budget;
``join.theta.band.selected`` — the band join under a 10 % selection,
approximate + refine; ``join.theta.count.selected`` — its ``count(*)``
through the session), ``sql.front.hit`` / ``.miss`` (parse + bind of
256 ``serve.dash`` statements, of one shape or each of a new one), the
PR-18 ``serve.sumcount.b16`` /
``shard.sumcount.s4`` (one fused batch of 16 windowed ``sum, count``
through ``Session.serve`` / ``ShardedSession(4).serve``: served members
that read their candidates' rows), and the
``serve.throughput.*`` family: the same mixed selection-query set pushed
through the multi-query scheduler at batch widths 1/4/16, so
``b1 / b16`` is the measured batching speedup (PR 5's acceptance
criterion asks for ≥ 2×).

Three entry points:

* **Smoke target** (pytest-benchmark)::

      PYTHONPATH=src python -m pytest benchmarks/wallclock.py -q

  The file name deliberately does not match ``test_*.py`` so the full-size
  suite is *not* collected by the default tier-1 run — it is an explicit
  target.  The tier-1 run instead collects
  ``tests/bench/test_wallclock_smoke.py``, which executes this suite once
  in ``--quick`` shape so the harness itself cannot rot between perf PRs.

* **Quick smoke** (plain script)::

      PYTHONPATH=src python benchmarks/wallclock.py --quick

  Small inputs, one rep, prints timings, records nothing.

* **Trajectory recorder** (plain script)::

      PYTHONPATH=src python benchmarks/wallclock.py --label after --out BENCH_PR23.json

  Times every benchmark (best of ``--reps``) and merges the results into
  the ``--out`` file under the given label; ``--out`` is required, so a
  recording can never land in an older PR's trajectory by default.  When both ``before`` and ``after`` labels are present,
  per-benchmark speedups are (re)computed, giving future PRs a wall-clock
  perf trajectory.  Each PR's ``before`` point is seeded from the previous
  PR file's ``after`` (the prior code's measurements).

* **Trajectory gate** (plain script)::

      PYTHONPATH=src python benchmarks/wallclock.py --compare BENCH_PR4.json
      PYTHONPATH=src python benchmarks/wallclock.py --compare BENCH_PR2.json BENCH_PR3.json

  Prints a per-benchmark speedup table and exits nonzero when any shared
  benchmark regresses beyond ``--threshold`` (default 0.85×) — the
  machine-checkable form of "no recorded benchmark quietly got slower".
  With a single file, the gate compares that file's own ``before`` →
  ``after`` points, which the recording convention guarantees were
  measured on the same machine (each PR re-measures its ``before`` from
  the prior code); this is the form CI runs.  With two files it compares
  their ``after`` points — meaningful only when both were recorded on the
  same machine, since wall-clock numbers do not transfer across hosts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.aggregates import grouped_max, grouped_min, grouped_sum
from repro.core.approximate import select_approx, select_conjunction_approx
from repro.core.candidates import RunPairCandidates
from repro.core.grouping import GroupAssignment, group_approx_from_keys
from repro.core.refine import ship_pairs
from repro.core.relax import ValueRange
from repro.core.theta import Theta, ThetaOp, theta_join_approx, theta_join_refine
from repro.device.machine import Machine
from repro.device.timeline import Timeline
from repro.engine.session import Session
from repro.plan.rewriter import rewrite_to_ar_plan
from repro.serve.bench import build_serve_session, query_ranges, run_once
from repro.sql import bind, parse
from repro.storage.bitpack import gather_codes, pack_codes, unpack_codes
from repro.storage.column import IntType
from repro.storage.decompose import decompose_values, set_view_budget
from repro.workloads.microbench import unique_shuffled_ints
from repro.workloads.tpch import TpchConfig, build_tpch_session, q1_sql, q6_sql

#: Rows for the micro / scan benchmarks (acceptance floor: 1M).
N_ROWS = int(os.environ.get("REPRO_WALLCLOCK_N", 1_000_000))

#: TPC-H scale factor; 0.17 ≈ 1.02M lineitem rows (acceptance floor: 1M).
TPCH_SF = float(os.environ.get("REPRO_WALLCLOCK_SF", 0.17))

#: Theta-join side sizes: the PR-1 trajectory point; a larger size (a
#: nested loop would evaluate 10^10 interval comparisons there); and an
#: extra-large size (≥ 1M × 200k, ~37M candidate pairs) at which only
#: run-length candidates (PR 3) keep the join interactive.
THETA_SIZES = (20_000, 5_000)
THETA_LARGE_SIZES = (200_000, 50_000)
THETA_XLARGE_SIZES = (1_000_000, 200_000)

#: Joins re-hitting one dimension column (amortized sort permutations).
THETA_REPEAT_JOINS = 4

#: Queries per serve.throughput entry; batch widths 1/4/16 sweep the
#: scheduler from solo execution to full fusion over the same query set,
#: so time(b1)/time(b16) IS the batching speedup on this machine.
SERVE_QUERIES = 32
QUICK_SERVE_QUERIES = 8

#: Queries per shard.* entry (narrow windows; pruning routes each to ~1
#: shard, so the s4/s1 ratio is the real scale-out speedup).
SHARD_QUERIES = 16
QUICK_SHARD_QUERIES = 6

#: Plans per ``opt.plan.miss`` run: one miss is tens of microseconds.
PLAN_MISSES = 256

#: Statements per ``sql.front.*`` run, and the ``serve.dash`` statement
#: they parse and bind (``alias`` is ``n`` but on a ``.miss`` run).
FRONT_STATEMENTS = 256
FRONT_SQL = "select count(*) as {} from events where value between {} and {}"

#: --quick shape: small everything, for smoke runs and the tier-1 test.
QUICK_N_ROWS = 20_000
QUICK_TPCH_SF = 0.002
QUICK_THETA_SIZES = (2_000, 600)
QUICK_THETA_LARGE_SIZES = (5_000, 1_200)
QUICK_THETA_XLARGE_SIZES = (8_000, 2_000)

#: Queries per ingest.mixed.* entry: a 95/5 read/write mix (one write per
#: 20 submits, see repro.ingest.bench.WRITE_EVERY) served at batch 16 with
#: execution interleaved into submission, so watermark compactions land
#: mid-run where a real server would pay them.
INGEST_QUERIES = 100
QUICK_INGEST_QUERIES = 20
INGEST_WRITE_ROWS = 256

#: Rows per ingest.compact.wm4k delta (the e2e ``serve.mixed`` watermark).
COMPACT_DELTA_ROWS = 4_096

#: View budget of ``scan.selection.evict`` (the e2e ``solo.evict`` budget).
EVICT_BUDGET = 8 << 20

#: Share of the left side ``join.theta.band.selected`` joins.
THETA_SELECTED_SHARE = 0.1

#: ``--compare`` flags a shared benchmark whose after/before speedup drops
#: below this factor.
REGRESSION_THRESHOLD = 0.85


# ----------------------------------------------------------------------
# Fixtures (built once per shape, outside the timed region)
# ----------------------------------------------------------------------
class _Fixtures:
    """Lazily-built shared inputs; construction is never timed."""

    _instances: dict[bool, "_Fixtures"] = {}

    def __init__(self, quick: bool) -> None:
        self.n_rows = QUICK_N_ROWS if quick else N_ROWS
        self.tpch_sf = QUICK_TPCH_SF if quick else TPCH_SF
        theta_sizes = QUICK_THETA_SIZES if quick else THETA_SIZES
        theta_large = QUICK_THETA_LARGE_SIZES if quick else THETA_LARGE_SIZES
        theta_xlarge = QUICK_THETA_XLARGE_SIZES if quick else THETA_XLARGE_SIZES

        rng = np.random.default_rng(42)
        n = self.n_rows
        self.codes12 = rng.integers(0, 1 << 12, size=n, dtype=np.uint64)
        self.codes8 = rng.integers(0, 1 << 8, size=n, dtype=np.uint64)
        self.packed8 = pack_codes(self.codes8, 8)
        self.packed12 = pack_codes(self.codes12, 12)
        self.positions = rng.integers(0, n, size=n // 8, dtype=np.int64)
        # A candidate set of most of a column, in no order (PR 22): what an
        # aggregation over an unselective window gathers at, and the 3 x 2
        # key box TPC-H Q1 groups it by.  Their own generator, so every
        # fixture above keeps its values.
        dense = np.random.default_rng(43)
        self.dense_positions = dense.permutation(n)[: int(n * 0.97)]
        self.q1_keys = [
            ("returnflag", dense.integers(65, 68, size=n), True),
            ("linestatus", dense.integers(70, 72, size=n), True),
        ]
        # The same box as a 6-group assignment twice over (PR 24): rows as
        # they came, and group-major with the boundaries a producer knows.
        gids = np.sort(dense.integers(0, 6, size=n))
        starts = np.searchsorted(gids, np.arange(7))
        self.q1_values = dense.integers(-(1 << 40), 1 << 40, size=n)
        self.q1_groups = GroupAssignment(dense.permutation(gids), 6, True)
        try:
            self.q1_groups_ordered = GroupAssignment(gids, 6, True, starts)
        except TypeError:  # a parent older than PR 24: its before point scatters
            self.q1_groups_ordered = GroupAssignment(gids, 6, True)

        self.machine = Machine.paper_testbed()
        self.columns = []
        for i in range(3):
            col = decompose_values(unique_shuffled_ints(n, seed=i), device_bits=24)
            self.machine.gpu.load_column(f"c{i}", col, None)
            self.columns.append(col)

        self.theta_left = decompose_values(
            rng.integers(0, 1 << 20, size=theta_sizes[0]), device_bits=24
        )
        self.theta_right = decompose_values(
            rng.integers(0, 1 << 20, size=theta_sizes[1]), device_bits=24
        )
        self.theta_left_lg = decompose_values(
            rng.integers(0, 1 << 22, size=theta_large[0]), device_bits=24
        )
        self.theta_right_lg = decompose_values(
            rng.integers(0, 1 << 22, size=theta_large[1]), device_bits=24
        )
        # A selection's output under the join: scrambled ids of a subset.
        self.theta_selected_ids = np.random.default_rng(15).permutation(
            theta_large[0]
        )[: int(theta_large[0] * THETA_SELECTED_SHARE)]
        self.theta_left_xl = decompose_values(
            rng.integers(0, 1 << 22, size=theta_xlarge[0]), device_bits=24
        )
        self.theta_right_xl = decompose_values(
            rng.integers(0, 1 << 22, size=theta_xlarge[1]), device_bits=24
        )
        # Distinct fact-side columns repeatedly joined against ONE dimension
        # side: the memoized sort-permutation amortization case.
        self.theta_repeat_lefts = [
            decompose_values(
                rng.integers(0, 1 << 20, size=theta_sizes[0]), device_bits=24
            )
            for _ in range(THETA_REPEAT_JOINS)
        ]
        for label, col in (
            ("thetaL", self.theta_left), ("thetaR", self.theta_right),
            ("thetaLlg", self.theta_left_lg), ("thetaRlg", self.theta_right_lg),
            ("thetaLxl", self.theta_left_xl), ("thetaRxl", self.theta_right_xl),
            *(
                (f"thetaLrep{i}", col)
                for i, col in enumerate(self.theta_repeat_lefts)
            ),
        ):
            self.machine.gpu.load_column(label, col, None)

        # A full engine session at the large theta size for the builder
        # path: count over a band join (the aggregate-only fast path).
        self.band = Session()
        self.band.create_table(
            "bandL", {"price": IntType()},
            {"price": rng.integers(0, 1 << 22, size=theta_large[0])},
        )
        self.band.create_table(
            "bandR", {"price": IntType()},
            {"price": rng.integers(0, 1 << 22, size=theta_large[1])},
        )
        self.band.bwdecompose("bandL", "price", 24)
        self.band.bwdecompose("bandR", "price", 24)

        self.tpch = build_tpch_session(TpchConfig(scale_factor=self.tpch_sf, seed=7))
        self.q6 = q6_sql()
        self.q1 = q1_sql()

        self._quick = quick
        self._serve: tuple | None = None
        self._shard: dict[int, tuple] = {}
        self._opt: Session | None = None
        self._plan_misses: list | None = None
        self._front = None
        self.front_seq = itertools.count()
        self._ingest: tuple | None = None
        self._compact: tuple | None = None

    def opt_workload(self) -> Session:
        """Session for the opt.pick.* entries (PR 8), built lazily: a
        two-column fact table, both decomposed — the scan-order decision
        needs ≥ 2 drivable predicates."""
        if self._opt is None:
            rng = np.random.default_rng(29)
            n = max(self.n_rows // 5, 4_000)
            session = Session()
            session.create_table(
                "optL", {"v": IntType(), "w": IntType()},
                {
                    "v": rng.integers(0, 1 << 20, size=n),
                    "w": rng.integers(0, 1 << 20, size=n),
                },
            )
            session.bwdecompose("optL", "v", 24)
            session.bwdecompose("optL", "w", 24)
            self._opt = session
        return self._opt

    def plan_miss_queries(self) -> list:
        """Distinct two-predicate windows over ``optL`` for
        ``opt.plan.miss``, bound once outside the timed region."""
        if self._plan_misses is None:
            session = self.opt_workload()
            self._plan_misses = [
                session.table("optL")
                .where("v", between=(lo, lo + 500_000))
                .where("w", between=(0, 200_000 + lo // 4))
                .count("n").build()
                for lo in range(0, PLAN_MISSES * 1_000, 1_000)
            ]
        return self._plan_misses

    def front_catalog(self):
        """A catalog holding ``serve.dash``'s ``events``: what ``bind``
        reads (rows do not matter to it)."""
        if self._front is None:
            session = Session()
            session.create_table(
                "events", {"value": IntType()}, {"value": np.arange(1_000)}
            )
            self._front = session.catalog
        return self._front

    def serve_workload(self) -> tuple:
        """The serving session + query set, built lazily on first use.

        Lazy on purpose: the serve entries run *last* in the suite, and
        deferring their allocations keeps every earlier benchmark's heap
        shape identical to the pre-PR-5 suite — measured before/after
        points stay comparable (extra resident memory measurably slows
        unrelated allocation-heavy benchmarks in the same process).
        Warmed at the widest batch so the one-time shared structures
        (sorted-code view, sort permutation) are steady state, like a
        long-running server's.
        """
        if self._serve is None:
            n_serve = QUICK_SERVE_QUERIES if self._quick else SERVE_QUERIES
            session = build_serve_session(self.n_rows)
            ranges = query_ranges(self.n_rows, n_serve)
            run_once(session, ranges, max_batch=16)
            self._serve = (session, ranges)
        return self._serve

    def ingest_workload(self) -> tuple:
        """The streaming-ingestion session + cycled read panel (PR 9).

        Its own session, not :meth:`serve_workload`'s: the mixed runs
        append and compact, which would perturb the serve entries' state.
        Warmed through one delta round trip (append → served read →
        compact) so the delta-union machinery's one-time imports and the
        decoded-view caches are steady state before the first timed run.
        """
        if self._ingest is None:
            from repro.ingest.bench import (
                WRITE_EVERY, cycled_ranges, run_mixed,
            )

            n_queries = (
                QUICK_INGEST_QUERIES if self._quick else INGEST_QUERIES
            )
            session = build_serve_session(self.n_rows)
            ranges = cycled_ranges(self.n_rows, n_queries)
            session.append("events", {"value": np.array([0])})
            run_mixed(
                session, ranges[:WRITE_EVERY - 1], [],
                max_batch=16, delta_watermark=1 << 30,
            )
            session.compact("events")
            run_once(session, ranges, max_batch=16)
            self._ingest = (session, ranges)
        return self._ingest

    def compact_workload(self) -> tuple:
        """Session, one fused batch of windows and a delta generator for
        ``ingest.compact.wm4k``; its own session because every run grows
        the table.  Warmed so the sort permutation and sorted codes are
        resident, as on a server that has been answering fused batches."""
        if self._compact is None:
            session = build_serve_session(self.n_rows)
            ranges = query_ranges(self.n_rows, 16)
            run_once(session, ranges, max_batch=16)
            self._compact = (session, ranges, np.random.default_rng(31))
        return self._compact

    def shard_workload(self, n_shards: int) -> tuple:
        """A sharded session at ``n_shards`` + the narrow query set.

        Lazy per shard count, for the same heap-shape reason as
        :meth:`serve_workload` (the shard entries also run last).  Warmed
        once so memoized views and sort permutations are steady state.
        """
        if n_shards not in self._shard:
            from repro.shard.bench import (
                build_shard_session,
                run_scan_once,
                run_theta_once,
                scan_ranges,
            )

            n_queries = (
                QUICK_SHARD_QUERIES if self._quick else SHARD_QUERIES
            )
            session = build_shard_session(self.n_rows, n_shards)
            ranges = scan_ranges(self.n_rows, n_queries)
            run_scan_once(session, ranges)
            run_theta_once(session, ranges)
            self._shard[n_shards] = (session, ranges)
        return self._shard[n_shards]

    @classmethod
    def get(cls, quick: bool = False) -> "_Fixtures":
        if quick not in cls._instances:
            cls._instances[quick] = cls(quick)
        return cls._instances[quick]


# ----------------------------------------------------------------------
# The suite: name -> zero-argument callable
# ----------------------------------------------------------------------
def _run_selection(fx: _Fixtures) -> None:
    n = fx.n_rows
    select_approx(
        fx.machine.gpu, Timeline(), fx.columns[0], "c0",
        ValueRange.between(n // 10, n // 10 + n // 5),
    )


def _run_selection_evict(fx: _Fixtures) -> None:
    """``scan.selection`` cycling over the three columns under an 8 MiB
    view budget: a decoded view that does not fit is evicted by the next
    column's and rebuilt from the packed stream on its next scan."""
    n = fx.n_rows
    set_view_budget(EVICT_BUDGET)
    try:
        for i, column in enumerate(fx.columns):
            select_approx(
                fx.machine.gpu, Timeline(), column, f"c{i}",
                ValueRange.between(n // 10, n // 10 + n // 5),
            )
    finally:
        set_view_budget(None)


def _run_conjunction3(fx: _Fixtures, *, in_order: bool = True) -> None:
    """A scan and two probes; ``in_order=False`` is an aggregate-only
    plan's shape, whose survivors are a set and are not scattered."""
    n = fx.n_rows
    select_conjunction_approx(
        fx.machine.gpu, Timeline(),
        [
            (fx.columns[0], "c0", ValueRange.between(0, n // 2)),
            (fx.columns[1], "c1", ValueRange.between(n // 4, 3 * n // 4)),
            (fx.columns[2], "c2", ValueRange.between(n // 3, 2 * n // 3)),
        ],
        in_order=in_order,
    )


def _theta_cols(fx: _Fixtures, size: str):
    return {
        "base": (fx.theta_left, fx.theta_right),
        "large": (fx.theta_left_lg, fx.theta_right_lg),
        "xlarge": (fx.theta_left_xl, fx.theta_right_xl),
    }[size]


def _run_theta_band(fx: _Fixtures, size: str = "base") -> None:
    """The approximate phase alone, its result discarded: that is
    *counting* the candidate pairs (one run per distinct code, weighted by
    the rows carrying it) — no per-row run is formed."""
    left, right = _theta_cols(fx, size)
    theta_join_approx(
        fx.machine.gpu, Timeline(), left, right, Theta(ThetaOp.WITHIN, 64)
    )


def _run_theta_band_selected(fx: _Fixtures) -> None:
    """The large band join under a selection (``left_ids``): approximate +
    refine over a scrambled tenth of the left side, both results dropped
    unread: that is counting the candidate and the exact pairs."""
    machine = fx.machine
    tl = Timeline()
    theta = Theta(ThetaOp.WITHIN, 64)
    pairs = theta_join_approx(
        machine.gpu, tl, fx.theta_left_lg, fx.theta_right_lg, theta,
        left_ids=fx.theta_selected_ids,
    )
    theta_join_refine(
        machine.cpu, tl, fx.theta_left_lg, fx.theta_right_lg, theta, pairs
    )


def _run_theta_repeat(fx: _Fixtures) -> None:
    """Several fact columns joined against one dimension side back to back.

    The dimension side's sort permutation is memoized on the column
    (PR 3), so every join after the first skips the argsort — the
    repeated-join amortization the ROADMAP follow-on asked for.  Each
    join's result is dropped unread: counted, never formed.
    """
    theta = Theta(ThetaOp.WITHIN, 64)
    for left in fx.theta_repeat_lefts:
        theta_join_approx(fx.machine.gpu, Timeline(), left, fx.theta_right, theta)


def _run_theta_pipeline_large(fx: _Fixtures) -> None:
    """Whole A&R join pipeline at the large size, run-length end to end:
    approx (counted) → ship (by count) → exact spans from the two sides'
    exact order → the one materialize.  Reads the refined result, so it
    times the join and not just its count."""
    machine = fx.machine
    tl = Timeline()
    theta = Theta(ThetaOp.WITHIN, 64)
    pairs = theta_join_approx(
        machine.gpu, tl, fx.theta_left_lg, fx.theta_right_lg, theta
    )
    ship_pairs(machine.bus, tl, pairs)
    refined = theta_join_refine(
        machine.cpu, tl, fx.theta_left_lg, fx.theta_right_lg, theta, pairs
    )
    refined.canonicalized()


def _run_theta_count_large(fx: _Fixtures) -> None:
    """``count(*)`` over the large band join via the builder, A&R mode.

    The aggregate-only fast path (PR 4): the refined run-length pair set
    feeds the count directly, so the benchmark *asserts* that no per-pair
    array is ever allocated — materialization during the run is a failure,
    not just a slowdown.  Since PR 23 no per-*row* run array of the
    candidates is formed either, and the count is the refined pair total.
    """

    def _forbidden(self):
        raise AssertionError("count over a band join materialized its pairs")

    original = RunPairCandidates.materialized
    RunPairCandidates.materialized = _forbidden
    try:
        result = (
            fx.band.table("bandL")
            .band_join("bandR", on="price", delta=64)
            .count("n")
            .run(mode="ar")
        )
    finally:
        RunPairCandidates.materialized = original
    assert result.row_count == 1


def _run_theta_count_selected(fx: _Fixtures) -> None:
    """``count(*)`` over the large band join under a 10 % ``WHERE``, via
    the session (A&R mode): the relaxed scan, the candidate count, the
    exact re-check of the predicate on the surviving left rows and the
    exact pair count — none of them forms a run."""
    hi = int(THETA_SELECTED_SHARE * (1 << 22))
    result = (
        fx.band.table("bandL")
        .where("price", between=(0, hi))
        .band_join("bandR", on="price", delta=64)
        .count("n")
        .run(mode="ar")
    )
    assert result.row_count == 1


def _run_served_theta(fx: _Fixtures) -> None:
    """Sixteen whole-column band joins sharing the large right side through
    one ``Session.serve(max_batch=16)`` batch, each a ``count(*)``: the
    members run one by one over the right side's warm views."""
    session = fx.band
    server = session.serve(max_batch=16)
    handles = [
        session.table("bandL").band_join("bandR", on="price", delta=16 * k)
        .count("n").submit(server)
        for k in range(1, 17)
    ]
    server.drain()
    for handle in handles:  # consume (and surface any failure)
        handle.result()


def _run_tpch_q6(fx: _Fixtures) -> None:
    fx.tpch.execute(fx.q6, mode="ar")


def _run_tpch_q1(fx: _Fixtures) -> None:
    fx.tpch.execute(fx.q1, mode="ar")


def _run_tpch_q1_evict(fx: _Fixtures) -> None:
    """``tpch.q1.ar`` under the ``solo.evict`` view budget: Q1's columns do
    not all fit, so its gathers read the packed streams (the cold branch)."""
    set_view_budget(EVICT_BUDGET)
    try:
        _run_tpch_q1(fx)
    finally:
        set_view_budget(None)


def _run_grouped_q1(fx: _Fixtures) -> None:
    """Q1's eleven grouped folds (five sums; three ``avg`` bounds, a min and
    a max each) over rows as they came and over group-major rows, so the
    scatter and the slice reduction both stay timed."""
    for groups in (fx.q1_groups, fx.q1_groups_ordered):
        for _ in range(5):
            grouped_sum(fx.q1_values, groups)
        for _ in range(3):
            grouped_min(fx.q1_values, groups)
            grouped_max(fx.q1_values, groups)


def _run_opt_scan(fx: _Fixtures, optimizer: str) -> None:
    """Two-predicate selection through the (optionally cost-based) planner."""
    session = fx.opt_workload()
    (
        session.table("optL")
        .where("v", between=(100_000, 600_000))
        .where("w", between=(0, 200_000))
        .count("n")
        .run(mode="ar", optimizer=optimizer)
    )


def _run_plan_miss(fx: _Fixtures) -> None:
    """``rewrite_to_ar_plan(optimizer="cost")`` of fresh two-predicate
    windows with the audit never read: a served plan-cache miss."""
    catalog = fx.opt_workload().catalog
    for query in fx.plan_miss_queries():
        rewrite_to_ar_plan(query, catalog, optimizer="cost")


def _run_sql_front(fx: _Fixtures, fresh_shape: bool) -> None:
    """``bind(parse(sql))`` of ``serve.dash`` statements, each with a fresh
    window: all of one shape, or (``fresh_shape``) each of a never-seen
    one, its alias new — the ad-hoc traffic no e2e workload sends."""
    catalog = fx.front_catalog()
    for _ in range(FRONT_STATEMENTS):
        i = next(fx.front_seq)
        lo = i * 7919 % 990_000
        alias = f"n{i}" if fresh_shape else "n"
        bind(parse(FRONT_SQL.format(alias, lo, lo + 5_000)), catalog)


def _run_opt_batch(fx: _Fixtures, optimizer: str) -> None:
    """The serve workload with the cost gate deciding batch membership."""
    run_once(*fx.serve_workload(), max_batch=16, optimizer=optimizer)


def _run_ingest_mixed(
    fx: _Fixtures, watermark: int, strawman: bool
) -> None:
    """One 95/5 mixed round at batch 16, compactions landing mid-run.

    ``strawman`` is the ``before`` variant: a watermark of 1 row compacts
    after every batch that saw a write — the write-through design a delta
    store exists to avoid (every append pays a full re-decompose).  The
    ``after`` variant holds rows in the delta until ``watermark``.  Each
    round ends with an explicit compact so the next starts settled; that
    restore (and the view re-warm it forces) is part of the measured
    steady-state cost of both variants alike.
    """
    from repro.ingest.bench import WRITE_EVERY, run_mixed, write_batches

    session, ranges = fx.ingest_workload()
    batches = write_batches(
        fx.n_rows, len(ranges) // WRITE_EVERY, batch_rows=INGEST_WRITE_ROWS
    )
    run_mixed(
        session, ranges, batches, max_batch=16, max_in_flight=16,
        delta_watermark=1 if strawman else watermark,
    )
    session.compact("events")


def _run_compact_wm4k(fx: _Fixtures) -> None:
    """Fold a 4 096-row delta into the column, then serve one fused batch.

    Compaction plus the first fused scan after it, because that scan pays
    for whatever derived data compaction dropped: timing ``compact`` alone
    would call a rebuild cheap that leaves a full ``argsort`` behind.
    """
    session, ranges, rng = fx.compact_workload()
    session.append(
        "events", {"value": rng.integers(0, fx.n_rows, size=COMPACT_DELTA_ROWS)}
    )
    session.compact("events")
    run_once(session, ranges, max_batch=16)


def _run_obs_overhead(fx: _Fixtures, traced: bool) -> None:
    """The b16 serve workload with tracing off vs a live Tracer attached.

    Both variants are recorded as their own entries (identical under either
    ``opt_baseline`` flag), so the pairwise-interleaved points land seconds
    apart and ``after[obs.overhead.on] / after[obs.overhead.off]`` is the
    measured cost of full span capture on this machine.  PR 10's acceptance
    bar: ``on`` must stay within 0.95x of ``off``.
    """
    from repro.obs.trace import Tracer

    session, ranges = fx.serve_workload()
    saved = session.tracer
    session.attach_tracer(Tracer() if traced else None)
    try:
        run_once(session, ranges, max_batch=16)
    finally:
        session.attach_tracer(saved)


def _run_shard_scan(fx: _Fixtures, n_shards: int) -> None:
    from repro.shard.bench import run_scan_once

    run_scan_once(*fx.shard_workload(n_shards))


def _run_shard_theta(fx: _Fixtures, n_shards: int) -> None:
    from repro.shard.bench import run_theta_once

    run_theta_once(*fx.shard_workload(n_shards))


def _run_served_sumcount(session, ranges) -> None:
    """One fused batch of 16 windowed ``sum, count`` through
    ``session.serve()`` — served members that read their candidates' rows.
    No other entry times that: ``serve.throughput.*`` serve counts, which
    form no row, and ``shard.scan.s*`` run solo, which never carves."""
    server = session.serve(max_batch=16, optimizer="heuristic")
    handles = [
        session.table("events").where("value", between=window)
        .agg("sum", "value", alias="s").count(alias="n").submit(server)
        for window in ranges[:16]
    ]
    server.drain()
    for handle in handles:  # consume (and surface any failure)
        handle.result()


def build_suite(quick: bool = False, opt_baseline: bool = False) -> dict:
    """The named benchmark suite.

    ``opt_baseline=True`` swaps the ``opt.pick.*`` entries onto the
    pre-PR-8 heuristic path — the ``before`` variant of the interleaved
    recording (every other entry is identical under either flag: the
    optimizer is opt-in and the default paths are untouched).
    """
    fx = _Fixtures.get(quick)
    n = fx.n_rows
    opt = "heuristic" if opt_baseline else "cost"
    return {
        "micro.pack.w8": lambda: pack_codes(fx.codes8, 8),
        "micro.pack.w12": lambda: pack_codes(fx.codes12, 12),
        "micro.unpack.w8": lambda: unpack_codes(fx.packed8, 8, n),
        "micro.unpack.w12": lambda: unpack_codes(fx.packed12, 12, n),
        # What rebuilding an evicted 12-bit view decodes (PR 15; the before
        # point is the parent's rebuild: the uint64 decode above).
        "micro.unpack.w12.narrow": lambda: unpack_codes(
            fx.packed12, 12, n, np.uint16
        ),
        "micro.gather.w12": lambda: gather_codes(
            fx.packed12, 12, n, fx.positions
        ),
        "micro.gather.w12.dense": lambda: gather_codes(
            fx.packed12, 12, n, fx.dense_positions, np.uint16
        ),
        "group.keys.q1": lambda: group_approx_from_keys(
            fx.machine.gpu, Timeline(), fx.q1_keys
        ),
        "agg.grouped.q1": lambda: _run_grouped_q1(fx),
        "scan.selection": lambda: _run_selection(fx),
        "scan.selection.evict": lambda: _run_selection_evict(fx),
        "scan.conjunction3": lambda: _run_conjunction3(fx),
        "scan.conjunction3.set": lambda: _run_conjunction3(fx, in_order=False),
        "join.theta.band": lambda: _run_theta_band(fx),
        "join.theta.band.large": lambda: _run_theta_band(fx, size="large"),
        "join.theta.band.xlarge": lambda: _run_theta_band(fx, size="xlarge"),
        "join.theta.band.repeat": lambda: _run_theta_repeat(fx),
        "join.theta.band.selected": lambda: _run_theta_band_selected(fx),
        "join.theta.count.large": lambda: _run_theta_count_large(fx),
        "join.theta.count.selected": lambda: _run_theta_count_selected(fx),
        "join.theta.pipeline.large": lambda: _run_theta_pipeline_large(fx),
        "serve.theta.b16": lambda: _run_served_theta(fx),
        "tpch.q6.ar": lambda: _run_tpch_q6(fx),
        "tpch.q6.classic": lambda: fx.tpch.execute(fx.q6, mode="classic"),
        "tpch.q1.ar": lambda: _run_tpch_q1(fx),
        "tpch.q1.ar.evict": lambda: _run_tpch_q1_evict(fx),
        # Deliberately last + lazily built: see _Fixtures.serve_workload.
        "serve.throughput.b1": lambda: run_once(*fx.serve_workload(), max_batch=1),
        "serve.throughput.b4": lambda: run_once(*fx.serve_workload(), max_batch=4),
        "serve.throughput.b16": lambda: run_once(*fx.serve_workload(), max_batch=16),
        # Sharded scale-out (PR 6): narrow windows over the range-partitioned
        # column, so pruning routes each query to ~1 shard and sN scans ~1/N
        # of the rows per query.  s4/s1 is the real scale-out speedup.
        "shard.scan.s1": lambda: _run_shard_scan(fx, 1),
        "shard.scan.s2": lambda: _run_shard_scan(fx, 2),
        "shard.scan.s4": lambda: _run_shard_scan(fx, 4),
        "shard.theta.s1": lambda: _run_shard_theta(fx, 1),
        "shard.theta.s4": lambda: _run_shard_theta(fx, 4),
        # Served aggregates that read rows (PR 18), on both session types.
        "serve.sumcount.b16": lambda: _run_served_sumcount(*fx.serve_workload()),
        "shard.sumcount.s4": lambda: _run_served_sumcount(*fx.shard_workload(4)),
        # Cost-based optimizer picks (PR 8): before = heuristic path,
        # after = optimizer="cost", so the recorded speedup IS the
        # optimizer's end-to-end win (or its planning overhead).
        "opt.pick.scan": lambda: _run_opt_scan(fx, opt),
        "opt.pick.batch": lambda: _run_opt_batch(fx, opt),
        # A plan-cache miss under "cost", its audit never read.
        "opt.plan.miss": lambda: _run_plan_miss(fx),
        # The SQL front end: parse + bind of a served window, its shape
        # seen before (hit) or never (miss).
        "sql.front.hit": lambda: _run_sql_front(fx, fresh_shape=False),
        "sql.front.miss": lambda: _run_sql_front(fx, fresh_shape=True),
        # Streaming ingestion (PR 9): before = write-through strawman
        # (compact on every write), after = delta held to the watermark.
        "ingest.mixed.wm1k": lambda: _run_ingest_mixed(
            fx, 1_000, strawman=opt_baseline
        ),
        "ingest.mixed.wm10k": lambda: _run_ingest_mixed(
            fx, 10_000, strawman=opt_baseline
        ),
        # Incremental compaction (PR 14): identical under either flag; the
        # before point comes from the parent checkout.
        "ingest.compact.wm4k": lambda: _run_compact_wm4k(fx),
        # Observability overhead (PR 10): same serve workload untraced vs
        # with a Tracer attached; on/off is the measured span-capture cost.
        "obs.overhead.off": lambda: _run_obs_overhead(fx, traced=False),
        "obs.overhead.on": lambda: _run_obs_overhead(fx, traced=True),
    }


# ----------------------------------------------------------------------
# pytest-benchmark smoke target (full sizes; explicit invocation only)
# ----------------------------------------------------------------------
def pytest_generate_tests(metafunc):
    if "bench_name" in metafunc.fixturenames:
        metafunc.parametrize("bench_name", sorted(build_suite()))


def test_wallclock(benchmark, bench_name):
    benchmark.pedantic(build_suite()[bench_name], rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Trajectory recorder
# ----------------------------------------------------------------------
def record_interleaved(
    reps: int, out: Path, only: list[str] | None = None
) -> None:
    """Record ``before`` and ``after`` points pairwise-interleaved.

    For every benchmark, the ``before`` variant (heuristic ``opt.pick.*``;
    identical code for everything else) and the ``after`` variant run
    back to back, alternating per rep — both points of each benchmark are
    taken seconds apart on an identically-warmed process, the recording
    convention the trajectory files promise.
    """
    before_suite = build_suite(opt_baseline=True)
    after_suite = build_suite(opt_baseline=False)
    names = sorted(before_suite)
    if only:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise SystemExit(f"--only: unknown benchmark(s) {', '.join(unknown)}")
        names = [n for n in names if n in only]
    before: dict[str, float] = {}
    after: dict[str, float] = {}
    for name in names:
        b_fn, a_fn = before_suite[name], after_suite[name]
        b_fn(); a_fn()  # warm both variants (lazy fixtures, memoized views)
        b_best = a_best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            b_fn()
            b_best = min(b_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            a_fn()
            a_best = min(a_best, time.perf_counter() - t0)
        before[name], after[name] = b_best, a_best
        print(
            f"{name:34s} before {b_best * 1e3:9.2f} ms   "
            f"after {a_best * 1e3:9.2f} ms"
        )
    data = {}
    if out.exists():
        data = json.loads(out.read_text())
    data.setdefault("meta", {})
    data["meta"].update({"n_rows": N_ROWS, "tpch_sf": TPCH_SF, "reps": reps})
    data.setdefault("before", {}).update(before)
    data.setdefault("after", {}).update(after)
    data["speedup"] = {
        k: round(data["before"][k] / data["after"][k], 2)
        for k in data["after"]
        if k in data["before"] and data["after"][k] > 0
    }
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded interleaved before/after into {out}")


def measure(
    reps: int, quick: bool = False, only: list[str] | None = None
) -> dict[str, float]:
    suite = build_suite(quick)
    if only:
        unknown = sorted(set(only) - set(suite))
        if unknown:
            raise SystemExit(
                f"--only: unknown benchmark(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(suite))}"
            )
        suite = {k: suite[k] for k in suite if k in only}
    results: dict[str, float] = {}
    for name, fn in suite.items():
        fn()  # warmup (also builds any lazy caches, as a real workload would)
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        results[name] = best
        print(f"{name:34s} {best * 1e3:10.2f} ms")
    return results


def _after_point(path: Path) -> dict[str, float]:
    """The measured-code record of a trajectory file.

    Prefers the ``after`` label (each PR file's own code); a file holding a
    single other label falls back to that one.
    """
    data = json.loads(Path(path).read_text())
    if "after" in data:
        return data["after"]
    labels = [k for k in data if k not in ("meta", "speedup")]
    if len(labels) == 1:
        return data[labels[0]]
    raise SystemExit(
        f"{path}: no 'after' record (labels present: {sorted(labels)})"
    )


def compare(
    before_path: Path,
    after_path: Path | None = None,
    threshold: float = REGRESSION_THRESHOLD,
) -> int:
    """Per-benchmark speedup table; the wall-clock regression gate.

    Two files: compare their ``after`` points (same-machine recordings
    only — wall-clock milliseconds do not transfer across hosts).  One
    file: compare its own ``before`` → ``after`` points, which the
    recording convention keeps machine-consistent (each PR re-measures
    ``before`` from the prior code on the recording machine).

    Returns a nonzero exit status when any benchmark present in *both*
    points regressed below ``threshold`` (after runs slower than before by
    more than the allowed factor) — so CI or a reviewer can gate on
    ``--compare`` and trajectory files stay machine-checkable rather than
    prose.  Benchmarks only one point knows are listed but never gate.
    """
    if after_path is None:
        data = json.loads(Path(before_path).read_text())
        for label in ("before", "after"):
            if label not in data:
                raise SystemExit(f"{before_path}: no {label!r} record to gate")
        before, after = data["before"], data["after"]
    else:
        before = _after_point(before_path)
        after = _after_point(after_path)
    shared = sorted(set(before) & set(after))
    regressions = []
    print(f"{'benchmark':34s} {'before':>11s} {'after':>11s} {'speedup':>8s}")
    for name in shared:
        speedup = before[name] / after[name] if after[name] > 0 else float("inf")
        flag = ""
        if speedup < threshold:
            regressions.append(name)
            flag = "  << REGRESSION"
        print(
            f"{name:34s} {before[name] * 1e3:9.2f}ms {after[name] * 1e3:9.2f}ms"
            f" {speedup:7.2f}x{flag}"
        )
    for name in sorted(set(after) - set(before)):
        print(f"{name:34s} {'—':>11s} {after[name] * 1e3:9.2f}ms      new")
    for name in sorted(set(before) - set(after)):
        print(f"{name:34s} {before[name] * 1e3:9.2f}ms {'—':>11s}  dropped")
    if regressions:
        print(
            f"FAIL: {len(regressions)} benchmark(s) regressed below "
            f"{threshold}x: {', '.join(regressions)}"
        )
        return 1
    print(f"ok: no shared benchmark below {threshold}x")
    return 0


def record(
    label: str,
    reps: int,
    out: Path,
    only: list[str] | None = None,
) -> None:
    """Measure (a subset of) the suite and merge under ``label`` in ``out``.

    With ``--only``, existing measurements under the label are kept and
    the named benchmarks are updated in place — the mechanism behind the
    pairwise-interleaved recording convention (PR 5): each benchmark's
    ``before`` and ``after`` points are taken seconds apart by alternating
    single-benchmark recordings from the two checkouts.
    """
    data = {}
    if out.exists():
        data = json.loads(out.read_text())
    data.setdefault("meta", {})
    data["meta"].update({"n_rows": N_ROWS, "tpch_sf": TPCH_SF, "reps": reps})
    data.setdefault(label, {}).update(measure(reps, only=only))
    if "before" in data and "after" in data:
        data["speedup"] = {
            k: round(data["before"][k] / data["after"][k], 2)
            for k in data["after"]
            if k in data["before"] and data["after"][k] > 0
        }
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {label!r} into {out}")


if __name__ == "__main__":
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after", help="before | after | <tag>")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--out", type=Path,
        help="trajectory file a recording merges into (required to record)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small inputs, one rep, print only (smoke mode; records nothing)",
    )
    parser.add_argument(
        "--compare", nargs="+", type=Path, metavar="FILE",
        help="gate on regressions: one trajectory file (its before->after) "
        "or two files (their after points); exits nonzero on regressions",
    )
    parser.add_argument(
        "--threshold", type=float, default=REGRESSION_THRESHOLD,
        help="--compare regression gate: flag speedups below this factor",
    )
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        help="record/measure only this benchmark (repeatable); recordings "
        "merge into the label instead of replacing it",
    )
    parser.add_argument(
        "--interleaved", action="store_true",
        help="record before and after points pairwise-interleaved in one "
        "process (before = heuristic opt.pick.* variants)",
    )
    args = parser.parse_args()
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two trajectory files")
        sys.exit(
            compare(
                args.compare[0],
                args.compare[1] if len(args.compare) == 2 else None,
                args.threshold,
            )
        )
    elif args.quick:
        measure(reps=1, quick=True, only=args.only)
    elif args.out is None:
        parser.error("recording needs --out BENCH_PR<n>.json")
    elif args.interleaved:
        record_interleaved(args.reps, args.out, only=args.only)
    else:
        record(args.label, args.reps, args.out, only=args.only)
