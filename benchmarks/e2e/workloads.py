"""The five workloads: generators, set-up, operation streams, execution.

The seed drives only the generators in this file.  The program receives
generated tables, SQL strings and row batches through its public surface
(listed in README.md) and hands back ``Result`` objects, which
:mod:`oracles` checks against NumPy references.

Work comes in *blocks*: one shuffled cycle of 16 operations on the solo
workloads, 16 waves of 16 queries on the serve workloads (on
``serve.mixed`` that is exactly one compaction period, so every block —
and therefore every round — carries the same background work).  Block
``k`` of a workload is a pure function of ``(seed, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from time import perf_counter

import numpy as np

import oracles
from repro import IntType, Session
from repro.errors import ReproError
from repro.shard.session import ShardedSession
from repro.sql import bind, parse
from repro.storage.column import DecimalType, DictionaryType
from repro.storage.decompose import set_view_budget
from repro.workloads import tpch

#: Operations per solo cycle, waves per serve block, queries per wave.
BLOCK = 16

_SIZES = {
    # full: sized on the 2-core sandbox (README "Sizes")
    False: dict(
        sf=0.17, band=(200_000, 50_000), events=1_000_000, dim=20_000,
        write_rows=256, watermark=4096, evict_budget=8 << 20,
    ),
    # --quick: the smoke-test shape, same structure
    True: dict(
        sf=0.005, band=(4_000, 1_000), events=20_000, dim=400,
        write_rows=16, watermark=256, evict_budget=48 << 10,
    ),
}


@dataclass(frozen=True)
class Op:
    """One read: SQL text, execution mode and its oracle."""

    cls: str  # latency class, e.g. "q6_ar"
    sql: str
    mode: str
    check: tuple  # (oracle function, *literal arguments)
    keys: tuple = ()  # group-by columns (row order is unspecified)


@dataclass
class Done:
    """What came back for one read."""

    op: Op
    op_id: str
    t0: float
    t1: float
    #: the ``Result``, or the exception the program raised
    result: object
    #: appended rows visible to this read (``serve.mixed``)
    visible: int = 0
    #: ``host.speed`` of the round this read ran in
    speed: float = 1.0


@dataclass
class Write:
    t0: float
    t1: float
    rows: int
    error: Exception | None = None
    speed: float = 1.0


@dataclass
class Context:
    """One fresh build of a workload's program state."""

    session: object
    server: object = None
    #: seconds inside ``bwdecompose`` and the rows it decomposed
    decompose_seconds: float = 0.0
    decompose_rows: int = 0
    base_rows: int = 0
    #: every row batch appended since creation, in arrival order
    appended: list = field(default_factory=list)
    appended_rows: int = 0
    #: rows rewritten by the compactions seen so far (base + delta each)
    rewritten_rows: int = 0
    compactions_seen: int = 0
    #: scheduler sequence number -> the benchmark's query id (traced pass)
    seq_ids: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def read_answer(result) -> dict:
    """The ``result.read`` boundary: copy the answer out of the Result."""
    return {name: np.asarray(col) for name, col in result.columns.items()}


def run_twin(session, sql: str) -> object:
    """The ``classic`` (CPU-only, full precision) twin of one read."""
    query, scales = bind(parse(sql), session.catalog)
    result = session.query(query, mode="classic")
    result.decimal_scales.update(scales)
    return result


# ======================================================================
# solo.analytic / solo.evict
# ======================================================================
_LINEITEM_COLUMNS = (
    "quantity", "extendedprice", "discount", "tax", "returnflag",
    "linestatus", "partkey", "shipdate",
)

#: latency classes of one solo cycle: 1 Q1, 4 + 1 + 1 Q6, 3 + 1 Q14,
#: 3 band joins, 2 selections (the mix ISSUE 12 fixes)
SOLO_CLASSES = (
    "q1_ar", "q6_ar", "q6_approx", "q6_classic", "q14_ar", "q14_classic",
    "band_ar", "sel_ar",
)
#: band widths are drawn one per stratum so every cycle does alike work
_BAND_STRATA = ((16, 54), (54, 92), (92, 129))


class Solo:
    """``Session.execute(sql, mode=...)``, one query outstanding."""

    kind = "solo"
    n_shards = 0
    writes = False
    #: both solo workloads draw from one stream: same tables, same op list
    index = 0

    def __init__(self, name: str, evict: bool) -> None:
        self.name = name
        self.evict = evict

    # ------------------------------------------------------------------
    def generate(self, seed: int, quick: bool) -> dict:
        size = _SIZES[quick]
        config = tpch.TpchConfig(scale_factor=size["sf"], seed=seed)
        gen = _rng(seed, self.index, 1 << 20)
        n_left, n_right = size["band"]
        return {
            "lineitem": tpch.generate_lineitem(config),
            "part": tpch.generate_part(config),
            "bandL": gen.integers(0, 1 << 22, size=n_left),
            "bandR": gen.integers(0, 1 << 22, size=n_right),
            "view_budget": size["evict_budget"] if self.evict else None,
        }

    def build(self, data: dict) -> Context:
        set_view_budget(data["view_budget"])
        session = Session()
        session.create_table("lineitem", tpch.LINEITEM_SCHEMA, data["lineitem"])
        session.create_table(
            "part",
            {
                "key": IntType(),
                "p_type": DictionaryType(dictionary=tpch.part_type_dictionary()),
                "retailprice": DecimalType(12, 2),
            },
            data["part"],
        )
        session.create_table("bandL", {"price": IntType()}, {"price": data["bandL"]})
        session.create_table("bandR", {"price": IntType()}, {"price": data["bandR"]})
        ctx = Context(session, base_rows=sum(
            len(session.catalog.table(t))
            for t in ("lineitem", "part", "bandL", "bandR")
        ))
        ddl = [("lineitem", c, 32) for c in _LINEITEM_COLUMNS]
        ddl += [("part", "p_type", 32), ("bandL", "price", 24), ("bandR", "price", 24)]
        for table, column, bits in ddl:
            t0 = perf_counter()
            session.execute(f"select bwdecompose({column}, {bits}) from {table}")
            ctx.decompose_seconds += perf_counter() - t0
            ctx.decompose_rows += len(session.catalog.table(table))
        return ctx

    def config(self, ctx: Context) -> dict:
        return {"entry": "Session.execute", "optimizer": "auto (run default)"}

    def warm_up(self, ctx: Context, data: dict, seed: int) -> None:
        """Every query class once: lazy views and sort permutations fill."""
        seen = set()
        for op in self.block(None, seed, -1):
            if op.cls not in seen:
                seen.add(op.cls)
                ctx.session.execute(op.sql, mode=op.mode)

    # ------------------------------------------------------------------
    def block(self, data, seed: int, k: int) -> list[Op]:
        gen = _rng(seed, self.index, k + 1)
        ops: list[Op] = []
        years = gen.permutation(np.arange(1993, 1998))
        q6_modes = ["ar"] * 4 + ["approximate", "classic"]
        for i, mode in enumerate(q6_modes):
            ops.append(self._q6(gen, int(years[i % len(years)]), mode))
        for mode in ("ar", "ar", "ar", "classic"):
            ops.append(self._q14(gen, mode))
        ops.append(self._q1(gen))
        for lo, hi in _BAND_STRATA:
            d = int(gen.integers(lo, hi))
            ops.append(Op(
                "band_ar",
                "select count(*) as n from bandL join bandR "
                f"on bandL.price within {d} of bandR.price",
                "ar", (oracles.check_band, "bandL", "bandR", d),
            ))
        for _ in range(2):
            ops.append(self._selection(gen))
        return [ops[i] for i in gen.permutation(BLOCK)]

    @staticmethod
    def _q1(gen) -> Op:
        cutoff = tpch.SHIPDATE_HI - int(gen.integers(60, 121))
        return Op(
            "q1_ar",
            "select returnflag, linestatus, sum(quantity) as sum_qty, "
            "sum(extendedprice) as sum_base_price, "
            "sum(extendedprice * (1 - discount)) as sum_disc_price, "
            "sum(extendedprice * (1 - discount) * (1 + tax)) as sum_charge, "
            "avg(quantity) as avg_qty, avg(extendedprice) as avg_price, "
            "avg(discount) as avg_disc, count(*) as count_order "
            f"from lineitem where shipdate <= '{oracles.iso_day(cutoff)}' "
            "group by returnflag, linestatus",
            "ar", (oracles.check_q1, "lineitem", cutoff),
            keys=("returnflag", "linestatus"),
        )

    @staticmethod
    def _q6(gen, year: int, mode: str) -> Op:
        # TPC-H substitution parameters: DISCOUNT in 0.02..0.09, QUANTITY 24|25
        disc = int(gen.integers(2, 10))
        qty = int(gen.integers(24, 26))
        lo, hi = oracles.day_of(year), oracles.day_of(year + 1)
        cls = {"ar": "q6_ar", "approximate": "q6_approx", "classic": "q6_classic"}
        check = oracles.check_q6_interval if mode == "approximate" else oracles.check_q6
        return Op(
            cls[mode],
            "select sum(extendedprice * discount) as revenue from lineitem "
            f"where shipdate >= '{oracles.iso_day(lo)}' "
            f"and shipdate < '{oracles.iso_day(hi)}' "
            f"and discount between {(disc - 1) / 100:.2f} and {(disc + 1) / 100:.2f} "
            f"and quantity < {qty}",
            mode, (check, "lineitem", lo, hi, disc - 1, disc + 1, qty),
        )

    @staticmethod
    def _q14(gen, mode: str) -> Op:
        year, month = int(gen.integers(1993, 1998)), int(gen.integers(1, 13))
        lo = oracles.day_of(year, month)
        hi = oracles.day_of(year + month // 12, month % 12 + 1)
        return Op(
            "q14_ar" if mode == "ar" else "q14_classic",
            "select sum(case when part.p_type like 'PROMO%' "
            "then extendedprice * (1 - discount) else 0 end) as promo_revenue, "
            "sum(extendedprice * (1 - discount)) as total_revenue "
            "from lineitem join part on lineitem.partkey = part.key "
            f"where shipdate >= '{oracles.iso_day(lo)}' "
            f"and shipdate < '{oracles.iso_day(hi)}'",
            mode, (oracles.check_q14, "lineitem", "promo_parts", lo, hi),
        )

    @staticmethod
    def _selection(gen) -> Op:
        span = int(gen.integers(90, 181))
        lo = int(gen.integers(tpch.SHIPDATE_LO, tpch.SHIPDATE_HI - span))
        qty_lo = int(gen.integers(1, 30))
        qty_hi = qty_lo + 20
        return Op(
            "sel_ar",
            "select sum(extendedprice) as s, count(*) as n from lineitem "
            f"where shipdate between '{oracles.iso_day(lo)}' "
            f"and '{oracles.iso_day(lo + span)}' "
            f"and quantity between {qty_lo} and {qty_hi}",
            "ar", (oracles.check_selection, "lineitem", lo, lo + span, qty_lo, qty_hi),
        )

    # ------------------------------------------------------------------
    def run_block(self, ctx: Context, ops: list[Op], block_id: str, rec) -> tuple:
        session = ctx.session
        done: list[Done] = []
        for i, op in enumerate(ops):
            op_id = f"{block_id}.o{i}"
            t0 = perf_counter()
            try:
                if rec is None:
                    result = session.execute(op.sql, mode=op.mode)
                    read_answer(result)
                else:
                    result = self._run_traced(session, op, op_id, rec)
            except ReproError as exc:
                result = exc
            done.append(Done(op, op_id, t0, perf_counter(), result))
        return done, []

    @staticmethod
    def _run_traced(session, op: Op, op_id: str, rec):
        """``Session.execute`` taken apart at its layer boundaries.

        ``run_sql`` is parse → bind → ``Session.query``; calling the three
        public steps ourselves is the same path with a clock between them.
        """
        root = rec.begin("op", None, op_id)
        try:
            span = rec.begin("sql.parse", root, op_id)
            stmt = parse(op.sql)
            rec.finish(span)
            span = rec.begin("sql.bind", root, op_id)
            query, scales = bind(stmt, session.catalog)
            rec.finish(span)
            span = rec.begin("exec", root, op_id)
            first = len(session.tracer.traces)
            try:
                result = session.query(query, mode=op.mode)
            finally:
                rec.finish(span)
                rec.exec_traces.append((span, first, len(session.tracer.traces)))
            span = rec.begin("result.read", root, op_id)
            result.decimal_scales.update(scales)
            read_answer(result)
            rec.finish(span)
            return result
        finally:
            rec.finish(root)

    # ------------------------------------------------------------------
    def oracle_data(self, data: dict, ctx: Context) -> dict:
        names = sorted(
            " ".join(s) for s in product(
                tpch.TYPE_SYLLABLE_1, tpch.TYPE_SYLLABLE_2, tpch.TYPE_SYLLABLE_3,
            )
        )
        promo_codes = [i for i, n in enumerate(names) if n.startswith("PROMO")]
        return {
            "lineitem": data["lineitem"],
            "promo_parts": np.isin(data["part"]["p_type"], promo_codes),
            "bandL": np.asarray(data["bandL"], dtype=np.int64),
            "bandR": np.sort(data["bandR"]),
        }

    def verify(self, done: Done, od: dict) -> int:
        check, *args = done.op.check
        args = [od[a] if isinstance(a, str) else a for a in args]
        if done.op.mode == "approximate":
            return check(done.result.approximate.aggregates, *args)
        return check(read_answer(done.result), *args)


# ======================================================================
# serve.dash / serve.mixed / shard.s4
# ======================================================================
class Serve:
    """Waves of 16 through a scheduler: parse → bind → submit → result()."""

    kind = "serve"
    n_shards = 0

    def __init__(self, name: str, index: int, writes: bool) -> None:
        self.name = name
        self.index = index
        self.writes = writes

    #: window widths as fractions of the value domain
    fractions = (0.005, 0.01, 0.02)
    panel_windows = 48

    # ------------------------------------------------------------------
    def generate(self, seed: int, quick: bool) -> dict:
        size = _SIZES[quick]
        n = size["events"]
        gen = _rng(seed, self.index, 1 << 20)
        return {
            "n": n, "value": gen.integers(0, n, size=n),
            "write_rows": size["write_rows"], "watermark": size["watermark"],
            "panel": [
                self._window(gen, n, self.fractions[i % 3])
                for i in range(self.panel_windows)
            ],
        }

    @staticmethod
    def _window(gen, n: int, fraction: float) -> tuple[int, int]:
        width = max(1, int(n * fraction))
        lo = int(gen.integers(0, n - width))
        return lo, lo + width

    def build(self, data: dict) -> Context:
        set_view_budget(None)
        session = Session()
        session.create_table("events", {"value": IntType()}, {"value": data["value"]})
        ctx = Context(session, base_rows=data["n"])
        t0 = perf_counter()
        session.execute("select bwdecompose(value, 24) from events")
        ctx.decompose_seconds = perf_counter() - t0
        ctx.decompose_rows = data["n"]
        if self.writes:
            ctx.server = session.serve(
                max_batch=BLOCK, delta_watermark=data["watermark"]
            )
        else:
            ctx.server = session.serve(max_batch=BLOCK)
        return ctx

    def config(self, ctx: Context) -> dict:
        policy = ctx.server.policy
        return {
            "entry": f"{type(ctx.session).__name__}.serve",
            "optimizer": policy.optimizer, "max_batch": policy.max_batch,
            "max_in_flight": policy.max_in_flight,
            "delta_watermark": policy.delta_watermark if self.writes else None,
        }

    def warm_up(self, ctx: Context, data: dict, seed: int) -> None:
        """One block: views, plan cache for the panel, one compaction."""
        done, writes = self.run_block(
            ctx, self.block(data, seed, -1), "warm", None
        )
        errors = [d.result for d in done if isinstance(d.result, Exception)]
        errors += [w.error for w in writes if w.error is not None]
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    def block(self, data: dict, seed: int, k: int) -> list:
        """16 waves; a wave is ``(rows to append or None, [16 ops])``."""
        gen = _rng(seed, self.index, k + 1)
        return [self._wave(data, gen, k * BLOCK + w) for w in range(BLOCK)]

    def _wave(self, data: dict, gen, wave_index: int) -> tuple:
        n = data["n"]
        windows = [
            data["panel"][(wave_index * 8 + j) % self.panel_windows]
            for j in range(8)
        ]
        windows += [self._window(gen, n, self.fractions[j % 3]) for j in range(8)]
        ops = [
            Op(
                "count", "select count(*) as n from events "
                f"where value between {lo} and {hi}",
                "ar", (oracles.check_window_count, lo, hi),
            )
            for lo, hi in (windows[i] for i in gen.permutation(BLOCK))
        ]
        rows = None
        if self.writes:
            rows = {"value": gen.integers(0, n, size=data["write_rows"])}
        return rows, ops

    # ------------------------------------------------------------------
    def run_block(self, ctx: Context, waves: list, block_id: str, rec) -> tuple:
        session, server = ctx.session, ctx.server
        catalog = session.catalog
        done: list[Done] = []
        writes: list[Write] = []
        for w, (rows, ops) in enumerate(waves):
            wave_id = f"{block_id}.w{w}"
            root = rec.begin("wave", None, wave_id) if rec is not None else None
            if rows is not None:
                writes.append(self._write(ctx, rows, wave_id, root, rec))
            starts, handles = [], []
            for i, op in enumerate(ops):
                op_id = f"{wave_id}.q{i}"
                starts.append(perf_counter())
                try:
                    if rec is None:
                        query, _ = bind(parse(op.sql), catalog)
                        handles.append(server.submit(query, mode=op.mode))
                    else:
                        span = rec.begin("sql.parse", root, op_id)
                        stmt = parse(op.sql)
                        rec.finish(span)
                        span = rec.begin("sql.bind", root, op_id)
                        query, _ = bind(stmt, catalog)
                        rec.finish(span)
                        span = rec.begin("serve.submit", root, op_id)
                        try:
                            handles.append(server.submit(query, mode=op.mode))
                        finally:
                            rec.finish(span)
                        ctx.seq_ids[handles[-1].seq] = op_id
                except ReproError as exc:  # refused at admission, or bad SQL
                    handles.append(exc)
            if rec is not None:
                span = rec.begin("exec", root, wave_id)
                first = len(session.tracer.traces)
            results = []
            for handle in handles:
                result = handle  # an exception when the submit was refused
                if not isinstance(handle, Exception):
                    try:
                        result = handle.result()
                        read_answer(result)
                    except ReproError as exc:
                        result = exc
                results.append((result, perf_counter()))
            if rec is not None:
                rec.finish(span)
                rec.exec_traces.append((span, first, len(session.tracer.traces)))
                rec.finish(root)
            for i, (op, (result, t1)) in enumerate(zip(ops, results)):
                done.append(Done(
                    op, f"{wave_id}.q{i}", starts[i], t1, result,
                    visible=ctx.appended_rows,
                ))
            self._after_wave(ctx)
        return done, writes

    @staticmethod
    def _write(ctx: Context, rows: dict, wave_id: str, root, rec) -> Write:
        span = rec.begin("ingest.append", root, wave_id) if rec is not None else None
        t0 = perf_counter()
        error = None
        try:
            landed = ctx.server.submit_write("events", rows)
        except ReproError as exc:
            landed, error = 0, exc
        t1 = perf_counter()
        if rec is not None:
            rec.finish(span)
        n = len(rows["value"])
        if error is None and landed != n:
            error = ReproError(f"write landed {landed} of {n} rows")
        ctx.appended.append(rows["value"])
        ctx.appended_rows += n
        return Write(t0, t1, n, error)

    def _after_wave(self, ctx: Context) -> None:
        """Count boundary: rows a compaction rewrote since the last wave."""
        if not self.writes:
            return
        compactions = ctx.server.stats.compactions
        if compactions != ctx.compactions_seen:
            ctx.rewritten_rows += (
                (compactions - ctx.compactions_seen)
                * (ctx.base_rows + ctx.appended_rows)
            )
            ctx.compactions_seen = compactions

    # ------------------------------------------------------------------
    def oracle_data(self, data: dict, ctx: Context) -> dict:
        appended = (
            np.concatenate(ctx.appended) if ctx.appended
            else np.empty(0, dtype=np.int64)
        )
        return {
            "base": oracles.SortedColumn(data["value"]),
            "appended": oracles.SortedColumn(appended),
        }

    def verify(self, done: Done, od: dict) -> int:
        check, lo, hi = done.op.check
        log = od["appended"]
        a, b = log.window(lo, hi)
        # arrival order is the sort's tiebreak, so order < visible = visible
        visible = log.sorted[a:b][log.order[a:b] < done.visible]
        return check(read_answer(done.result), od["base"], visible, lo, hi)


class Sharded(Serve):
    """``ShardedSession(4).serve()``: pruned fragments, coordinator merges."""

    n_shards = 4
    fractions = (0.01, 0.02, 0.04)
    band_delta = 64
    n_buckets = 16

    def generate(self, seed: int, quick: bool) -> dict:
        size = _SIZES[quick]
        n = size["events"]
        gen = _rng(seed, self.index, 1 << 20)
        return {
            "n": n, "value": gen.integers(0, n, size=n),
            "bucket": gen.integers(0, self.n_buckets, size=n),
            "pivot": gen.integers(0, n, size=size["dim"]),
        }

    def build(self, data: dict) -> Context:
        set_view_budget(None)
        session = ShardedSession(self.n_shards)
        session.create_table(
            "events", {"value": IntType(), "bucket": IntType()},
            {"value": data["value"], "bucket": data["bucket"]},
        )
        session.create_table(
            "dim", {"pivot": IntType()}, {"pivot": data["pivot"]},
            partition=False,
        )
        ctx = Context(session, base_rows=data["n"] + len(data["pivot"]))
        # ``value`` first: the first decomposition sets the shards' code bands
        for table, column, bits in (
            ("events", "value", 24), ("events", "bucket", 32), ("dim", "pivot", 24),
        ):
            t0 = perf_counter()
            session.bwdecompose(table, column, bits)
            ctx.decompose_seconds += perf_counter() - t0
            ctx.decompose_rows += len(session.catalog.table(table))
        ctx.server = session.serve()
        return ctx

    def _wave(self, data: dict, gen, wave_index: int) -> tuple:
        n = data["n"]
        ops = []
        for j in range(12):
            lo, hi = self._window(gen, n, self.fractions[j % 3])
            ops.append(Op(
                "sum_count",
                "select sum(value) as s, count(*) as n from events "
                f"where value between {lo} and {hi}",
                "ar", (oracles.check_window_sum_count, lo, hi),
            ))
        for _ in range(2):
            lo, hi = self._window(gen, n, 0.02)
            ops.append(Op(
                "group",
                "select bucket, count(*) as n, sum(value) as s from events "
                f"where value between {lo} and {hi} group by bucket",
                "ar", (oracles.check_window_groups, lo, hi), keys=("bucket",),
            ))
        for _ in range(2):
            lo, hi = self._window(gen, n, 0.02)
            ops.append(Op(
                "band",
                "select count(*) as n from events join dim "
                f"on events.value within {self.band_delta} of dim.pivot "
                f"where value between {lo} and {hi}",
                "ar", (oracles.check_window_band, lo, hi),
            ))
        return None, [ops[i] for i in gen.permutation(BLOCK)]

    def oracle_data(self, data: dict, ctx: Context) -> dict:
        return {
            "base": oracles.SortedColumn(data["value"]),
            "bucket": np.asarray(data["bucket"], dtype=np.int64),
            "pivots": np.sort(data["pivot"]),
        }

    def verify(self, done: Done, od: dict) -> int:
        check, lo, hi = done.op.check
        answer = read_answer(done.result)
        if check is oracles.check_window_groups:
            return check(answer, od["base"], od["bucket"], lo, hi)
        if check is oracles.check_window_band:
            return check(answer, od["base"], od["pivots"], lo, hi, self.band_delta)
        return check(answer, od["base"], lo, hi)


WORKLOADS = {
    w.name: w for w in (
        Solo("solo.analytic", evict=False),
        Solo("solo.evict", evict=True),
        Serve("serve.dash", 2, writes=False),
        Serve("serve.mixed", 3, writes=True),
        Sharded("shard.s4", 4, writes=False),
    )
}
