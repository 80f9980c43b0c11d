"""An oracle that is not us (ROADMAP direction D, first three slices).

Every other cross-check compares the system with itself.  This one runs the
same SQL text through stdlib ``sqlite3`` and through the three entry points
a served window takes — ``Session.execute``, ``Session.serve`` (one fused
batch of 16) and ``ShardedSession(4).serve`` — over the shapes PRs 17 and 18
touch: windowed ``count(*)``, ``sum, count`` and ``group by``, and (PR 18,
the aggregates whose candidates form in run order) ``min``, ``max``, ``avg``
and the ``sum`` of a second column, alone, together and grouped; under
``between`` / ``<`` / ``>=`` with literals drawn on and off the 256-value
bucket edges; on the bulk load, with delta in flight, and after compaction.
Exact answers must equal sqlite's; an ``approximate`` interval must contain
it, or be ``None``; where sqlite answers NULL (``min`` / ``max`` / ``avg``
of no row) the exact modes must refuse with the engine's empty-input error.
PR 19 adds band joins — ``join dim on events.value within d of dim.pivot``,
which one regex turns into ``abs(a - b) <= d`` for sqlite — under the same
windows, with ``count(*)`` and ``min`` / ``max`` / ``avg`` / ``sum`` of the
left column (the weighted fold), and with delta in flight on either side of
the join or both.

PR 23 adds the theta slice of the edge lattice (``LATTICE``): sides with at
most four distinct values (one run table entry carries a quarter of the
rows), a left side of one approximation code, ``delta = 0``, a ``dim`` no
row comes near, a window that selects nothing, and the documented refusal
of an empty ``dim``.

PR 24 adds a two-key grouping (``group by bucket, flag``: through
``Session.execute`` the candidates are put in group-major order and every
fold reduces slices; the carved sets of the two serving entries are not)
and the rest of D4's empty inputs: windows no shard has a row for, and
windows only one shard has rows for — behind a predicate that prunes shards
and behind one that cannot — in ``ar`` and ``classic`` mode.

Seeded and bounded: a fixed seed list, a few seconds in tier-1.  A failing
seed is shrunk to the one query that fails and added to ``REGRESSIONS``.
"""

import math
import re
import sqlite3

import numpy as np
import pytest

from repro import IntType, Session
from repro.errors import (
    DecompositionError,
    EmptyInputError,
    ExecutionError,
    PlanError,
)
from repro.shard import ShardedSession
from repro.sql import bind, parse

N_ROWS = 3_000
N_DELTA = 200
DOMAIN = 40_000      # 16 value bits; bwdecompose(value, 24) leaves 8 residual
BUCKET = 256
N_GROUPS = 6
N_FLAGS = 4
WAVE = 16
N_DIM = 16           # band-join right side: a few pairs per fact row

SEEDS = [101, 202, 303, 404]

#: queries a seed once failed on, shrunk and kept verbatim: (sql, why)
REGRESSIONS = [
    (
        "select sum(value) as s, count(*) as n from events where value >= -257",
        "seed 1072: the binder took a negated number for an expression and "
        "refused the comparison (BETWEEN accepted the same literal)",
    ),
    (
        "select count(*) as n from events where -1 < value",
        "the same defect with the literal on the left",
    ),
]


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def literal(rng) -> int:
    """On a bucket edge, one value off it, or anywhere — also past the ends."""
    edge = int(rng.integers(-1, DOMAIN // BUCKET + 2)) * BUCKET
    return int(rng.choice([edge, edge - 1, edge + 1, rng.integers(-50, DOMAIN + 50)]))


def predicate(rng) -> str:
    kind = rng.integers(0, 4)
    a = literal(rng)
    if kind == 0:
        return f"value < {a}"
    if kind == 1:
        return f"value >= {a}"
    width = int(rng.choice([0, 1, BUCKET - 1, BUCKET, 3 * BUCKET, 5_000]))
    return f"value between {a} and {a + width}"


#: select lists of a wave, by position modulo their number; every statement
#: opens with a scan of ``value``, so 16 of them are one fused batch
SHAPES = [
    "count(*) as n",
    "sum(value) as s, count(*) as n",
    "bucket, count(*) as n, sum(value) as s",
    "min(value) as lo",                        # alone: ApproxMinMaxPrune
    "max(other) as hi",
    "min(value) as lo, max(value) as hi, count(*) as n",
    "avg(value) as v, sum(other) as t",
    "bucket, min(other) as lo, max(value) as hi, avg(other) as v, sum(other) as t",
    "bucket, flag, count(*) as n, sum(value * (1 + flag)) as s, avg(other) as v",
]


#: over a band join the binder takes left-side columns only (the run-payload
#: fold of a right column stays with tests/engine/test_right_projection.py)
JOIN_SHAPES = [
    "count(*) as n",
    "sum(value) as s, count(*) as n",
    "bucket, count(*) as n, sum(other) as t",
    "min(value) as lo",
    "max(other) as hi, avg(value) as v",
    "min(other) as lo, max(value) as hi, avg(other) as v, sum(value) as s, count(*) as n",
    "avg(other) as v",
    "bucket, min(value) as lo, max(other) as hi, avg(value) as v, sum(other) as t",
]


def group_by(shape: str) -> str:
    """The ``group by`` of a select list: the bare columns it opens with."""
    keys = re.match(r"((?:\w+, )*)", shape).group(1)
    return f" group by {keys[:-2]}" if keys else ""


def wave(rng, shapes=SHAPES, join=False) -> list[str]:
    sqls = []
    for i in range(WAVE):
        shape = shapes[i % len(shapes)]
        group = group_by(shape)
        band = ""
        if join:
            d = int(rng.choice([0, 1, BUCKET - 1, BUCKET, 700]))
            band = f" join dim on events.value within {d} of dim.pivot"
        sqls.append(f"select {shape} from events{band} where {predicate(rng)}{group}")
    return sqls


def few(rng, pool, n) -> np.ndarray:
    """``n`` draws from at most four distinct values of ``pool``."""
    return rng.choice(rng.choice(pool, 4), n)


def shared(rng, pool, n) -> np.ndarray:
    return rng.choice(pool, n)


def whole_or_wide(rng) -> str:
    """No window at all — the whole-column join, whose candidate runs are
    never formed — or one most of a few-valued side passes."""
    return str(rng.choice(["", f" where value >= {literal(rng) // 4}"]))


#: the theta slice of the edge lattice: case -> what it does to the left
#: values, the pivots, the band width and the window of a join wave (absent:
#: the wave's own draw).  ``pool`` is 64 values both sides can draw from,
#: so that the few values a side has do meet the other's.
LATTICE = {
    "duplicates left": dict(left=few, right=shared, where=whole_or_wide),
    "duplicates right": dict(left=shared, right=few, where=whole_or_wide),
    "duplicates both": dict(left=few, right=few, where=whole_or_wide),
    # approx_bits == 0: every left row carries the one code there is
    "one code left": dict(
        left=lambda rng, pool, n: rng.integers(0, BUCKET, n),
        right=lambda rng, pool, n: rng.integers(-BUCKET, 2 * BUCKET, n),
        where=lambda rng: str(rng.choice(
            ["", f" where value >= {int(rng.integers(-5, BUCKET + 5))}"]
        )),
    ),
    "delta = 0": dict(left=shared, right=shared, d=0),
    # no candidate pair at all: the counted set is empty and never refined
    "no pair": dict(
        right=lambda rng, pool, n: rng.integers(DOMAIN + 5_000, DOMAIN + 9_000, n)
    ),
    "nothing selected": dict(
        where=lambda rng: f" where value between {DOMAIN + 100} and {DOMAIN + 200}"
    ),
}


def lattice_wave(rng, case: dict) -> list[str]:
    """One statement per join shape, the case's band width and window in
    place of the wave's."""
    sqls = []
    for sql in wave(rng, JOIN_SHAPES, join=True)[: len(JOIN_SHAPES)]:
        if "d" in case:
            sql = re.sub(r"within \d+ of", f"within {case['d']} of", sql)
        if "where" in case:
            sql = re.sub(r" where .*?( group by|$)", case["where"](rng) + r"\1", sql)
        sqls.append(sql)
    return sqls


def rows(rng, n) -> dict:
    return {
        "value": rng.integers(0, DOMAIN, n),
        "bucket": rng.integers(0, N_GROUPS, n),
        "other": rng.integers(-300, 5_000, n),   # 4 residual bits, below zero too
        "flag": rng.integers(0, N_FLAGS, n),
    }


# ----------------------------------------------------------------------
# The two sides
# ----------------------------------------------------------------------
class Oracle:
    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")
        self.db.execute(
            "create table events "
            "(value integer, bucket integer, other integer, flag integer)"
        )
        self.db.execute("create table dim (pivot integer)")
        self.answers: dict[str, list[tuple]] = {}   # asked once per data state

    def insert(self, data: dict, table: str = "events") -> None:
        self.answers.clear()
        marks = ", ".join("?" * len(data))
        self.db.executemany(
            f"insert into {table} values ({marks})",
            zip(*(column.tolist() for column in data.values())),
        )

    def answer(self, sql: str) -> list[tuple]:
        """Rows sorted by key.  Over no row a ``sum`` is 0, as ours; the
        NULL of a ``min`` / ``max`` / ``avg`` stays ``None``."""
        if sql not in self.answers:
            names = select_list(sql)
            ours = re.sub(r"on (\S+) within (\d+) of (\S+)", r"on abs(\1 - \3) <= \2", sql)
            self.answers[sql] = sorted(
                tuple(0 if v is None and name in "st" else v for name, v in zip(names, row))
                for row in self.db.execute(ours).fetchall()
            )
        return self.answers[sql]


def loaded(session, data):
    session.create_table(
        "events",
        {name: IntType() for name in ("value", "bucket", "other", "flag")}, data,
    )
    session.bwdecompose("events", "value", 24)
    session.bwdecompose("events", "bucket", 32)
    session.bwdecompose("events", "other", 28)
    session.bwdecompose("events", "flag", 32)
    return session


def with_dim(session, pivots):
    """The band join's right side — replicated where there are shards."""
    sharded = {"partition": False} if isinstance(session, ShardedSession) else {}
    session.create_table("dim", {"pivot": IntType()}, pivots, **sharded)
    session.bwdecompose("dim", "pivot", 24)
    return session


def select_list(sql: str) -> tuple[str, ...]:
    """Output names in select-list order — sqlite's column order."""
    names = tuple(re.findall(r" as (\w+)", sql))
    keys = re.search(r" group by (.*)$", sql)
    return (*keys.group(1).split(", "), *names) if keys else names


def answer_of(result, sql: str) -> list[tuple]:
    columns = [np.asarray(result.columns[c]).tolist() for c in select_list(sql)]
    return sorted(zip(*columns))


def attempt(produce):
    """The Result, or the engine's refusal of an empty input."""
    try:
        return produce()
    except ExecutionError as exc:
        return exc


def run_executed(session, sqls, mode):
    return [attempt(lambda: session.execute(sql, mode=mode)) for sql in sqls]


def run_served(session, sqls, mode):
    server = session.serve(max_batch=WAVE, optimizer="heuristic")
    handles = [
        server.submit(bind(parse(sql), session.catalog)[0], mode=mode)
        for sql in sqls
    ]
    results = [attempt(h.result) for h in handles]
    if mode == "classic":
        pass  # the baseline runs every query alone
    elif " join " in sqls[0]:
        assert server.stats.shared_right_batches > 0, "one right side, one batch"
    elif isinstance(session, Session) and not session.catalog.tables_with_delta():
        assert server.stats.fused_queries == len(sqls), "the wave did not fuse"
    else:
        # Shards fuse the fragments that meet; over pending delta only the
        # exact avg / min / max leave the batch (no post-hoc fold), on
        # either session type.
        assert server.stats.fused_queries > 0, "nothing fused"
    return results


def same(got, want) -> bool:
    if isinstance(want, float):  # avg: one float64 division on either side
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    return got == want


def check(oracle, sqls, results, mode, where):
    for sql, result in zip(sqls, results):
        want = oracle.answer(sql)
        empty = any(v is None for row in want for v in row)
        if mode != "approximate" and empty:
            assert isinstance(result, EmptyInputError), (where, sql, result)
            continue
        assert not isinstance(result, Exception), (where, sql, result)
        if mode != "approximate":
            got = answer_of(result, sql)
            assert len(got) == len(want) and all(
                same(g, w) for g_row, w_row in zip(got, want)
                for g, w in zip(g_row, w_row)
            ), (where, sql, got, want)
            continue
        if "group by" in sql:
            continue  # per-approximate-group bounds carry no key to join on
        (row,) = want
        for alias, value in zip(select_list(sql), row):
            bound = result.approximate.aggregates[alias]
            assert bound is None or value is None or bound.contains(value), (
                where, sql, bound, value)


ENTRIES = {
    "Session.execute": (Session, run_executed),
    "Session.serve": (Session, run_served),
    "ShardedSession(4).serve": (lambda: ShardedSession(4), run_served),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_windowed_aggregates_against_sqlite(seed, entry):
    make, run = ENTRIES[entry]
    rng = np.random.default_rng(seed)
    base, delta = rows(rng, N_ROWS), rows(rng, N_DELTA)
    oracle = Oracle()
    oracle.insert(base)
    session = loaded(make(), base)

    def phase(name):
        sqls = wave(rng)
        for mode in ("ar", "approximate"):
            check(oracle, sqls, run(session, sqls, mode), mode, (entry, seed, name, mode))

    phase("bulk")
    session.append("events", delta)
    oracle.insert(delta)
    phase("delta in flight")
    session.compact()
    phase("compacted")


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_band_joins_against_sqlite(seed, entry):
    make, run = ENTRIES[entry]
    rng = np.random.default_rng(seed)
    base, delta = rows(rng, N_ROWS), rows(rng, N_DELTA)
    pivots = {"pivot": rng.integers(-BUCKET, DOMAIN + BUCKET, N_DIM)}
    late = {"pivot": rng.integers(0, DOMAIN, N_DIM // 3)}
    oracle = Oracle()
    oracle.insert(base)
    oracle.insert(pivots, "dim")
    session = with_dim(loaded(make(), base), pivots)

    def phase(name):
        sqls = wave(rng, JOIN_SHAPES, join=True)
        for mode in ("ar", "approximate"):
            check(oracle, sqls, run(session, sqls, mode), mode, (entry, seed, name, mode))

    phase("bulk")
    session.append("events", delta)
    oracle.insert(delta)
    phase("delta on events")            # A: delta rows against all of dim
    session.append("dim", late)
    oracle.insert(late, "dim")
    phase("delta on both sides")        # A, and B: base rows against late dim
    session.compact("events")
    phase("delta on dim")               # B alone
    session.compact()
    phase("compacted")


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("name", list(LATTICE))
def test_band_join_lattice_against_sqlite(name, entry, seed=505):
    make, run = ENTRIES[entry]
    case = LATTICE[name]
    rng = np.random.default_rng(seed)
    # a third of the other waves' rows: 256 codes still decide a whole
    # Session's join per code, a shard's 250 rows sweep per row
    base, delta = rows(rng, N_ROWS // 3), rows(rng, N_DELTA // 2)
    pool = rng.integers(0, DOMAIN, 64)
    sides = {"pivot": N_DIM, "late": N_DIM // 3}
    for part in (base, delta):
        if "left" in case:
            part["value"] = case["left"](rng, pool, len(part["value"]))
    draw = case.get("right", lambda rng, pool, n: rng.integers(-BUCKET, DOMAIN + BUCKET, n))
    pivots, late = ({"pivot": draw(rng, pool, n)} for n in sides.values())
    oracle = Oracle()
    oracle.insert(base)
    oracle.insert(pivots, "dim")
    session = with_dim(loaded(make(), base), pivots)

    def phase(where):
        sqls = lattice_wave(rng, case)
        for mode in ("ar", "approximate"):
            check(oracle, sqls, run(session, sqls, mode), mode, (entry, seed, name, where, mode))

    phase("bulk")
    session.append("events", delta)
    oracle.insert(delta)
    session.append("dim", late)
    oracle.insert(late, "dim")
    phase("delta on both sides")


#: D4's empty inputs: each aggregate alone, all together, and grouped ...
EMPTY_SHAPES = [
    "min(value) as lo",
    "max(other) as hi",
    "avg(value) as v",
    "sum(other) as t",
    "count(*) as n",
    "min(other) as lo, max(value) as hi, avg(other) as v, sum(value) as s, count(*) as n",
    "bucket, min(value) as lo, max(other) as hi, avg(value) as v, sum(other) as t, count(*) as n",
]

#: ... over windows no shard has a row for, or only the lowest band's shard
#: — on ``value``, which the bands follow (the other shards are pruned), and
#: on ``other``, which prunes nothing (their fragments run over no row)
EMPTY_WINDOWS = [
    f"value between {DOMAIN + 100} and {DOMAIN + 200}",
    "other > 20000",
    "value < 2000",
    "other >= 8000",
]


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_empty_inputs_across_shards_against_sqlite(entry, seed=606):
    """NULL ⇔ ``EmptyInputError``, ``sum`` / ``count`` of nothing are 0, a
    grouped query over nothing has no rows — on every shard, or on all but
    the one that has the rows."""
    make, run = ENTRIES[entry]
    base = rows(np.random.default_rng(seed), N_ROWS)
    base["other"][base["value"] < 2_000] = 9_000
    oracle = Oracle()
    oracle.insert(base)
    session = loaded(make(), base)
    if isinstance(session, ShardedSession):
        marked = np.flatnonzero(base["value"] < 2_000)
        holders = [
            ids for ids in session.sharded_catalog.row_maps["events"]
            if np.isin(marked, ids).any()
        ]
        assert len(holders) == 1 and len(holders[0]) > len(marked) > 0
    sqls = [
        f"select {shape} from events where {window}{group_by(shape)}"
        for window in EMPTY_WINDOWS for shape in EMPTY_SHAPES
    ]
    for mode in ("ar", "classic"):
        check(oracle, sqls, run(session, sqls, mode), mode, (entry, mode))


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_an_empty_dim_is_refused_by_name(entry):
    """A column of no rows has no decomposition, and a theta join none to
    sweep: both refusals are typed, at every entry, before anything runs."""
    make, run = ENTRIES[entry]
    session = loaded(make(), rows(np.random.default_rng(0), N_ROWS))
    sharded = {"partition": False} if isinstance(session, ShardedSession) else {}
    session.create_table(
        "dim", {"pivot": IntType()}, {"pivot": np.empty(0, dtype=np.int64)}, **sharded
    )
    with pytest.raises(DecompositionError, match="empty column"):
        session.bwdecompose("dim", "pivot", 24)
    sql = "select count(*) as n from events join dim on events.value within 3 of dim.pivot"
    with pytest.raises(PlanError, match="not decomposed"):
        run(session, [sql], "ar")


@pytest.mark.parametrize("sql, why", REGRESSIONS)
def test_regressions(sql, why):
    rng = np.random.default_rng(0)
    base = rows(rng, N_ROWS)
    oracle = Oracle()
    oracle.insert(base)
    pivots = {"pivot": rng.integers(0, DOMAIN, N_DIM)}
    oracle.insert(pivots, "dim")
    for entry, (make, run) in ENTRIES.items():
        session = with_dim(loaded(make(), base), pivots)
        for mode in ("ar", "approximate"):
            check(oracle, [sql] * 2, run(session, [sql] * 2, mode), mode, (entry, why))
