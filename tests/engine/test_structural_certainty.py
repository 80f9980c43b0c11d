"""An exact candidate set is certain throughout, no bound read.

``ArExecutor._certainty`` marks the rows that certainly satisfy every
predicate.  Over a set whose ``exact`` flag holds — every column it touched
has no residual bits — and whose predicates are all decidable on the device,
it marks every row without evaluating a predicate: a drivable predicate's
relaxed code range is then the predicate itself, a payload predicate
(an expression, a dimension column reached through an FK) has already
narrowed the set by its candidate mask, which over degenerate bounds is the
exact mask, and a host predicate's column is no payload yet, so it is not
decidable (``Approximation.exact``).

Hypothesis crosses decompositions with 0 and 4 residual bits on the
predicate columns with conjunctions of drivable, payload and host
predicates and every aggregate, through ``Session.execute``,
``Session.serve`` (a fused wave) and ``ShardedSession(4).serve``; a spy
checks that every marking equals ``pred.certain_mask`` over the formed
bounds.  The approximate answers, results and ledgers of a fixed grid of
the same cases must equal what the parent commit produced:
``data/structural_certainty_golden.json`` holds one digest per case, over
its wave of four queries (run this file as a script with ``PYTHONPATH`` on
the parent's ``src`` to capture again).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import IntType, Session
from repro.engine.ar_executor import ArExecutor
from repro.shard import ShardedSession
from repro.sql import bind, parse

GOLDEN = Path(__file__).parent / "data" / "structural_certainty_golden.json"
N_ROWS = 2_000
N_DIM = 64
JOIN = " join dim on t.fk = dim.key"

#: (name, SQL) per predicate kind; the first drives the scan
DRIVABLE = [
    ("between", "a between 300 and 2900"),
    ("below", "a < 3500"),
]
PAYLOAD = [
    ("none", None),
    ("expr", "b + c < 900"),
    ("ne", "b <> 7"),
    ("dim", "dim.x < 40"),
]
HOST = [("none", None), ("host", "h >= 20")]
AGGREGATES = [
    ("count", "count(*) as n"),
    ("sum", "sum(v) as s, count(*) as n"),
    ("min", "min(v) as lo"),
    ("max", "max(v) as hi"),
    ("avg", "avg(v) as av, sum(b) as sb"),
]
RESIDUALS = [(0, 0), (0, 4), (4, 0), (4, 4)]  # (on a, on b / dim.x)


def table():
    rng = np.random.default_rng(29)
    return {
        "a": rng.integers(0, 4000, N_ROWS),
        "b": rng.integers(0, 600, N_ROWS),
        "c": rng.integers(0, 600, N_ROWS),
        "g": rng.integers(0, 5, N_ROWS),
        "v": rng.integers(-(1 << 20), 1 << 20, N_ROWS),
        "h": rng.integers(0, 100, N_ROWS),
        "fk": rng.integers(0, N_DIM, N_ROWS),
    }


def build(residuals, sharded=False):
    a_bits, b_bits = residuals
    session = ShardedSession(4) if sharded else Session()
    data = table()
    session.create_table(
        "t", {name: IntType(storage_bits=64) for name in data}, data
    )
    dim = {"key": np.arange(N_DIM), "x": np.random.default_rng(30).integers(0, 80, N_DIM)}
    schema = {name: IntType(storage_bits=64) for name in dim}
    if sharded:
        session.create_table("dim", schema, dim, partition=False)
    else:
        session.create_table("dim", schema, dim)
    session.bwdecompose("t", "a", residual_bits=a_bits)
    session.bwdecompose("t", "b", residual_bits=b_bits)
    session.bwdecompose("dim", "x", residual_bits=b_bits)
    for name in ("c", "g", "v", "fk"):
        session.bwdecompose("t", name, residual_bits=0)
    return session  # ``h`` stays host-only


def sql(drivable, payload, host, aggregate, grouped):
    preds = [p for p in (drivable, payload, host) if p is not None]
    group = ("g, ", " group by g") if grouped else ("", "")
    join = JOIN if payload is not None and "dim." in payload else ""
    return (
        f"select {group[0]}{aggregate} from t{join} "
        f"where {' and '.join(preds)}{group[1]}"
    )


def windows(text):
    """The query and three windows beside it on the drivable column: a
    wave that fuses."""
    shifted = [
        text.replace("a between 300 and 2900", f"a between {lo} and {hi}")
        .replace("a < 3500", f"a < {hi}")
        for lo, hi in ((100, 1900), (700, 3300), (50, 2500))
    ]
    return [text, *shifted]


def digest(result) -> str:
    answer = result.approximate
    content = {
        "columns": {
            name: [column.dtype.str, column.tolist()]
            for name, column in result.columns.items()
        },
        "rows": result.row_count,
        "approximate": [
            answer.candidate_rows, answer.n_groups,
            {alias: repr(bound) for alias, bound in answer.aggregates.items()},
        ],
        "spans": [list(span) for span in result.timeline.span_tuples()],
    }
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def run(entry, session, texts):
    """``texts`` through ``Session.execute`` one by one, or served as one
    wave (``"serve"``, ``"sharded"``)."""
    if entry == "execute":
        return [session.execute(t) for t in texts]
    server = session.serve(max_batch=16, optimizer="heuristic")
    handles = [server.submit(bind(parse(t), session.catalog)[0]) for t in texts]
    return [handle.result() for handle in handles]


def grid(sharded=False):
    """The fixed cases the golden covers: every predicate shape, every
    aggregate once (grouped for the odd ones); no FK join for shards,
    which refuse it."""
    for p, (pname, payload) in enumerate(PAYLOAD):
        if sharded and pname == "dim":
            continue
        for h, (hname, host) in enumerate(HOST):
            for k, (aname, aggregate) in enumerate(AGGREGATES):
                dname, drivable = DRIVABLE[(p + h + k) % len(DRIVABLE)]
                grouped = (p + k) % 2 == 1
                name = f"{dname}/{pname}/{hname}/{aname}/{'g' if grouped else '-'}"
                yield name, sql(drivable, payload, host, aggregate, grouped)


def capture() -> dict:
    golden = {}
    for residuals in RESIDUALS:
        for entry in ("execute", "serve", "sharded"):
            session = build(residuals, entry == "sharded")
            for name, text in grid(entry == "sharded"):
                wave = "".join(map(digest, run(entry, session, windows(text))))
                case = f"{name}/{entry}/r{residuals[0]}{residuals[1]}"
                golden[case] = hashlib.sha256(wave.encode()).hexdigest()
    return golden


# ----------------------------------------------------------------------
@pytest.fixture()
def markings(monkeypatch):
    """``(exact set, every predicate decidable)`` of every marking, each
    checked against the predicates' certain masks over formed bounds."""
    seen = []
    certainty = ArExecutor._certainty

    def spy(self, state):
        fresh = state.certain is None
        marked = certainty(self, state)
        if fresh:
            labels = state.candidates.labels
            where = state.query.where
            decidable = all(c in labels for p in where for c in p.columns())
            want = np.full(len(state.candidates), decidable)
            if decidable:
                for pred in where:
                    want &= pred.certain_mask(state.interval_resolver)
            assert np.array_equal(marked, want), state.query
            seen.append((state.candidates.exact, decidable))
        return marked

    monkeypatch.setattr(ArExecutor, "_certainty", spy)
    return seen


SESSIONS: dict = {}


def session_for(residuals, sharded):
    key = (residuals, sharded)
    if key not in SESSIONS:
        SESSIONS[key] = build(residuals, sharded)
    return SESSIONS[key]


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    residuals=st.sampled_from(RESIDUALS),
    drivable=st.sampled_from(DRIVABLE),
    payload=st.sampled_from(PAYLOAD),
    host=st.sampled_from(HOST),
    aggregate=st.sampled_from(AGGREGATES),
    grouped=st.booleans(),
    entry=st.sampled_from(["execute", "serve", "sharded"]),
)
def test_every_marking_equals_the_certain_masks(
    markings, residuals, drivable, payload, host, aggregate, grouped, entry
):
    assume(not (entry == "sharded" and payload[0] == "dim"))
    text = sql(drivable[1], payload[1], host[1], aggregate[1], grouped)
    session = session_for(residuals, entry == "sharded")
    assert len(run(entry, session, windows(text))) == 4


def test_exact_sets_take_the_structural_path(markings):
    """The grid reaches both sides of the rule: exact sets with decidable
    predicates (marked whole, no bound read) and inexact ones."""
    for residuals in ((0, 0), (4, 4)):
        session = session_for(residuals, False)
        for _, text in grid():
            run("execute", session, [text])
    assert (True, True) in markings and (False, True) in markings
    assert (True, False) in markings  # a host predicate: nothing is certain


def test_results_answers_and_ledgers_equal_the_parents():
    golden = json.loads(GOLDEN.read_text())
    got = capture()
    assert sorted(got) == sorted(golden)
    assert [case for case in got if got[case] != golden[case]] == []


if __name__ == "__main__":  # capture the golden: PYTHONPATH=<parent>/src
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
