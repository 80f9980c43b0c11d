"""Theta pairs counted, formed only when read — end to end.

A ``count(*)`` band join needs only pair *counts*: the approximate side
counts its candidates off the right column's cumulative code counts, the
refinement counts its exact pairs from sorted exact values, and a
``WHERE`` re-check narrows the left rows of a set nobody formed.  Plans
that read pairs — sums over pairs, grouping, right-side sums, row output
— still form the runs.  Either way Results, approximate answers and
modeled ledgers must be what the parent commit produced:
``data/theta_counted_golden.json`` holds one digest per case, captured
there (run this file as a script with ``PYTHONPATH`` on the parent's
``src`` to capture again).

The spies pin the steady state of a count-only band join: no ``argsort``,
no merge rank (``theta._ranks``), no sort permutation built — solo over a
whole left column, and ``ShardedSession(4).serve`` under a ``WHERE`` whose
re-check (``RefinePairSelect``) narrows a counted set.  The pair-reading
twins must still form their runs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import IntType, Session
from repro.core import theta as theta_module
from repro.core.candidates import RunPairCandidates
from repro.engine.ar_executor import ArExecutor
from repro.shard import ShardedSession
from repro.storage.decompose import BwdColumn, set_view_budget

GOLDEN = Path(__file__).parent / "data" / "theta_counted_golden.json"
N_LEFT, N_RIGHT = 4_000, 900
EVICTING = 16 << 10  # bytes: the views of both sides compete

#: (kind, arguments) per case; ``where`` is the left-side window, ``s`` a
#: second left column with residual bits (a drivable ``RefinePairSelect``)
SHAPES = {
    "count": ("count", {"op": "within", "delta": 37}),
    "count_lt": ("count", {"op": "<", "delta": 0}),
    "count_where": ("count", {"op": "within", "delta": 37, "where": (2_000, 9_000)}),
    "count_where_ge": ("count", {"op": ">=", "delta": 0, "where": (500, 3_000)}),
    "count_two_preds": (
        "count", {"op": "within", "delta": 90, "where": (1_000, 12_000), "s": 600},
    ),
    "count_empty": ("count", {"op": "within", "delta": 5, "where": (20_000, 30_000)}),
    "sum": ("sum", {"op": "within", "delta": 37, "where": (2_000, 9_000)}),
    "sum_whole": ("sum", {"op": "=", "delta": 0}),
    "group": ("group", {"op": "within", "delta": 60, "where": (0, 8_000)}),
    "right_sum": ("right_sum", {"op": ">", "delta": 0, "where": (3_000, 7_000)}),
    "rows": ("rows", {"op": "within", "delta": 11, "where": (4_000, 5_000)}),
    "rows_whole": ("rows", {"op": "within", "delta": 3}),
}
#: (left residual bits, session kind, view budget)
CONFIGS = [
    (4, "solo", None),      # 2**10 codes under 4 000 rows: decided per code
    (0, "solo", None),      # 2**14 codes: decided per row
    (4, "solo", EVICTING),
    (4, "serve", None),
    (4, "sharded", None),
    (0, "sharded", None),
]


@pytest.fixture(autouse=True)
def unbounded_after():
    yield
    set_view_budget(None)


def tables() -> dict:
    rng = np.random.default_rng(32)
    return {
        "l": {
            "v": np.r_[0, (1 << 14) - 1, rng.integers(0, 1 << 14, N_LEFT - 2)],
            "s": rng.integers(0, 1 << 10, N_LEFT),
            "g": rng.integers(0, 5, N_LEFT),
        },
        "r": {"v": rng.integers(0, 1 << 14, N_RIGHT)},
    }


def build(residual: int, kind: str, budget: int | None):
    session = ShardedSession(4) if kind == "sharded" else Session()
    data = tables()
    session.create_table(
        "l", {name: IntType() for name in data["l"]}, data["l"]
    )
    if kind == "sharded":
        session.create_table(
            "r", {"v": IntType()}, data["r"], partition=False
        )
    else:
        session.create_table("r", {"v": IntType()}, data["r"])
    session.bwdecompose("l", "v", residual_bits=residual)
    session.bwdecompose("l", "s", residual_bits=3)
    session.bwdecompose("l", "g", residual_bits=0)
    session.bwdecompose("r", "v", residual_bits=3)
    session.set_view_budget(budget)
    return session


def builder(session, shape: str):
    kind, args = SHAPES[shape]
    b = session.table("l")
    if "where" in args:
        b = b.where("v", between=args["where"])
    if "s" in args:
        b = b.where("s", "<", args["s"])
    b = b.theta_join("r", on="v", op=args["op"], delta=args["delta"])
    if kind == "count":
        return b.count(alias="n")
    if kind == "sum":
        return b.agg("sum", "v", alias="sv").count(alias="n")
    if kind == "group":
        return b.group_by("g").agg("sum", "s", alias="ss").count(alias="n")
    if kind == "right_sum":
        return b.agg("sum", "r.v", alias="rs").count(alias="n")
    return b


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


def run_all(session, kind: str, mode: str, shapes) -> list:
    if kind == "solo":
        return [builder(session, s).run(mode=mode) for s in shapes]
    with session.serve() as server:
        handles = [builder(session, s).submit(server, mode=mode) for s in shapes]
        return [h.result() for h in handles]


def _shapes_for(kind: str) -> list[str]:
    # sharded execution aggregates; a bare pair list stays solo / served
    if kind == "sharded":
        return [s for s in SHAPES if SHAPES[s][0] != "rows"]
    return list(SHAPES)


def capture() -> dict:
    golden = {}
    for residual, kind, budget in CONFIGS:
        session = build(residual, kind, budget)
        shapes = _shapes_for(kind)
        for mode in ("ar", "approximate"):
            for name, result in zip(shapes, run_all(session, kind, mode, shapes)):
                case = (
                    f"{name}/{mode}/r{residual}/{kind}/"
                    f"{'evicting' if budget else 'resident'}"
                )
                golden[case] = digest(result)
        set_view_budget(None)
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "residual,kind,budget", CONFIGS,
    ids=[f"r{r}-{k}-{'evicting' if b else 'resident'}" for r, k, b in CONFIGS],
)
def test_results_and_ledgers_equal_the_parents(golden, residual, kind, budget):
    session = build(residual, kind, budget)
    shapes = _shapes_for(kind)
    for mode in ("ar", "approximate"):
        for name, result in zip(shapes, run_all(session, kind, mode, shapes)):
            case = (
                f"{name}/{mode}/r{residual}/{kind}/"
                f"{'evicting' if budget else 'resident'}"
            )
            assert digest(result) == golden[case], case


# ----------------------------------------------------------------------
# spies: what a count-only band join does not do at steady state
# ----------------------------------------------------------------------
class _Spy:
    """Counts argsorts, merge ranks, permutations built and runs formed."""

    def __init__(self, monkeypatch) -> None:
        self.argsorts = self.ranks = self.formed = 0
        self.permutations: list[str] = []
        argsort, ranks = np.argsort, theta_module._ranks
        seed, read = BwdColumn._seed, RunPairCandidates._read

        def spy_argsort(*args, **kwargs):
            self.argsorts += 1
            return argsort(*args, **kwargs)

        def spy_ranks(*args, **kwargs):
            self.ranks += 1
            return ranks(*args, **kwargs)

        def spy_seed(column, attr, view):
            if attr.startswith("_perm"):
                self.permutations.append(attr)
            return seed(column, attr, view)

        def spy_read(pairs):
            self.formed += 1
            return read(pairs)

        monkeypatch.setattr(np, "argsort", spy_argsort)
        monkeypatch.setattr(theta_module, "_ranks", spy_ranks)
        monkeypatch.setattr(BwdColumn, "_seed", spy_seed)
        monkeypatch.setattr(RunPairCandidates, "_read", spy_read)

    def quiet(self) -> bool:
        return not (self.argsorts or self.ranks or self.permutations or self.formed)


def test_a_solo_whole_column_count_sorts_nothing(monkeypatch, golden):
    session = build(4, "solo", None)
    for shape in ("count", "count_lt"):
        builder(session, shape).run()  # warm: views fill
    spy = _Spy(monkeypatch)
    results = [builder(session, s).run() for s in ("count", "count_lt")]
    assert spy.quiet(), vars(spy)
    for shape, result in zip(("count", "count_lt"), results):
        assert digest(result) == golden[f"{shape}/ar/r4/solo/resident"]


@pytest.mark.parametrize("residual", [4, 0])
def test_a_sharded_served_count_under_a_where_sorts_nothing(
    monkeypatch, golden, residual
):
    """One relaxed scan under the join (a probe behind it would put its
    survivors in scatter order by an argsort of its own); with residual
    bits on the join column the plan re-checks its predicate on the host."""
    session = build(residual, "sharded", None)
    shapes = ["count_where", "count_where_ge"]
    run_all(session, "sharded", "ar", shapes)  # warm: views fill
    spy = _Spy(monkeypatch)
    rechecks, recheck = [], ArExecutor._refine_pair_select

    def spy_recheck(self, pred, state):
        rechecks.append(pred)
        return recheck(self, pred, state)

    monkeypatch.setattr(ArExecutor, "_refine_pair_select", spy_recheck)
    results = run_all(session, "sharded", "ar", shapes)
    assert spy.quiet(), vars(spy)
    assert bool(rechecks) == bool(residual)
    for shape, result in zip(shapes, results):
        assert digest(result) == golden[f"{shape}/ar/r{residual}/sharded/resident"]


@pytest.mark.parametrize("kind", ["solo", "sharded"])
def test_pair_reading_twins_still_form_their_runs(monkeypatch, golden, kind):
    session = build(4, kind, None)
    shapes = ["sum", "group", "right_sum"] + (["rows"] if kind == "solo" else [])
    run_all(session, kind, "ar", shapes)
    spy = _Spy(monkeypatch)
    results = run_all(session, kind, "ar", shapes)
    assert spy.formed >= len(shapes)
    for shape, result in zip(shapes, results):
        assert digest(result) == golden[f"{shape}/ar/r4/{kind}/resident"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
