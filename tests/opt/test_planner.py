"""The optimizer values every entry point accepts, and the serve gate."""

import numpy as np
import pytest

from repro.engine.session import Session
from repro.errors import PlanError
from repro.opt.planner import (
    OPTIMIZERS,
    batch_membership_decision,
    check_optimizer,
)
from repro.shard.session import ShardedSession
from repro.storage.column import IntType

DOMAIN = 1 << 20


def _load(s):
    rng = np.random.default_rng(5)
    s.create_table("L", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, 2_000)})
    s.bwdecompose("L", "v", 24)
    return s


@pytest.fixture(scope="module")
def session():
    return _load(Session())


@pytest.fixture(scope="module")
def sharded():
    return _load(ShardedSession(2))


def _query(s):
    return s.table("L").where("v", "<=", DOMAIN // 3).count("n")


#: name -> call one entry point with ``optimizer``
ENTRY_POINTS = {
    "Session.query": lambda s, z, o: s.query(_query(s).build(), optimizer=o),
    "Session.plan_for": lambda s, z, o: s.plan_for(_query(s).build(), optimizer=o),
    "Session.explain": lambda s, z, o: s.explain(_query(s).build(), optimizer=o),
    "Session.serve": lambda s, z, o: s.serve(optimizer=o).close(),
    "RelationBuilder.run": lambda s, z, o: _query(s).run(optimizer=o),
    "ShardedSession.query": lambda s, z, o: z.query(
        _query(z).build(), optimizer=o
    ),
}


def test_check_optimizer_rejects_unknown():
    assert check_optimizer("cost") == "cost"
    with pytest.raises(PlanError, match="unknown optimizer"):
        check_optimizer("greedy")
    assert set(OPTIMIZERS) == {"heuristic", "cost"}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_accepts_exactly_the_optimizers(
    session, sharded, entry
):
    call = ENTRY_POINTS[entry]
    for optimizer in OPTIMIZERS:
        call(session, sharded, optimizer)
    for optimizer in ("auto", "greedy"):
        with pytest.raises(PlanError, match="unknown optimizer"):
            call(session, sharded, optimizer)


def test_batch_membership_flips_with_selectivity():
    n = 1_000_000
    narrow = batch_membership_decision("t", "c", n, [1000] * 8)
    wide = batch_membership_decision("t", "c", n, [600_000] * 8)
    assert narrow.chosen == "fused"
    assert wide.chosen == "solo"
    assert {a.label for a in narrow.alternatives} == {"fused", "solo"}


def test_decision_describe_marks_winner_and_rejects():
    decision = batch_membership_decision("t", "c", 1_000_000, [1000] * 8)
    text = "\n".join(decision.describe())
    assert "* chosen" in text
    assert "rej" in text
    assert "est" in text
