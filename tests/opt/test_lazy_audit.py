"""A cost plan's audit is computed when first read, once, and equals the
one computed eagerly from the same plan and catalog.

``explain_cost_renders.json`` holds ``explain(optimizer="cost")`` of the
queries below as rendered when the audit was still computed at planning
time; the lazy audit must render them byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.opt.cost as opt_cost
import repro.opt.planner as opt_planner
from repro.engine.session import Session
from repro.plan.explain import explain
from repro.plan.physical import ApproxProbeSelect, ApproxScanSelect
from repro.plan.rewriter import rewrite_to_ar_plan
from repro.shard.session import ShardedSession
from repro.storage.column import IntType

DOMAIN = 1 << 20
RENDERS = json.loads(
    (Path(__file__).with_name("explain_cost_renders.json")).read_text()
)


@pytest.fixture(scope="module")
def session():
    # the fixture of test_explain_report.py, value for value
    rng = np.random.default_rng(21)
    s = Session()
    s.create_table(
        "L", {"v": IntType(), "w": IntType()},
        {
            "v": rng.integers(0, DOMAIN, 25_000),
            "w": rng.integers(0, DOMAIN, 25_000),
        },
    )
    s.create_table("R", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, 200)})
    s.bwdecompose("L", "v", 24)
    s.bwdecompose("L", "w", 24)
    s.bwdecompose("R", "v", 24)
    return s


@pytest.fixture(scope="module")
def sharded():
    # the fixture of tests/shard/test_opt_fragments.py
    rng = np.random.default_rng(31)
    s = ShardedSession(4)
    s.create_table(
        "events", {"value": IntType()},
        {"value": rng.integers(0, DOMAIN, 24_000)},
    )
    s.create_table(
        "marks", {"value": IntType()},
        {"value": np.sort(rng.integers(0, DOMAIN, 16))},
        partition=False,
    )
    s.bwdecompose("events", "value", 24)
    s.bwdecompose("marks", "value", 24)
    return s


@pytest.fixture()
def calls(monkeypatch):
    """Count the audit's two computations (plans import them on read)."""
    counts = {"spans": 0, "order": 0}
    spans, order = opt_cost.estimated_plan_spans, opt_planner.scan_order_decision

    def counted_spans(*args, **kwargs):
        counts["spans"] += 1
        return spans(*args, **kwargs)

    def counted_order(*args, **kwargs):
        counts["order"] += 1
        return order(*args, **kwargs)

    monkeypatch.setattr(opt_cost, "estimated_plan_spans", counted_spans)
    monkeypatch.setattr(opt_planner, "scan_order_decision", counted_order)
    return counts


def _two(s):
    return (
        s.table("L")
        .where("v", between=(0, DOMAIN // 2))
        .where("w", between=(0, DOMAIN // 10))
        .count("n")
        .build()
    )


def _theta(s):
    return (
        s.table("L")
        .where("v", between=(0, DOMAIN // 2))
        .theta_join("R", on="v", op="<")
        .count("n")
        .build()
    )


def _drivable(plan):
    return [
        op.predicate for op in plan.ops
        if isinstance(op, (ApproxScanSelect, ApproxProbeSelect))
    ]


@pytest.mark.parametrize("order", ["query", "selectivity"])
def test_two_predicate_audit_is_lazy_once_and_eager_equal(
    session, calls, order
):
    plan = rewrite_to_ar_plan(
        _two(session), session.catalog, predicate_order=order,
        optimizer="cost",
    )
    assert calls == {"spans": 0, "order": 0}
    spans = plan.estimated_spans
    assert calls == {"spans": 1, "order": 0}
    decisions = plan.decisions
    assert calls == {"spans": 1, "order": 1}
    assert plan.estimated_spans is spans and plan.decisions is decisions
    assert calls == {"spans": 1, "order": 1}
    assert spans == opt_cost.estimated_plan_spans(plan, session.catalog)
    assert decisions == [opt_planner.scan_order_decision(
        plan.query, session.catalog, _drivable(plan), order
    )]
    assert decisions[0].chosen == f"{order}-order"


def test_theta_under_where_audit_is_lazy(session, calls):
    plan = rewrite_to_ar_plan(_theta(session), session.catalog, optimizer="cost")
    assert calls == {"spans": 0, "order": 0}
    assert plan.decisions == []  # one producer: nothing to decide
    spans = plan.estimated_spans
    assert plan.estimated_spans is spans
    assert calls == {"spans": 1, "order": 0}
    assert spans == opt_cost.estimated_plan_spans(plan, session.catalog)


def test_heuristic_plan_reads_empty_and_computes_nothing(session, calls):
    plan = rewrite_to_ar_plan(_two(session), session.catalog)
    assert plan.estimated_spans == [] and plan.decisions == []
    assert calls == {"spans": 0, "order": 0}


def test_sharded_plan_audits_its_fragments_on_first_read(sharded, calls):
    query = (
        sharded.table("events").where("value", between=(100_000, 300_000))
        .where("value", between=(150_000, 900_000)).count("n").build()
    )
    plan = sharded.planner.plan(query, optimizer="cost")
    assert calls == {"spans": 0, "order": 0}
    decisions = plan.decisions
    n = len(plan.fragments)
    assert n >= 2 and plan.pruned
    assert calls == {"spans": n, "order": n}
    assert plan.decisions is decisions
    assert calls == {"spans": n, "order": n}
    # fragment-shape first, then that fragment's own decisions
    fragment_owned = [
        (owner, d.kind) for owner, d in decisions if owner is not None
    ]
    assert fragment_owned == [(f.shard_index, "scan-order") for f in plan.fragments]
    assert plan.describe() == RENDERS["sharded_two"]


def test_heuristic_sharded_plan_reads_empty(sharded, calls):
    query = sharded.table("events").where("value", between=(0, 9)).count("n")
    plan = sharded.planner.plan(query.build())
    assert plan.decisions == []
    assert calls == {"spans": 0, "order": 0}


def test_explain_renders_as_when_planned_eagerly(session, sharded):
    assert session.explain(_theta(session), optimizer="cost") == RENDERS["theta"]
    assert session.explain(_two(session), optimizer="cost") == RENDERS["two"]
    plan = rewrite_to_ar_plan(
        _two(session), session.catalog, predicate_order="selectivity",
        optimizer="cost",
    )
    assert explain(plan) == RENDERS["two_selectivity"]
    scan = (
        sharded.table("events").where("value", between=(100_000, 300_000))
        .count("n").build()
    )
    assert sharded.explain(scan, optimizer="cost") == RENDERS["sharded_scan"]
