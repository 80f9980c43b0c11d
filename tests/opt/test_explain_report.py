"""Rendering: explain with estimates/decisions, estimated-vs-actual spans,
and loud PlanErrors on cost-model gaps."""

import numpy as np
import pytest

from repro.device.timeline import Timeline
from repro.engine.session import Session
from repro.errors import PlanError
from repro.opt.cost import estimated_plan_spans
from repro.opt.report import estimated_vs_actual
from repro.plan.rewriter import rewrite_to_ar_plan
from repro.storage.column import IntType

DOMAIN = 1 << 20


@pytest.fixture(scope="module")
def session():
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


def _theta_query(session):
    return (
        session.table("L")
        .where("v", between=(0, DOMAIN // 2))
        .theta_join("R", on="v", op="<")
        .count("n")
        .build()
    )


def test_explain_without_optimizer_has_no_estimates(session):
    text = session.explain(_theta_query(session))
    assert "optimizer decisions" not in text
    assert "est" not in text.splitlines()[1]


def test_explain_with_optimizer_shows_estimates(session):
    text = session.explain(_theta_query(session), optimizer="cost")
    # a theta join has one producer: nothing to decide
    assert "optimizer decisions" not in text
    # every operator line carries its estimated item count + est ms
    op_lines = [l for l in text.splitlines()[1:] if l.startswith("  [")]
    assert op_lines
    assert all("items, est" in l for l in op_lines)


def test_scan_order_decision_recorded_for_two_predicates(session):
    q = (
        session.table("L")
        .where("v", between=(0, DOMAIN // 2))
        .where("w", between=(0, DOMAIN // 10))
        .count("n")
        .build()
    )
    text = session.explain(q, optimizer="cost")
    assert "optimizer decisions" in text
    assert "scan-order" in text
    assert "* forced" in text
    assert "rej" in text


def test_estimated_vs_actual_renders_ratio_table(session):
    q = _theta_query(session)
    plan = rewrite_to_ar_plan(q, session.catalog, optimizer="cost")
    timeline = Timeline()
    session.query(q, optimizer="cost", timeline=timeline)
    report = estimated_vs_actual(plan, timeline)
    assert "op" in report and "est" in report and "actual" in report
    assert "thetajoin" in report.lower() or "theta" in report.lower()


def test_estimated_vs_actual_requires_estimates(session):
    plan = rewrite_to_ar_plan(_theta_query(session), session.catalog)
    with pytest.raises(PlanError, match="no estimates"):
        estimated_vs_actual(plan, Timeline())


def test_unknown_operator_is_a_plan_error(session):
    plan = rewrite_to_ar_plan(_theta_query(session), session.catalog)

    class MysteryOp:
        phase = "approximate"

    plan.ops.append(MysteryOp())
    with pytest.raises(PlanError, match="no cost-model rule"):
        estimated_plan_spans(plan, session.catalog)
