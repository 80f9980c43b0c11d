"""``explain`` takes what ``execute`` takes: SQL text or a bound query."""

import numpy as np
import pytest

from repro import IntType, Session
from repro.errors import PlanError, SqlError
from repro.shard import ShardedSession
from repro.sql import bind, parse

SQL = "select sum(w) as s, count(*) as n from fact where v between 100 and 900 and w < 20"


def _fill(session):
    rng = np.random.default_rng(6)
    session.create_table(
        "fact", {"v": IntType(), "w": IntType()},
        {"v": rng.integers(0, 5_000, 2_000), "w": rng.integers(0, 40, 2_000)},
    )
    session.bwdecompose("fact", "v", 24)
    session.bwdecompose("fact", "w", 28)
    return session


@pytest.fixture(params=[Session, lambda: ShardedSession(3)], ids=["solo", "sharded"])
def session(request):
    return _fill(request.param())


@pytest.mark.parametrize("options", [{}, {"pushdown": False}, {"optimizer": "cost"}])
def test_text_and_query_render_the_same_plan(session, options):
    query, _ = bind(parse(SQL), session.catalog)
    from_text = session.explain(SQL, **options)
    assert from_text == session.explain(query, **options)
    assert "v in [100, 900]" in from_text


def test_ddl_has_nothing_to_explain(session):
    with pytest.raises(PlanError, match="nothing to explain"):
        session.explain("select bwdecompose(v, 8) from fact")
    # ... and is not applied on the way
    assert session.catalog.decomposition_of("fact", "v").decomposition.residual_bits == 8


def test_malformed_text_is_a_sql_error(session):
    with pytest.raises(SqlError):
        session.explain("select from where")
