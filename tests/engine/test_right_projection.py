"""Per-pair projection of right-side theta values (PR 6 satellite).

``agg(f, "right_table.right_column")`` inside a theta block aggregates
the *right* side's value at every qualifying pair.  The A&R path answers
it from run payloads over the exact-sorted right side (count = run
length, sum = prefix-sum difference, min/max = run endpoints) without
materializing pairs; identity against the classic executor and a NumPy
reference over the materialized pair set pins the semantics for every θ,
over a whole column and under a selection.
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.core.theta import Theta, ThetaOp, theta_join_reference
from repro.errors import PlanError

N = 3_000
M = 350
DOMAIN = 25_000
WHERE_MIN = 9_000  # a selection under the join forms the pair rows


def make_session(seed=41):
    rng = np.random.default_rng(seed)
    s = Session()
    s.create_table(
        "f",
        {"a": IntType(), "g": IntType()},
        {
            "a": rng.integers(0, DOMAIN, N),
            "g": rng.integers(0, 8, N),
        },
    )
    s.create_table("q", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, M)})
    s.bwdecompose("f", "a", 24)
    s.bwdecompose("q", "v", 24)
    return s


@pytest.fixture(scope="module")
def session():
    return make_session()


def reference(session, op, delta, grouped, where):
    """NumPy oracle over the fully materialized pair set."""
    a = np.asarray(session.catalog.table("f").values("a"), dtype=np.int64)
    g = np.asarray(session.catalog.table("f").values("g"), dtype=np.int64)
    v = np.asarray(session.catalog.table("q").values("v"), dtype=np.int64)
    pairs = theta_join_reference(a, v, Theta(ThetaOp(op), delta))
    li, ri = pairs.left_positions, pairs.right_positions
    if where:
        keep = a[li] >= WHERE_MIN
        li, ri = li[keep], ri[keep]
    rv = v[ri]
    if not grouped:
        return {
            "rs": np.array([rv.sum()], dtype=np.int64),
            "rlo": np.array([rv.min()], dtype=np.int64),
            "rhi": np.array([rv.max()], dtype=np.int64),
            "ra": np.array([rv.sum() / len(rv)], dtype=np.float64),
            "n": np.array([len(rv)], dtype=np.int64),
        }
    keys = g[li]
    uniq = np.unique(keys)
    out = {"g": uniq}
    out["rs"] = np.array(
        [rv[keys == k].sum() for k in uniq], dtype=np.int64
    )
    out["rlo"] = np.array(
        [rv[keys == k].min() for k in uniq], dtype=np.int64
    )
    out["rhi"] = np.array(
        [rv[keys == k].max() for k in uniq], dtype=np.int64
    )
    out["ra"] = np.array(
        [rv[keys == k].sum() / (keys == k).sum() for k in uniq],
        dtype=np.float64,
    )
    out["n"] = np.array(
        [(keys == k).sum() for k in uniq], dtype=np.int64
    )
    return out


def build(session, op, delta, grouped, where):
    b = session.table("f")
    if where:
        b = b.where("a", ">=", WHERE_MIN)
    b = b.theta_join("q", on=("a", "v"), op=op, delta=delta)
    if grouped:
        b = b.group_by("g")
    return (
        b.agg("sum", "q.v", alias="rs")
        .agg("min", "q.v", alias="rlo")
        .agg("max", "q.v", alias="rhi")
        .agg("avg", "q.v", alias="ra")
        .count(alias="n")
    )


@pytest.mark.parametrize("op,delta", [
    ("<", 0), ("<=", 0), (">", 0), (">=", 0), ("=", 0), ("within", 64),
])
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("where", [False, True], ids=["whole", "where"])
def test_right_side_aggregates(session, op, delta, grouped, where):
    ar = build(session, op, delta, grouped, where).run(mode="ar")
    classic = build(session, op, delta, grouped, where).run(mode="classic")
    ref = reference(session, op, delta, grouped, where)
    for result in (ar, classic):
        assert result.columns.keys() == ref.keys()
        for k in ref:
            assert np.allclose(result.columns[k], ref[k]), (k, op, grouped)
    # ar and classic byte-identical (not just close)
    for k in ar.columns:
        assert np.array_equal(ar.columns[k], classic.columns[k])


def test_mixed_left_and_right_aggregates(session):
    b = (
        session.table("f")
        .theta_join("q", on=("a", "v"), op="<")
        .agg("sum", "a", alias="ls")
        .agg("sum", "q.v", alias="rs")
        .count(alias="n")
    )
    ar = b.run(mode="ar")
    classic = (
        session.table("f")
        .theta_join("q", on=("a", "v"), op="<")
        .agg("sum", "a", alias="ls")
        .agg("sum", "q.v", alias="rs")
        .count(alias="n")
        .run(mode="classic")
    )
    for k in ar.columns:
        assert np.array_equal(ar.columns[k], classic.columns[k])


def test_right_side_must_be_bare_reference(session):
    from repro.plan.expr import ColRef, Const

    with pytest.raises(PlanError, match="bare reference"):
        (
            session.table("f")
            .theta_join("q", on=("a", "v"), op="<")
            .agg("sum", ColRef("q.v") + Const(1), alias="x")
            .build()
        )
