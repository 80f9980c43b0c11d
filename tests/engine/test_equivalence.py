"""The end-to-end refinement-correctness theorem (DESIGN.md invariant 5).

For generated schemas, decompositions and queries, the A&R engine must
return exactly what the classic full-precision engine returns — and the
approximate answer's bounds must bracket the truth.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Aggregate,
    ColRef,
    Const,
    FkJoin,
    IntType,
    Predicate,
    Query,
    Session,
    ValueRange,
)
from repro.plan.expr import Case


def make_session(seed=0, n=2_000, decompose_bits=(24, 24, 32)):
    session = Session()
    rng = np.random.default_rng(seed)
    session.create_table(
        "fact",
        {
            "a": IntType(), "b": IntType(), "c": IntType(),
            "fk": IntType(), "plain": IntType(),
        },
        {
            "a": rng.integers(0, 4000, n),
            "b": rng.integers(0, 4000, n),
            "c": rng.integers(0, 8, n),
            "fk": rng.integers(0, 32, n),
            "plain": rng.integers(0, 100, n),
        },
    )
    session.create_table(
        "dim",
        {"key": IntType(), "payload": IntType(), "weight": IntType()},
        {
            "key": np.arange(32),
            "payload": rng.integers(0, 500, 32),
            "weight": rng.integers(1, 10, 32),
        },
    )
    bits_a, bits_b, bits_c = decompose_bits
    session.bwdecompose("fact", "a", bits_a)
    session.bwdecompose("fact", "b", bits_b)
    session.bwdecompose("fact", "c", bits_c)
    session.bwdecompose("fact", "fk", 32)
    session.bwdecompose("dim", "payload", 24)
    return session


def assert_equivalent(session, query, sort_keys=None):
    ar = session.query(query, mode="ar")
    classic = session.query(query, mode="classic")
    if sort_keys:
        ar = ar.sorted_by(*sort_keys)
        classic = classic.sorted_by(*sort_keys)
    assert ar.row_count == classic.row_count
    assert set(ar.columns) == set(classic.columns)
    for name in classic.columns:
        a, c = np.asarray(ar.columns[name]), np.asarray(classic.columns[name])
        if a.dtype.kind == "f" or c.dtype.kind == "f":
            assert np.allclose(a, c), name
        else:
            assert np.array_equal(a, c), name
    return ar, classic


class TestSelectionEquivalence:
    def test_single_range(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(1000, 2000)),),
            aggregates=(Aggregate("count", None, "n"),),
        )
        ar, classic = assert_equivalent(session, q)
        bound = ar.approximate.bound("n")
        assert bound.lo <= classic.scalar("n") <= bound.hi

    def test_projection_rows_match(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(0, 500)),),
            select=("a", "b", "plain"),
        )
        ar, classic = assert_equivalent(session, q, sort_keys=["a", "b", "plain"])
        assert ar.row_count > 0

    def test_conjunction_three_columns(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(
                Predicate(ColRef("a"), ValueRange(500, 3000)),
                Predicate(ColRef("b"), ValueRange(None, 2000)),
                Predicate(ColRef("c"), ValueRange(2, 5)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q)

    def test_host_only_predicate(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(
                Predicate(ColRef("a"), ValueRange(0, 2000)),
                Predicate(ColRef("plain"), ValueRange(10, 40)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q)

    def test_negated_predicate(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(
                Predicate(ColRef("c"), ValueRange(3, 3), negated=True),
                Predicate(ColRef("a"), ValueRange(0, 3000)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q)

    def test_expression_predicate(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(
                Predicate(ColRef("a") + ColRef("b"), ValueRange(2000, 5000)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q)

    def test_empty_result(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(10**6, None)),),
            aggregates=(Aggregate("count", None, "n"),),
        )
        ar, classic = assert_equivalent(session, q)
        assert classic.scalar("n") == 0

    @pytest.mark.parametrize("bits", [24, 32])
    def test_ungrouped_aggregates_over_zero_candidates(self, bits):
        """No candidate survives, yet an ungrouped block still has its one row."""
        session = make_session(decompose_bits=(bits, bits, 32))
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(10**6, None)),),
            aggregates=(
                Aggregate("count", None, "n"),
                Aggregate("sum", ColRef("b"), "s"),
            ),
        )
        ar, classic = assert_equivalent(session, q)
        assert ar.approximate.candidate_rows == 0
        assert ar.row_count == 1
        assert (ar.scalar("n"), ar.scalar("s")) == (0, 0)


class TestAggregateEquivalence:
    def test_sum_avg_min_max(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(100, 3500)),),
            aggregates=(
                Aggregate("sum", ColRef("b"), "s"),
                Aggregate("avg", ColRef("b"), "m"),
                Aggregate("min", ColRef("b"), "lo"),
                Aggregate("max", ColRef("b"), "hi"),
                Aggregate("count", None, "n"),
            ),
        )
        ar, classic = assert_equivalent(session, q)
        for alias in ("s", "n"):
            bound = ar.approximate.bound(alias)
            assert bound.lo <= classic.scalar(alias) <= bound.hi

    def test_sum_of_product_expression(self):
        """The destructive-distributivity case (§IV-G)."""
        session = make_session()
        expr = ColRef("a") * (Const(10) - ColRef("c"))
        q = Query(
            table="fact",
            where=(Predicate(ColRef("b"), ValueRange(0, 2000)),),
            aggregates=(Aggregate("sum", expr, "revenue"),),
        )
        ar, classic = assert_equivalent(session, q)
        bound = ar.approximate.bound("revenue")
        assert bound.lo <= classic.scalar("revenue") <= bound.hi
        assert not bound.is_exact  # distributed inputs → uncertain on GPU

    def test_case_expression_aggregate(self):
        """Q14's CASE WHEN shape."""
        session = make_session()
        expr = Case(
            Predicate(ColRef("c"), ValueRange(0, 3)),
            ColRef("a"),
            Const(0),
        )
        q = Query(
            table="fact",
            where=(Predicate(ColRef("b"), ValueRange(500, 3500)),),
            aggregates=(Aggregate("sum", expr, "promo"),),
        )
        assert_equivalent(session, q)

    def test_grouped_aggregates(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(0, 3000)),),
            group_by=("c",),
            aggregates=(
                Aggregate("count", None, "n"),
                Aggregate("sum", ColRef("b"), "s"),
                Aggregate("min", ColRef("b"), "lo"),
            ),
        )
        assert_equivalent(session, q, sort_keys=["c"])

    def test_grouped_by_distributed_column(self):
        """Grouping on a column with residual bits: refinement sub-groups."""
        session = make_session(decompose_bits=(24, 24, 30))  # c gets residual 2
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(0, 3000)),),
            group_by=("c",),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q, sort_keys=["c"])

    def test_group_by_host_only_column(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(0, 2000)),),
            group_by=("plain",),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q, sort_keys=["plain"])


class TestJoinEquivalence:
    def test_fk_join_aggregate(self):
        session = make_session()
        q = Query(
            table="fact",
            joins=(FkJoin("fk", "dim"),),
            where=(Predicate(ColRef("a"), ValueRange(0, 3000)),),
            aggregates=(Aggregate("sum", ColRef("dim.payload"), "s"),),
        )
        assert_equivalent(session, q)

    def test_fk_join_host_only_dim_column(self):
        session = make_session()
        q = Query(
            table="fact",
            joins=(FkJoin("fk", "dim"),),
            where=(Predicate(ColRef("a"), ValueRange(0, 3000)),),
            aggregates=(Aggregate("sum", ColRef("dim.weight"), "s"),),
        )
        assert_equivalent(session, q)

    def test_predicate_on_dim_column(self):
        session = make_session()
        q = Query(
            table="fact",
            joins=(FkJoin("fk", "dim"),),
            where=(
                Predicate(ColRef("a"), ValueRange(0, 3500)),
                Predicate(ColRef("dim.payload"), ValueRange(100, 400)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        assert_equivalent(session, q)


class TestModesAndPushdown:
    def test_approximate_mode_returns_bounds_only(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(Predicate(ColRef("a"), ValueRange(1000, 2500)),),
            aggregates=(Aggregate("count", None, "n"),),
        )
        approx = session.query(q, mode="approximate")
        classic = session.query(q, mode="classic")
        assert approx.columns == {}
        bound = approx.approximate.bound("n")
        assert bound.lo <= classic.scalar("n") <= bound.hi
        # approximate mode never touches the CPU-side refinement
        assert approx.timeline.refine_seconds() == 0.0

    def test_pushdown_off_same_results(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(
                Predicate(ColRef("a"), ValueRange(500, 2500)),
                Predicate(ColRef("b"), ValueRange(0, 2000)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        with_pd = session.query(q, mode="ar", pushdown=True)
        without_pd = session.query(q, mode="ar", pushdown=False)
        assert with_pd.scalar("n") == without_pd.scalar("n")

    def test_pushdown_reduces_bus_time(self):
        session = make_session()
        q = Query(
            table="fact",
            where=(
                Predicate(ColRef("a"), ValueRange(0, 3500)),
                Predicate(ColRef("b"), ValueRange(0, 3500)),
            ),
            aggregates=(Aggregate("count", None, "n"),),
        )
        with_pd = session.query(q, mode="ar", pushdown=True)
        without_pd = session.query(q, mode="ar", pushdown=False)
        assert (
            with_pd.timeline.seconds_by_kind().get("bus", 0)
            < without_pd.timeline.seconds_by_kind().get("bus", 0)
        )

    def test_unknown_mode_rejected(self):
        session = make_session()
        q = Query(table="fact", select=("a",))
        with pytest.raises(Exception):
            session.query(q, mode="warp")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    bits_a=st.integers(20, 32),
    bits_b=st.integers(20, 32),
    lo=st.integers(0, 3000),
    width=st.integers(0, 2500),
    agg=st.sampled_from(["count", "sum", "min", "max", "avg"]),
)
def test_property_ar_equals_classic(seed, bits_a, bits_b, lo, width, agg):
    """Randomized end-to-end equivalence across decompositions and queries."""
    session = make_session(seed=seed, n=600, decompose_bits=(bits_a, bits_b, 32))
    expr = None if agg == "count" else ColRef("b")
    q = Query(
        table="fact",
        where=(
            Predicate(ColRef("a"), ValueRange(lo, lo + width)),
            Predicate(ColRef("c"), ValueRange(1, 6)),
        ),
        aggregates=(Aggregate(agg, expr, "out"),),
    )
    from repro.errors import ExecutionError

    try:
        classic = session.query(q, mode="classic")
    except ExecutionError:
        # min/max/avg over an empty result raise in both engines
        with pytest.raises(ExecutionError):
            session.query(q, mode="ar")
        return
    truth = classic.scalar("out")
    ar = session.query(q, mode="ar")
    if isinstance(truth, float):
        assert ar.scalar("out") == pytest.approx(truth)
    else:
        assert ar.scalar("out") == truth
