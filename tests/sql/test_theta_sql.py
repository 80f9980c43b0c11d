"""SQL front-end coverage for theta/band joins (PR 4).

``JOIN t ON a <op> b`` and ``JOIN t ON a WITHIN d OF b`` flow through
lexer → parser → binder → plan → all three execution modes; the equality
form falls back from the FK join to a theta join when the right-side key is
not dense.
"""

import numpy as np
import pytest

from repro.core.candidates import PairCandidates
from repro.core.theta import Theta, ThetaOp, theta_join_reference
from repro.engine.session import Session
from repro.errors import SqlError, SqlSyntaxError
from repro.plan.logical import ThetaJoin
from repro.sql import bind, parse
from repro.sql.ast import JoinClause, ThetaJoinClause
from repro.storage.column import DecimalType, IntType


@pytest.fixture()
def session():
    s = Session()
    rng = np.random.default_rng(5)
    s.create_table(
        "orders",
        {"price": IntType(), "qty": IntType()},
        {
            "price": rng.integers(0, 4000, 600),
            "qty": rng.integers(0, 8, 600),
        },
    )
    s.create_table(
        "quotes", {"price": IntType()}, {"price": rng.integers(0, 4000, 200)}
    )
    s.bwdecompose("orders", "price", residual_bits=4)
    s.bwdecompose("quotes", "price", residual_bits=4)
    return s


class TestParser:
    def test_within_of_parses_to_theta_clause(self):
        stmt = parse(
            "select count(*) as n from orders "
            "join quotes on orders.price within 25 of quotes.price"
        )
        assert stmt.joins == (
            ThetaJoinClause(
                table="quotes", left="orders.price", op="within",
                right="quotes.price", delta_text="25",
            ),
        )

    def test_inequality_parses_and_normalizes_sides(self):
        stmt = parse(
            "select count(*) as n from orders "
            "join quotes on quotes.price < orders.price"
        )
        # quotes.price < orders.price  ⇔  orders.price > quotes.price
        assert stmt.joins == (
            ThetaJoinClause(
                table="quotes", left="orders.price", op=">",
                right="quotes.price",
            ),
        )

    def test_equality_still_parses_as_join_clause(self):
        stmt = parse(
            "select count(*) as n from orders join dim on orders.fk = dim.id"
        )
        assert stmt.joins == (
            JoinClause(dim_table="dim", fk_column="orders.fk", dim_key="id"),
        )

    def test_within_requires_of(self):
        with pytest.raises(SqlSyntaxError):
            parse(
                "select count(*) from orders "
                "join quotes on orders.price within 25 quotes.price"
            )

    def test_theta_must_reference_joined_table_once(self):
        with pytest.raises(SqlSyntaxError):
            parse(
                "select count(*) from orders "
                "join quotes on orders.price < orders.qty"
            )

    def test_unsupported_join_comparison(self):
        with pytest.raises(SqlSyntaxError):
            parse(
                "select count(*) from orders "
                "join quotes on orders.price <> quotes.price"
            )


class TestBinder:
    def test_binds_theta_join_node(self, session):
        stmt = parse(
            "select count(*) as n from orders "
            "join quotes on orders.price within 25 of quotes.price"
        )
        query, _ = bind(stmt, session.catalog)
        assert query.theta_joins == (
            ThetaJoin("price", "quotes", "price", "within", 25),
        )

    def test_non_dense_equality_falls_back_to_theta(self, session):
        """``ON a = b`` against a non-key column is a theta equality join,
        not an error — the join algebra is closed."""
        stmt = parse(
            "select count(*) as n from orders "
            "join quotes on orders.price = quotes.price"
        )
        query, _ = bind(stmt, session.catalog)
        assert query.joins == ()
        assert query.theta_joins == (
            ThetaJoin("price", "quotes", "price", "="),
        )

    def test_delta_rescales_to_decimal_columns(self):
        s = Session()
        s.create_table(
            "l", {"v": DecimalType(12, 2)}, {"v": [1.00, 2.50, 10.00]}
        )
        s.create_table(
            "r", {"v": DecimalType(12, 2)}, {"v": [1.20, 7.00]}
        )
        stmt = parse(
            "select count(*) as n from l join r on l.v within 0.25 of r.v"
        )
        query, _ = bind(stmt, s.catalog)
        assert query.theta_joins[0].delta == 25  # scaled integer domain

    def test_scale_mismatch_rejected(self):
        s = Session()
        s.create_table("l", {"v": DecimalType(12, 2)}, {"v": [1.00]})
        s.create_table("r", {"v": IntType()}, {"v": [1]})
        stmt = parse("select count(*) as n from l join r on l.v < r.v")
        with pytest.raises(SqlError):
            bind(stmt, s.catalog)

    def test_right_side_column_references_rejected(self, session):
        stmt = parse(
            "select count(*) as n from orders "
            "join quotes on orders.price < quotes.price "
            "where quotes.price <= 10"
        )
        with pytest.raises(SqlError):
            bind(stmt, session.catalog)

    def test_unknown_columns_rejected(self, session):
        stmt = parse(
            "select count(*) as n from orders "
            "join quotes on orders.nope < quotes.price"
        )
        with pytest.raises(SqlError):
            bind(stmt, session.catalog)


class TestEndToEnd:
    SQL = (
        "select qty, count(*) as n, sum(price) as total from orders "
        "join quotes on orders.price within 30 of quotes.price "
        "where price between 300 and 3500 group by qty"
    )

    def oracle(self, session):
        left = session.catalog.table("orders").values("price")
        right = session.catalog.table("quotes").values("price")
        qty = session.catalog.table("orders").values("qty")
        pairs = theta_join_reference(left, right, Theta(ThetaOp.WITHIN, 30))
        keep = (left[pairs.left_positions] >= 300) & (
            left[pairs.left_positions] <= 3500
        )
        pairs = PairCandidates(
            pairs.left_positions[keep], pairs.right_positions[keep]
        )
        return left, qty, pairs

    def test_sql_three_mode_round_trip(self, session):
        """Band join + selection + grouped aggregate: ar == classic, both
        match the brute-force oracle; approximate mode runs free."""
        ar = session.execute(self.SQL, mode="ar").sorted_by("qty")
        classic = session.execute(self.SQL, mode="classic").sorted_by("qty")
        for col in ("qty", "n", "total"):
            assert np.array_equal(ar.column(col), classic.column(col)), col

        left, qty, pairs = self.oracle(session)
        pair_qty = qty[pairs.left_positions]
        pair_price = left[pairs.left_positions]
        keys = np.unique(pair_qty)
        assert np.array_equal(ar.column("qty"), keys)
        for i, key in enumerate(keys):
            sel = pair_qty == key
            assert ar.column("n")[i] == int(sel.sum())
            assert ar.column("total")[i] == int(pair_price[sel].sum())

        approx = session.execute(self.SQL, mode="approximate")
        assert approx.approximate.candidate_rows >= len(pairs)

    def test_sql_matches_builder(self, session):
        """The SQL text and the fluent builder express the same block."""
        sql_result = session.execute(self.SQL, mode="ar").sorted_by("qty")
        built = (
            session.table("orders")
            .where("price", between=(300, 3500))
            .band_join("quotes", on="price", delta=30)
            .group_by("qty")
            .count("n")
            .sum("price", "total")
            .run(mode="ar")
            .sorted_by("qty")
        )
        for col in ("qty", "n", "total"):
            assert np.array_equal(sql_result.column(col), built.column(col))

    def test_explain_renders_theta_operators(self, session):
        stmt = parse(self.SQL)
        query, _ = bind(stmt, session.catalog)
        text = session.explain(query)
        assert "bwd.thetajoinapproximate" in text
        assert "bwd.ship(pairs)" in text
        assert "bwd.thetajoinrefine" in text
        assert "PCI-E" in text
