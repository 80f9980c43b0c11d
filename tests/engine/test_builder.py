"""The lazy relational builder API and the theta-join plan path.

Covers the PR-4 redesign: theta/band joins as first-class plan nodes behind
``session.table(...)``, three-mode agreement against the nested-loop
oracle, and the aggregate-only fast path that never materializes a pair.
"""

import numpy as np
import pytest

from repro.core import theta as theta_module
from repro.core.candidates import PairCandidates, RunPairCandidates
from repro.core.theta import Theta, ThetaOp, theta_join_reference
from repro.engine.builder import RelationBuilder
from repro.engine.session import Session
from repro.errors import PlanError
from repro.plan.logical import Aggregate, Query, ThetaJoin
from repro.storage.column import IntType

ALL_OPS = [("<", 0), ("<=", 0), (">", 0), (">=", 0), ("=", 0), ("within", 25)]


def spans_of(timeline):
    return [
        (s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase)
        for s in timeline.spans
    ]


@pytest.fixture()
def session():
    s = Session()
    rng = np.random.default_rng(11)
    s.create_table(
        "orders",
        {"price": IntType(), "qty": IntType(), "region": IntType()},
        {
            "price": rng.integers(0, 5000, 700),
            "qty": rng.integers(0, 9, 700),
            "region": rng.integers(0, 4, 700),
        },
    )
    s.create_table(
        "quotes", {"price": IntType()}, {"price": rng.integers(0, 5000, 250)}
    )
    s.bwdecompose("orders", "price", residual_bits=4)
    s.bwdecompose("quotes", "price", residual_bits=4)
    return s


def oracle_pairs(session, op, delta, left_mask=None):
    left_v = session.catalog.table("orders").values("price")
    right_v = session.catalog.table("quotes").values("price")
    truth = theta_join_reference(left_v, right_v, Theta(ThetaOp(op), delta))
    if left_mask is not None:
        keep = left_mask[truth.left_positions]
        truth = PairCandidates(
            truth.left_positions[keep], truth.right_positions[keep]
        )
    return truth.canonicalized()


class TestBuilderConstruction:
    def test_builds_the_equivalent_logical_query(self, session):
        built = (
            session.table("orders")
            .where("price", between=(100, 2000))
            .band_join("quotes", on="price", delta=25)
            .group_by("qty")
            .count("n")
            .build()
        )
        assert isinstance(built, Query)
        assert built.table == "orders"
        assert built.group_by == ("qty",)
        assert built.aggregates == (Aggregate("count", None, "n"),)
        assert built.theta_joins == (
            ThetaJoin("price", "quotes", "price", "within", 25),
        )

    def test_builder_is_immutable_and_lazy(self, session):
        base = session.table("orders").band_join("quotes", on="price", delta=5)
        with_count = base.count("n")
        assert isinstance(base, RelationBuilder)
        assert base is not with_count
        assert base.build().aggregates == ()
        assert with_count.build().aggregates != ()

    def test_builder_matches_plain_query_path(self, session):
        """Non-theta blocks built here are the same Query objects as before."""
        built = (
            session.table("orders")
            .where("price", "<=", 2500)
            .group_by("region")
            .count("n")
            .sum("price", "total")
            .run(mode="classic")
            .sorted_by("region")
        )
        from repro.plan.expr import ColRef, Predicate
        from repro.core.relax import ValueRange

        query = Query(
            table="orders",
            where=(Predicate(ColRef("price"), ValueRange(None, 2500)),),
            group_by=("region",),
            aggregates=(
                Aggregate("count", None, "n"),
                Aggregate("sum", ColRef("price"), "total"),
            ),
        )
        direct = session.query(query, mode="classic").sorted_by("region")
        for col in ("region", "n", "total"):
            assert np.array_equal(built.column(col), direct.column(col))

    def test_unknown_table_fails_fast(self, session):
        with pytest.raises(Exception):
            session.table("nope")

    def test_where_sugar_forms(self, session):
        ne = session.table("orders").where("qty", "<>", 3).select("qty").build()
        assert ne.where[0].negated
        with pytest.raises(PlanError):
            session.table("orders").where("qty")
        with pytest.raises(PlanError):
            session.table("orders").where("qty", "<", 3, between=(1, 2))


class TestThetaViaBuilder:
    @pytest.mark.parametrize("op,delta", ALL_OPS)
    def test_bare_join_matches_oracle(self, session, op, delta):
        result = (
            session.table("orders")
            .theta_join("quotes", on="price", op=op, delta=delta)
            .run(mode="ar")
        )
        truth = oracle_pairs(session, op, delta)
        assert result.row_count == len(truth)
        assert np.array_equal(result.column("left_pos"), truth.left_positions)
        assert np.array_equal(result.column("right_pos"), truth.right_positions)

    @pytest.mark.parametrize("mode", ["ar", "classic"])
    def test_selection_under_join_count_on_top(self, session, mode):
        """The workload class the old API could not express (§IV-D + SPJA)."""
        result = (
            session.table("orders")
            .where("price", between=(500, 4000))
            .band_join("quotes", on="price", delta=40)
            .count("n")
            .run(mode=mode)
        )
        left_v = session.catalog.table("orders").values("price")
        mask = (left_v >= 500) & (left_v <= 4000)
        truth = oracle_pairs(session, "within", 40, left_mask=mask)
        assert result.scalar("n") == len(truth)
        assert result.row_count == 1

    @pytest.mark.parametrize("op,delta", ALL_OPS)
    def test_three_modes_agree_with_grouped_aggregates(self, session, op, delta):
        """SQL-shaped block: selection + theta join + grouped aggregates,
        ``ar`` and ``classic`` identical, checked against the oracle."""
        builder = (
            session.table("orders")
            .where("price", ">=", 200)
            .theta_join("quotes", on="price", op=op, delta=delta)
            .group_by("qty")
            .count("n")
            .sum("price", "total")
        )
        ar = builder.run(mode="ar").sorted_by("qty")
        classic = builder.run(mode="classic").sorted_by("qty")
        for col in ("qty", "n", "total"):
            assert np.array_equal(ar.column(col), classic.column(col)), col

        left_v = session.catalog.table("orders").values("price")
        qty = session.catalog.table("orders").values("qty")
        mask = left_v >= 200
        truth = oracle_pairs(session, op, delta, left_mask=mask)
        pair_qty = qty[truth.left_positions]
        pair_price = left_v[truth.left_positions]
        expect_keys = np.unique(pair_qty)
        assert np.array_equal(ar.column("qty"), expect_keys)
        for i, key in enumerate(expect_keys):
            pair_sel = pair_qty == key
            assert ar.column("n")[i] == int(pair_sel.sum())
            assert ar.column("total")[i] == int(pair_price[pair_sel].sum())

        # The free approximate answer still runs and stays sound.
        approx = builder.run(mode="approximate")
        assert approx.approximate.candidate_rows >= len(truth)

    @pytest.mark.parametrize("where", [False, True], ids=["whole", "where"])
    def test_aggregate_charges_independent_of_left_sweep(
        self, session, monkeypatch, where
    ):
        """Sweeping the left side per distinct code or per row is a pure
        simulation choice for aggregated theta blocks too: identical result
        columns AND byte-identical modeled Timelines — every refine-phase
        pair charge is a function of pair counts."""
        results = []
        for per_code in (True, False):
            monkeypatch.setattr(
                theta_module, "_per_code", lambda column, n_rows: per_code
            )
            builder = session.table("orders")
            if where:
                builder = builder.where("price", ">=", 200)
            results.append(
                builder.band_join("quotes", on="price", delta=25)
                .group_by("qty")
                .count("n")
                .sum("price", "total")
                .run(mode="ar")
            )
        a, b = results
        for col in ("qty", "n", "total"):
            assert np.array_equal(a.column(col), b.column(col))
        assert spans_of(a.timeline) == spans_of(b.timeline)

    def test_min_max_avg_over_pairs(self, session):
        builder = (
            session.table("orders")
            .band_join("quotes", on="price", delta=30)
            .min("price", "lo")
            .max("price", "hi")
            .avg("price", "mean")
        )
        ar = builder.run(mode="ar")
        classic = builder.run(mode="classic")
        truth = oracle_pairs(session, "within", 30)
        left_v = session.catalog.table("orders").values("price")
        pair_price = left_v[truth.left_positions]
        assert ar.scalar("lo") == classic.scalar("lo") == int(pair_price.min())
        assert ar.scalar("hi") == classic.scalar("hi") == int(pair_price.max())
        expect_mean = pair_price.sum() / len(pair_price)
        assert ar.scalar("mean") == classic.scalar("mean")
        assert ar.scalar("mean") == pytest.approx(expect_mean)

    def test_host_only_predicate_under_join(self, session):
        """A predicate on a non-decomposed column refines pair-side."""
        builder = (
            session.table("orders")
            .where("qty", "<>", 0)
            .band_join("quotes", on="price", delta=25)
            .count("n")
        )
        ar = builder.run(mode="ar")
        classic = builder.run(mode="classic")
        qty = session.catalog.table("orders").values("qty")
        truth = oracle_pairs(session, "within", 25, left_mask=qty != 0)
        assert ar.scalar("n") == classic.scalar("n") == len(truth)

    def test_empty_selection_yields_zero_count(self, session):
        builder = (
            session.table("orders")
            .where("price", between=(4900, 4901))
            .where("price", between=(1, 2))  # contradictory
            .band_join("quotes", on="price", delta=25)
            .count("n")
        )
        assert builder.run(mode="ar").scalar("n") == 0
        assert builder.run(mode="classic").scalar("n") == 0

    def test_approximate_count_bounds_contain_exact(self, session):
        builder = (
            session.table("orders")
            .band_join("quotes", on="price", delta=25)
            .count("n")
        )
        approx = builder.run(mode="approximate")
        exact = builder.run(mode="ar").scalar("n")
        bound = approx.approximate.bound("n")
        assert bound.lo <= exact <= bound.hi


class TestAggregateOnlyFastPath:
    def test_count_never_materializes_pairs(self, session, monkeypatch):
        """ROADMAP follow-on: run-length results survive past refinement for
        aggregate-only consumers — no per-pair array is ever allocated."""

        def boom(self):  # pragma: no cover - the assertion is "not called"
            raise AssertionError(
                "aggregate-only theta query materialized its pairs"
            )

        monkeypatch.setattr(RunPairCandidates, "materialized", boom)
        result = (
            session.table("orders")
            .where("price", ">=", 100)
            .band_join("quotes", on="price", delta=25)
            .group_by("qty")
            .count("n")
            .run(mode="ar")
        )
        assert int(result.column("n").sum()) > 0

    def test_bare_join_does_materialize(self, session, monkeypatch):
        """Sanity for the test above: pair *output* queries must hit the
        single materialization point."""
        calls = []
        original = RunPairCandidates.materialized

        def spy(self):
            calls.append(len(self))
            return original(self)

        monkeypatch.setattr(RunPairCandidates, "materialized", spy)
        session.table("orders").band_join(
            "quotes", on="price", delta=25
        ).run(mode="ar")
        assert len(calls) == 1


#: plan shape -> (build on ``orders``, mode, pair sets that come back
#: counted, pair sets that must form their per-row runs).  The join, a
#: ``WHERE`` re-check and the refinement each hand back a counted set; only
#: an operator reading pairs forms one — the refined set, whose whole-column
#: runs are formed from the column's own exact order, not the candidates'.
COUNTED_PLANS = {
    "count, ar": (
        lambda t: t.band_join("quotes", on="price", delta=25).count("n"),
        "ar", 2, 0,
    ),
    "count, approximate": (
        lambda t: t.band_join("quotes", on="price", delta=25).count("n"),
        "approximate", 1, 0,
    ),
    "grouped count": (
        lambda t: t.band_join("quotes", on="price", delta=25)
        .group_by("qty").count("n"),
        "ar", 2, 1,
    ),
    "right-side sum": (
        lambda t: t.band_join("quotes", on="price", delta=25)
        .agg("sum", "quotes.price", alias="s"),
        "ar", 2, 1,
    ),
    "bare join": (
        lambda t: t.band_join("quotes", on="price", delta=25), "ar", 2, 1,
    ),
    "join under WHERE": (
        lambda t: t.where("price", ">=", 100)
        .band_join("quotes", on="price", delta=25).count("n"),
        "ar", 3, 0,  # RefinePairSelect narrows the counted set's rows
    ),
    "sum under WHERE": (
        lambda t: t.where("price", ">=", 100)
        .band_join("quotes", on="price", delta=25).agg("sum", "qty", alias="s"),
        "ar", 3, 2,  # the refined set forms, and through it the candidates
    ),
}


class TestCountedFirst:
    """Candidate and refined pairs come back counted; their per-row runs
    form only if an operator reads one — and no reader can tell: Result,
    approximate answer and ledger are the same whether the candidates were
    decided per distinct code or per row."""

    @pytest.mark.parametrize("shape", list(COUNTED_PLANS))
    def test_runs_form_iff_a_row_is_read(self, session, monkeypatch, shape):
        build, mode, n_deferred, n_formed = COUNTED_PLANS[shape]
        formed = []
        original = RunPairCandidates._read

        def spy(self):
            formed.append(len(self))
            return original(self)

        def counting(*args, **kwargs):
            deferred.append(args[0])
            return make(*args, **kwargs)

        deferred, make = [], RunPairCandidates.deferred
        monkeypatch.setattr(RunPairCandidates, "_read", spy)
        monkeypatch.setattr(RunPairCandidates, "deferred", counting)
        counted = build(session.table("orders")).run(mode=mode)
        assert len(deferred) == n_deferred
        assert len(formed) == n_formed

        monkeypatch.setattr(
            "repro.core.theta._per_code", lambda column, n_rows: False
        )
        swept = build(session.table("orders")).run(mode=mode)
        assert len(deferred) == 2 * n_deferred and len(formed) == 2 * n_formed
        assert counted.columns.keys() == swept.columns.keys()
        for name in counted.columns:
            assert np.array_equal(counted.columns[name], swept.columns[name])
        assert counted.row_count == swept.row_count
        assert counted.approximate == swept.approximate
        assert counted.timeline.span_tuples() == swept.timeline.span_tuples()


class TestThetaQueryValidation:
    def test_select_list_rejected(self, session):
        with pytest.raises(PlanError):
            session.table("orders").band_join(
                "quotes", on="price", delta=1
            ).select("price").build()

    def test_two_theta_joins_rejected(self, session):
        with pytest.raises(PlanError):
            session.table("orders").band_join("quotes", on="price", delta=1) \
                .band_join("quotes", on="price", delta=2).build()

    def test_fk_join_combination_rejected(self, session):
        with pytest.raises(PlanError):
            session.table("orders").join("quotes", fk="qty") \
                .band_join("quotes", on="price", delta=1).count().build()

    def test_qualified_reference_rejected(self, session):
        with pytest.raises(PlanError):
            session.table("orders").band_join("quotes", on="price", delta=1) \
                .group_by("quotes.price").count().build()

    def test_unknown_theta_op_rejected(self, session):
        with pytest.raises(PlanError):
            session.table("orders").theta_join("quotes", on="price", op="!=")

    def test_undecomposed_side_rejected_at_plan_time(self, session):
        session.create_table("plain", {"v": IntType()}, {"v": np.arange(10)})
        with pytest.raises(PlanError):
            session.table("orders").theta_join(
                "plain", on=("price", "v"), op="<"
            ).run(mode="ar")

    def test_no_pushdown_ablation_rejected(self, session):
        with pytest.raises(PlanError):
            session.table("orders").band_join(
                "quotes", on="price", delta=1
            ).run(mode="ar", pushdown=False)
