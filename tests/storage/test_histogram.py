"""Tests for code-domain histograms and cost-based predicate ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relax import ValueRange, relax_to_code_range
from repro.errors import StorageError
from repro.opt.estimates import estimate_selectivity
from repro.plan.expr import ColRef, Predicate
from repro.plan.logical import Query
from repro.plan.physical import ApproxProbeSelect, ApproxScanSelect
from repro.plan.rewriter import rewrite_to_ar_plan
from repro.storage.catalog import Catalog
from repro.storage.decompose import decompose_values
from repro.storage.histogram import CodeHistogram
from repro.storage.relation import Relation, int_schema


class TestCodeHistogram:
    def test_exact_counts_at_code_granularity(self):
        values = np.array([0, 0, 1, 5, 5, 5, 7])
        col = decompose_values(values, residual_bits=0)
        h = CodeHistogram.build(col)
        assert h.total == 7
        assert h.estimate_code_range(0, 0) == 2
        assert h.estimate_code_range(5, 5) == 3
        assert h.estimate_code_range(0, 7) == 7
        assert h.estimate_code_range(2, 4) == 0

    def test_selectivity(self):
        values = np.arange(100)
        col = decompose_values(values, residual_bits=0)
        h = CodeHistogram.build(col)
        assert h.selectivity(0, 24) == pytest.approx(0.25)

    def test_range_clipping(self):
        col = decompose_values(np.arange(16), residual_bits=0)
        h = CodeHistogram.build(col)
        assert h.estimate_code_range(-5, 100) == 16
        assert h.estimate_code_range(9, 2) == 0

    def test_empty_column_rejected(self):
        col = decompose_values(np.array([1]), residual_bits=0)
        col.length = 0  # simulate degenerate state
        with pytest.raises(StorageError):
            CodeHistogram.build(col)

    def test_wide_domain_is_downsampled(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**30, 5000)
        col = decompose_values(values, residual_bits=0)
        h = CodeHistogram.build(col)
        assert h.codes_per_bucket > 1
        assert h.counts.size <= (1 << 16) + 1
        assert h.total == 5000

    def test_downsampled_interpolation_reasonable(self):
        values = np.arange(2**20)  # uniform
        col = decompose_values(values, residual_bits=0)
        h = CodeHistogram.build(col)
        est = h.estimate_code_range(0, 2**18 - 1)  # exactly 25%
        assert est == pytest.approx(2**18, rel=0.02)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        residual=st.integers(0, 6),
        lo=st.integers(0, 800),
        width=st.integers(0, 300),
    )
    def test_property_histogram_matches_relaxed_count(self, seed, residual, lo, width):
        """Histogram estimate == true relaxed-candidate count (exact when
        one code per bucket)."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1000, 500)
        col = decompose_values(values, residual_bits=residual)
        h = CodeHistogram.build(col)
        vr = ValueRange(lo, lo + width)
        lo_c, hi_c = relax_to_code_range(vr, col.decomposition)
        codes = col.approx_codes().astype(np.int64)
        truth = int(((codes >= lo_c) & (codes <= hi_c)).sum())
        if h.codes_per_bucket == 1:
            assert h.estimate_code_range(lo_c, hi_c) == truth


class TestCostBasedOrdering:
    @pytest.fixture()
    def catalog(self):
        cat = Catalog()
        rng = np.random.default_rng(1)
        n = 4000
        cat.register(
            Relation.create(
                "t", int_schema("wide", "narrow"),
                {
                    "wide": rng.integers(0, 1000, n),
                    "narrow": rng.integers(0, 1000, n),
                },
            )
        )
        cat.bwdecompose("t", "wide", 32)
        cat.bwdecompose("t", "narrow", 32)
        return cat

    @staticmethod
    def preds():
        unselective = Predicate(ColRef("wide"), ValueRange(0, 900))  # ~90%
        selective = Predicate(ColRef("narrow"), ValueRange(0, 50))  # ~5%
        return unselective, selective

    def test_estimated_selectivity(self, catalog):
        unselective, selective = self.preds()
        s_un = estimate_selectivity(catalog, "t", unselective)
        s_sel = estimate_selectivity(catalog, "t", selective)
        assert s_sel == pytest.approx(0.05, abs=0.02)
        assert s_un == pytest.approx(0.90, abs=0.02)

    def test_query_order_keeps_where_order(self, catalog):
        unselective, selective = self.preds()
        q = Query(table="t", where=(unselective, selective), select=("wide",))
        plan = rewrite_to_ar_plan(q, catalog, predicate_order="query")
        scan = next(op for op in plan.ops if isinstance(op, ApproxScanSelect))
        assert scan.column == "wide"

    def test_selectivity_order_puts_selective_first(self, catalog):
        unselective, selective = self.preds()
        q = Query(table="t", where=(unselective, selective), select=("wide",))
        plan = rewrite_to_ar_plan(q, catalog, predicate_order="selectivity")
        scan = next(op for op in plan.ops if isinstance(op, ApproxScanSelect))
        probe = next(op for op in plan.ops if isinstance(op, ApproxProbeSelect))
        assert scan.column == "narrow"
        assert probe.column == "wide"

    def test_unknown_order_rejected(self, catalog):
        q = Query(table="t", where=self.preds(), select=("wide",))
        with pytest.raises(Exception):
            rewrite_to_ar_plan(q, catalog, predicate_order="oracle")

    def test_cost_order_reduces_modeled_time(self, catalog):
        """The point of the exercise: selective-first is cheaper."""
        from repro import Session

        session = Session()
        session.catalog = catalog
        from repro.engine.ar_executor import ArExecutor
        from repro.engine.bulk import ClassicExecutor

        session._ar = ArExecutor(catalog, session.machine)
        session._classic = ClassicExecutor(catalog, session.machine.cpu)
        for _, _, bwd in catalog.decomposed_columns():
            session.machine.gpu.load_column(str(id(bwd)), bwd, None)

        unselective, selective = self.preds()
        q = Query(
            table="t", where=(unselective, selective),
            aggregates=(__import__("repro").Aggregate("count", None, "n"),),
        )
        naive = session.query(q, predicate_order="query")
        ordered = session.query(q, predicate_order="selectivity")
        assert naive.scalar("n") == ordered.scalar("n")
        assert (
            ordered.timeline.total_seconds() < naive.timeline.total_seconds()
        )
