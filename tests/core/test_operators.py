"""Tests for the paired A&R operators: approximate halves vs refined truth.

These are the operator-level correctness theorems: for random data, random
decompositions and random predicates, the approximation yields a superset
and the refinement yields exactly what a classic full-precision operator
would (DESIGN.md invariant 5 at operator granularity).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import fold, row_partials
from repro import IntType, Session
from repro.core.approximate import (
    fk_join_approx,
    project_approx,
    select_approx,
    select_conjunction_approx,
)
from repro.core.candidates import Approximation
from repro.core.refine import (
    align_via_translucent,
    fk_join_refine,
    project_refine,
    select_refine,
    ship_candidates,
)
from repro.core.relax import ValueRange
from repro.plan.expr import ColRef, Predicate
from repro.device.machine import Machine
from repro.errors import ExecutionError
from repro.storage.decompose import decompose_values


@pytest.fixture()
def machine():
    return Machine.paper_testbed()


def load(machine, values, residual_bits, label="col"):
    col = decompose_values(np.asarray(values), residual_bits=residual_bits)
    machine.gpu.load_column(label, col, None)
    return col


def exact_fold(func, values, n):
    """The exact aggregate over ``n`` refined rows, as the engines take it."""
    return fold(func, row_partials(func, values, n), None)[0]


def full_candidates(n):
    """An all-rows candidate set (the scan of an unfiltered table)."""
    return Approximation(ids=np.arange(n, dtype=np.int64))


class TestSelectPair:
    def test_approx_is_superset_refine_is_exact(self, machine):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10_000, 5_000)
        col = load(machine, values, residual_bits=6)
        tl = machine.new_timeline()
        vr = ValueRange.between(2_500, 5_000)

        approx = select_approx(machine.gpu, tl, col, "a", vr)
        truth = np.flatnonzero(vr.evaluate(values))
        assert set(truth) <= set(approx.ids)
        assert not approx.exact

        ship_candidates(machine.bus, tl, approx, payload_bytes_per_row=4)
        refined = select_refine(machine.cpu, tl, col, "a", vr, approx)
        assert set(refined.ids) == set(truth)
        assert np.array_equal(
            np.sort(refined.payload("a").lo), np.sort(values[truth])
        )
        assert refined.payload("a").is_exact

    def test_zero_residual_is_exact_and_refine_is_noop(self, machine):
        values = np.arange(1_000)
        col = load(machine, values, residual_bits=0)
        tl = machine.new_timeline()
        vr = ValueRange.between(10, 20)
        approx = select_approx(machine.gpu, tl, col, "a", vr)
        assert approx.exact
        assert set(approx.ids) == set(range(10, 21))
        refined = select_refine(machine.cpu, tl, col, "a", vr, approx)
        assert refined is approx

    def test_scramble_breaks_order_but_not_results(self, machine):
        values = np.arange(2_000)
        col = load(machine, values, residual_bits=4)
        tl = machine.new_timeline()
        vr = ValueRange.between(100, 1500)
        approx = select_approx(machine.gpu, tl, col, "a", vr, scramble=True)
        assert not approx.order_preserved
        assert not np.all(np.diff(approx.ids) > 0)  # genuinely scrambled
        refined = select_refine(machine.cpu, tl, col, "a", vr, approx)
        assert set(refined.ids) == set(range(100, 1501))

    def test_conjunction_via_narrow(self, machine):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1000, 3_000)
        b = rng.integers(0, 1000, 3_000)
        col_a = load(machine, a, residual_bits=5, label="a")
        col_b = load(machine, b, residual_bits=5, label="b")
        tl = machine.new_timeline()
        vr_a, vr_b = ValueRange(100, 400), ValueRange(500, 900)

        cand = select_approx(machine.gpu, tl, col_a, "a", vr_a)
        cand = select_conjunction_approx(
            machine.gpu, tl, [(col_b, "b", vr_b)], candidates=cand
        )
        truth = np.flatnonzero(vr_a.evaluate(a) & vr_b.evaluate(b))
        assert set(truth) <= set(cand.ids)

        refined = select_refine(machine.cpu, tl, col_a, "a", vr_a, cand)
        refined = select_refine(machine.cpu, tl, col_b, "b", vr_b, refined)
        assert set(refined.ids) == set(truth)

    @pytest.mark.parametrize("residual_bits", [0, 5])
    def test_second_bound_on_a_carried_column_skips_the_gather_only(
        self, machine, residual_bits
    ):
        """``a >= x and a < y``: the probe reads its codes off the payload the
        candidates already carry; candidates, payload and charge are what a
        gather (here: the same probe without the payload) produces."""
        values = np.random.default_rng(3).integers(-300, 4_000, 3_000)
        col = load(machine, values, residual_bits=residual_bits)
        first, second = ValueRange(500, None), ValueRange(None, 2_000)

        def probe(carry: bool):
            tl = machine.new_timeline()
            cand = select_approx(machine.gpu, tl, col, "a", first)
            if not carry:
                cand = Approximation(ids=cand.ids, exact=cand.exact)
            return select_conjunction_approx(
                machine.gpu, tl, [(col, "a", second)], candidates=cand
            ), tl

        (carried, tl_carried), (gathered, tl_gathered) = probe(True), probe(False)
        assert np.array_equal(carried.ids, gathered.ids)
        for end in ("lo", "hi"):
            assert np.array_equal(
                getattr(carried.payload("a"), end), getattr(gathered.payload("a"), end)
            )
        assert carried.exact == gathered.exact == (residual_bits == 0)
        assert tl_carried.span_tuples() == tl_gathered.span_tuples()
        payload = carried.payload("a")
        assert (payload.hi is payload.lo) == (residual_bits == 0)

    def test_empty_result(self, machine):
        values = np.arange(100)
        col = load(machine, values, residual_bits=3)
        tl = machine.new_timeline()
        vr = ValueRange.between(1_000, 2_000)
        approx = select_approx(machine.gpu, tl, col, "a", vr)
        assert len(approx) == 0
        refined = select_refine(machine.cpu, tl, col, "a", vr, approx)
        assert len(refined) == 0

    def test_timeline_records_phases(self, machine):
        values = np.arange(1_000)
        col = load(machine, values, residual_bits=4)
        tl = machine.new_timeline()
        vr = ValueRange.between(0, 500)
        approx = select_approx(machine.gpu, tl, col, "a", vr)
        ship_candidates(machine.bus, tl, approx, 4)
        select_refine(machine.cpu, tl, col, "a", vr, approx)
        kinds = tl.seconds_by_kind()
        assert set(kinds) == {"gpu", "bus", "cpu"}
        assert tl.approximate_seconds() > 0
        assert tl.refine_seconds() > 0


class TestProjectPair:
    def test_project_then_refine_matches_gather(self, machine):
        rng = np.random.default_rng(2)
        sel = rng.integers(0, 1000, 4_000)
        prj = rng.integers(0, 100_000, 4_000)
        col_sel = load(machine, sel, residual_bits=4, label="sel")
        col_prj = load(machine, prj, residual_bits=8, label="prj")
        tl = machine.new_timeline()
        vr = ValueRange(200, 600)

        cand = select_approx(machine.gpu, tl, col_sel, "sel", vr)
        cand = project_approx(machine.gpu, tl, col_prj, "prj", cand)
        assert not cand.payload("prj").is_exact
        refined = select_refine(machine.cpu, tl, col_sel, "sel", vr, cand)
        refined = project_refine(machine.cpu, tl, col_prj, "prj", refined)

        expected = {i: prj[i] for i in np.flatnonzero(vr.evaluate(sel))}
        got = dict(zip(refined.ids.tolist(), refined.payload("prj").lo.tolist()))
        assert got == expected

    def test_fully_resident_projection_needs_no_refinement(self, machine):
        prj = np.arange(500) * 3
        col_prj = load(machine, prj, residual_bits=0, label="prj")
        tl = machine.new_timeline()
        cand = full_candidates(500)
        cand = project_approx(machine.gpu, tl, col_prj, "prj", cand)
        assert cand.payload("prj").is_exact
        out = project_refine(machine.cpu, tl, col_prj, "prj", cand)
        assert np.array_equal(out.payload("prj").lo, prj)


class TestTranslucentAlignment:
    def test_align_payload_with_refined_subset(self, machine):
        """Fig 3's join of SELECT(refine) output with PROJECT(approximate)."""
        rng = np.random.default_rng(3)
        sel = rng.integers(0, 100, 2_000)
        col_sel = load(machine, sel, residual_bits=3, label="sel")
        prj = rng.integers(0, 50_000, 2_000)
        col_prj = load(machine, prj, residual_bits=0, label="prj")
        tl = machine.new_timeline()
        vr = ValueRange(10, 60)

        cand = select_approx(machine.gpu, tl, col_sel, "sel", vr)
        cand = project_approx(machine.gpu, tl, col_prj, "prj", cand)
        refined = select_refine(machine.cpu, tl, col_sel, "sel", vr, cand)

        aligned = align_via_translucent(machine.cpu, tl, cand, refined.ids)
        assert np.array_equal(aligned.ids, refined.ids)
        assert np.array_equal(aligned.payload("prj").lo, prj[refined.ids])


class TestFkJoinPair:
    def test_fk_join_gathers_dimension_values(self, machine):
        rng = np.random.default_rng(4)
        dim = rng.integers(0, 1000, 128)  # dimension payload
        fk = rng.integers(0, 128, 5_000)  # fact fks
        col_fk = load(machine, fk, residual_bits=0, label="fk")
        col_dim = load(machine, dim, residual_bits=0, label="dim")
        tl = machine.new_timeline()
        cand = full_candidates(5_000)
        cand = fk_join_approx(machine.gpu, tl, col_fk, col_dim, "dim", cand)
        assert np.array_equal(cand.payload("dim").lo, dim[fk])
        assert cand.payload("dim").is_exact

    def test_fk_join_with_decomposed_target(self, machine):
        rng = np.random.default_rng(5)
        dim = rng.integers(0, 100_000, 64)
        fk = rng.integers(0, 64, 1_000)
        col_fk = load(machine, fk, residual_bits=0, label="fk")
        col_dim = load(machine, dim, residual_bits=8, label="dim")
        tl = machine.new_timeline()
        cand = fk_join_approx(
            machine.gpu, tl, col_fk, col_dim, "dim", full_candidates(1_000)
        )
        payload = cand.payload("dim")
        assert np.all(payload.lo <= dim[fk])
        assert np.all(dim[fk] <= payload.hi)
        refined = fk_join_refine(machine.cpu, tl, col_dim, "dim", cand)
        assert np.array_equal(refined.payload("dim").lo, dim[fk])
        assert refined.payload("dim").is_exact

    def test_lossy_fk_rejected(self, machine):
        fk = np.arange(1_000) % 64
        dim = np.arange(64)
        col_fk = load(machine, fk, residual_bits=2, label="fk")
        col_dim = load(machine, dim, residual_bits=0, label="dim")
        with pytest.raises(ExecutionError):
            fk_join_approx(
                machine.gpu, machine.new_timeline(), col_fk, col_dim, "dim",
                full_candidates(1_000),
            )


class TestExecutorAggregates:
    """The approximate halves of the aggregates live in ``ArExecutor``
    (``_approx_aggregate`` / ``_minmax_prune`` / ``_certainty``): driven
    through the builder, bounds bracket and refinement is exact."""

    @staticmethod
    def session(columns: dict, residual_bits: int) -> Session:
        session = Session()
        session.create_table("t", {c: IntType() for c in columns}, columns)
        for c in columns:
            session.bwdecompose("t", c, residual_bits=residual_bits)
        return session

    def test_select_on_computed_bounds(self):
        """A predicate over an expression is decided on the propagated
        bounds (``ApproxPayloadSelect``): candidates are a superset."""
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, 1000, 2_000), rng.integers(0, 1000, 2_000)
        session = self.session({"a": a, "b": b}, 4)
        pred = Predicate(ColRef("a") + ColRef("b"), ValueRange(100, 400))
        block = session.table("t").where(pred).count("n")
        truth = int(pred.vrange.evaluate(a + b).sum())
        approx = block.run(mode="approximate").approximate
        assert approx.candidate_rows >= truth
        bound = approx.bound("n")
        assert bound.lo <= truth <= bound.hi
        assert block.run(mode="ar").scalar("n") == truth

    @pytest.mark.parametrize("func", ["count", "sum", "avg"])
    def test_bounds_contain_truth_and_refinement_is_exact(self, func):
        values = np.random.default_rng(6).integers(0, 10_000, 4_000)
        keep = ValueRange(2_000, 8_000).evaluate(values)
        truth = {
            "count": int(keep.sum()),
            "sum": int(values[keep].sum()),
            "avg": float(values[keep].mean()),
        }[func]
        session = self.session({"v": values}, 6)
        block = session.table("t").where("v", between=(2_000, 8_000))
        block = block.agg(func, None if func == "count" else "v", "out")
        bound = block.run(mode="approximate").approximate.bound("out")
        assert bound.lo <= truth <= bound.hi
        assert block.run(mode="ar").scalar("out") == pytest.approx(truth)

    def test_minmax_candidate_contains_true_min(self):
        """Fig 6's hazard: the false positive with the smallest approximate
        value must not evict the true minimum from the candidate set."""
        rng = np.random.default_rng(9)
        x, y = rng.integers(0, 1000, 5_000), rng.integers(0, 1000, 5_000)
        session = self.session({"x": x, "y": y}, 6)
        block = session.table("t").where("x", ">=", 600).min("y", "m")
        pruned = block.run(mode="approximate").approximate.candidate_rows
        assert 0 < pruned < int((x >= 600).sum())  # the prune did narrow
        assert block.run(mode="ar").scalar("m") == int(y[x >= 600].min())

    def test_max_prunes_symmetrically(self):
        rng = np.random.default_rng(10)
        x, y = rng.integers(0, 1000, 5_000), rng.integers(0, 1000, 5_000)
        session = self.session({"x": x, "y": y}, 6)
        block = session.table("t").where("x", "<", 300).max("y", "m")
        pruned = block.run(mode="approximate").approximate.candidate_rows
        assert 0 < pruned < int((x < 300).sum())
        assert block.run(mode="ar").scalar("m") == int(y[x < 300].max())

    def test_no_certain_row_keeps_every_candidate(self):
        """A range inside one bucket: no row is certain to qualify, so no
        row may anchor the cut and the prune keeps them all."""
        rng = np.random.default_rng(11)
        x, y = rng.integers(0, 1024, 5_000), rng.integers(0, 1000, 5_000)
        session = self.session({"x": x, "y": y}, 6)
        block = session.table("t").where("x", between=(130, 140)).min("y", "m")
        kept = block.run(mode="approximate").approximate.candidate_rows
        assert kept == int(((x >= 128) & (x < 192)).sum())
        assert block.run(mode="ar").scalar("m") == int(y[(x >= 130) & (x <= 140)].min())


# ----------------------------------------------------------------------
# Property: the operator-level A&R theorem for selections
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    residual_bits=st.integers(0, 10),
    lo=st.integers(0, 900),
    width=st.integers(0, 400),
)
def test_property_select_pair_equals_classic(seed, residual_bits, lo, width):
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1000, 700)
    col = decompose_values(values, residual_bits=residual_bits)
    machine.gpu.load_column("v", col, None)
    tl = machine.new_timeline()
    vr = ValueRange.between(lo, lo + width)

    approx = select_approx(machine.gpu, tl, col, "v", vr)
    refined = select_refine(machine.cpu, tl, col, "v", vr, approx)
    truth = set(np.flatnonzero(vr.evaluate(values)))
    assert truth <= set(approx.ids.tolist())
    assert set(refined.ids.tolist()) == truth
