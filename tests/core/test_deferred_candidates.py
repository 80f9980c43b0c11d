"""Deferred candidates (PR 17, 18): counted at the carve, formed on first
read — in the scan's order, or, for a plan that returns no row, as a set.

A lone scan answered by a cooperative carve returns an ``Approximation``
whose ``len()`` and payload labels are known while its rows are not formed;
``select_refine`` on such a set re-tests its boundary rows only.  Pinned
here, against the eager scan as the reference:

* the carve's boundary ids are exactly ``{rows : relaxed range ∋ code ∉
  certain range}`` read off ``approx_codes()``;
* a deferred set, once read, equals the eager one — ids *in order*, payload
  bounds, ``is_exact``, ``exact``, ``order_preserved`` — before and after
  ``select_refine``, with byte-identical ledgers, and nothing is sorted
  until a row is read;
* the edge lattice: bounds on bucket edges, a window inside one bucket, one
  code, empty / inverted / unbounded / full ranges, ``residual_bits == 0``,
  ``approx_bits == 0``, a code equal to its dtype's maximum, no candidates;
* formed ``in_order=False`` (PR 18) the same set comes in the carved run's
  order over the same lattice: ids and codes are read-only slices of the
  column's cached views, certainty is one slice of the run, refinement
  re-tests the two ends and joins three slices, nothing is ever sorted — and
  the cached views are untouched by a served wave.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximate import project_approx, select_approx
from repro.core.candidates import Approximation, CarvedHits
from repro.core.refine import select_refine
from repro.core.relax import (
    ValueRange,
    certain_code_range,
    certain_mask_for_intervals,
    relax_to_code_range,
)
from repro.device.machine import Machine
from repro.engine.cooperative import ScanRequest, cooperative_scan_hits
from repro.errors import ExecutionError
from repro.storage.decompose import decompose_values


def machine_with(column) -> Machine:
    machine = Machine.paper_testbed()
    machine.gpu.load_column("v", column, None)
    return machine


def carve(column, vrange) -> CarvedHits:
    return cooperative_scan_hits(column, [ScanRequest("v", vrange)])["v"]


def codes_in(column, code_range) -> np.ndarray:
    lo, hi = code_range
    codes = column.approx_codes().astype(np.int64)
    return (codes >= lo) & (codes <= hi)


def approximated(machine, column, vrange, *, carved: bool, scramble=True):
    """``(candidates, ledger)`` of the scan, eager or answered by a carve."""
    timeline = machine.new_timeline()
    hits = carve(column, vrange) if carved else None
    out = select_approx(
        machine.gpu, timeline, column, "v", vrange,
        scramble=scramble, precomputed_hits=hits,
    )
    return out, timeline


def refined(machine, column, vrange, candidates):
    timeline = machine.new_timeline()
    out = select_refine(machine.cpu, timeline, column, "v", vrange, candidates)
    return out, timeline


def assert_same_unread(deferred: Approximation, eager: Approximation):
    """Everything a charge or a count reads — no row is formed by it."""
    assert len(deferred) == len(eager)
    assert deferred.labels == eager.labels == tuple(eager.payloads)
    assert deferred.exact == eager.exact
    assert deferred.order_preserved == eager.order_preserved


def assert_same_rows(deferred: Approximation, eager: Approximation):
    assert deferred.ids.dtype == eager.ids.dtype == np.int64
    assert np.array_equal(deferred.ids, eager.ids)  # in order
    assert list(deferred.payloads) == list(eager.payloads)
    for label, want in eager.payloads.items():
        got = deferred.payloads[label]
        assert np.array_equal(got.lo, want.lo), label
        assert np.array_equal(got.hi, want.hi), label
        assert got.is_exact == want.is_exact, label
        assert got.refinable == want.refinable, label
    assert_same_unread(deferred, eager)


def check_against_eager(column, vrange, *, scramble=True):
    """The whole contract for one column and range."""
    machine = machine_with(column)
    dec = column.decomposition

    hits = carve(column, vrange)
    relaxed = codes_in(column, relax_to_code_range(vrange, dec))
    certain = codes_in(column, certain_code_range(vrange, dec))
    assert np.array_equal(hits.ascending(), np.flatnonzero(relaxed))
    assert hits.size == int(relaxed.sum())
    assert np.array_equal(
        np.sort(hits.boundary), np.flatnonzero(relaxed & ~certain)
    )

    eager, t_eager = approximated(machine, column, vrange, carved=False, scramble=scramble)
    eager_refined, t_eager_refined = refined(machine, column, vrange, eager)

    # Counted, billed and refined without a row being formed ...
    with mock.patch.object(
        CarvedHits, "ascending", autospec=True, side_effect=CarvedHits.ascending
    ) as sorts:
        deferred, t_deferred = approximated(
            machine, column, vrange, carved=True, scramble=scramble
        )
        assert_same_unread(deferred, eager)
        deferred_refined, t_refined = refined(machine, column, vrange, deferred)
        assert_same_unread(deferred_refined, eager_refined)
        assert sorts.call_count == 0
        assert t_deferred.span_tuples() == t_eager.span_tuples()
        assert t_refined.span_tuples() == t_eager_refined.span_tuples()
        # ... and, once read, the eager path's rows: the refined set first
        # (forming its parent on the way), then the parent itself.
        assert_same_rows(deferred_refined, eager_refined)
        assert_same_rows(deferred, eager)
        assert sorts.call_count == 1

    # Read before refinement: Algorithm 2 runs over the formed rows.
    early, _ = approximated(machine, column, vrange, carved=True, scramble=scramble)
    assert_same_rows(early, eager)
    early_refined, t_early = refined(machine, column, vrange, early)
    assert_same_rows(early_refined, eager_refined)
    assert t_early.span_tuples() == t_eager_refined.span_tuples()


def rows_by_id(candidates: Approximation) -> dict:
    """The set a candidate list denotes: id -> its payload bounds."""
    order = np.argsort(candidates.ids, kind="stable")
    return {
        "ids": candidates.ids[order].tolist(),
        **{f"{label}.{end}": getattr(column, end)[order].tolist()
           for label, column in candidates.payloads.items() for end in ("lo", "hi")},
    }


def assert_same_set(unordered: Approximation, eager: Approximation):
    assert rows_by_id(unordered) == rows_by_id(eager)
    assert list(unordered.payloads) == list(eager.payloads)
    for label, want in eager.payloads.items():
        assert unordered.payloads[label].is_exact == want.is_exact, label
        assert unordered.payloads[label].refinable == want.refinable, label
    assert len(unordered) == len(eager) and unordered.exact == eager.exact
    assert not unordered.order_preserved


def check_run_order(column, vrange):
    """The unary set contract for one column and range: formed for a plan
    that returns no row, the eager scan's candidates in run order."""
    machine = machine_with(column)
    perm, key = column.sort_permutation("lo"), column.sorted_approx_codes()
    eager, t_eager = approximated(machine, column, vrange, carved=False)
    eager_refined, t_eager_refined = refined(machine, column, vrange, eager)

    def carved():
        timeline = machine.new_timeline()
        out = select_approx(
            machine.gpu, timeline, column, "v", vrange,
            precomputed_hits=carve(column, vrange), in_order=False,
        )
        return out, timeline

    with mock.patch.object(CarvedHits, "ascending") as sorts:
        # unread: counted, billed and refined exactly as the ordered set is
        unread, t_unread = carved()
        assert len(unread) == len(eager) and unread.labels == eager.labels
        assert unread.exact == eager.exact
        assert unread.certain_run("v", vrange) is None  # no rows, no positions
        unread_refined, t_refined = refined(machine, column, vrange, unread)
        assert len(unread_refined) == len(eager_refined)
        assert t_unread.span_tuples() == t_eager.span_tuples()
        assert t_refined.span_tuples() == t_eager_refined.span_tuples()
        assert_same_set(unread_refined, eager_refined)  # forms its parent
        assert_same_set(unread, eager)

        # read first: ids and codes are the cached views' slices, untouched
        formed, _ = carved()
        hits = carve(column, vrange)
        assert np.array_equal(formed.ids, hits.run)
        if hits.size:
            assert np.shares_memory(formed.ids, perm)
            assert np.shares_memory(hits.codes, key)
        assert not formed.ids.flags.writeable and not hits.codes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            formed.ids[:1] = 0
        assert formed.boundary("v", vrange) is None  # formed: ids are positions now
        sure = formed.certain_run("v", vrange)
        bounds = formed.payload("v")
        certain = certain_mask_for_intervals(bounds.lo, bounds.hi, vrange)
        marked = np.zeros(len(formed), dtype=bool)
        marked[sure] = True
        assert np.array_equal(marked, certain), "certainty is that slice, exactly"
        # ... and its length is known with the rows unread or in run order
        for candidates in (formed, carved()[0]):
            assert candidates.certain_count("v", vrange) == int(certain.sum())
            assert candidates.certain_count("w", vrange) is None
        assert eager.certain_count("v", vrange) is None
        assert formed.certain_run("v", ValueRange(-99_999, -99_998)) is None
        assert formed.certain_run("w", vrange) is None
        # Algorithm 2 over the formed run: same bill, same set, and order
        # kept (the ends' survivors around the certain run)
        formed_refined, t_formed = refined(machine, column, vrange, formed)
        assert t_formed.span_tuples() == t_eager_refined.span_tuples()
        assert_same_set(formed_refined, eager_refined)
        if column.decomposition.residual_bits:
            exact = vrange.evaluate(column.reconstruct(formed.ids))
            assert np.array_equal(formed_refined.ids, formed.ids[exact])
            assert exact[sure].all()
            assert formed_refined.certain_run("v", vrange) is None  # narrowed
        assert sorts.call_count == 0


# ----------------------------------------------------------------------
# Property: random columns × decomposition widths × ranges
# ----------------------------------------------------------------------
@st.composite
def column_and_range(draw):
    span = draw(st.sampled_from([1, 7, 255, 256, 1000, 70_000]))
    base = draw(st.sampled_from([0, -300, 10_000]))
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).integers(base, base + span + 1, n)
    residual_bits = draw(st.integers(0, 18))
    column = decompose_values(values, residual_bits=residual_bits)
    bucket = column.decomposition.bucket
    edge = st.builds(  # on a bucket edge, or one value to either side of it
        lambda k, off: base + k * bucket + off,
        st.integers(-1, span // bucket + 2), st.sampled_from([-1, 0, 1]),
    )
    bound = st.one_of(st.none(), edge, st.integers(base - 5, base + span + 5))
    return column, ValueRange(draw(bound), draw(bound))


@settings(max_examples=120, deadline=None)
@given(column_and_range(), st.booleans())
def test_deferred_equals_eager(case, scramble):
    column, vrange = case
    check_against_eager(column, vrange, scramble=scramble)


@settings(max_examples=120, deadline=None)
@given(column_and_range())
def test_run_order_set_equals_eager_set(case):
    check_run_order(*case)


# ----------------------------------------------------------------------
# The edge lattice (ROADMAP D4)
# ----------------------------------------------------------------------
#: 2 000 values over [0, 4095], 4 residual bits: 16-value buckets, 8-bit codes
#: (uint8), the top value present so code 255 — the dtype's maximum — occurs.
def lattice_column(residual_bits=4):
    values = np.random.default_rng(3).integers(0, 4096, 2_000)
    values[:3] = (0, 4095, 4095)
    return decompose_values(values, residual_bits=residual_bits)


LATTICE = {
    "on bucket edges (boundary buckets wholly certain)": ValueRange(160, 479),
    "lower edge only": ValueRange(160, 470),
    "upper edge only": ValueRange(165, 479),
    "inside one bucket (certain range empty)": ValueRange(163, 170),
    "one whole bucket": ValueRange(160, 175),
    "one value": ValueRange(1234, 1234),
    "two buckets, neither whole": ValueRange(170, 180),
    "empty": ValueRange.empty(),
    "inverted": ValueRange(900, 100),
    "below the domain": ValueRange(None, -1),
    "above the domain": ValueRange(5000, None),
    "unbounded below": ValueRange(None, 700),
    "unbounded above": ValueRange(3000, None),
    "unbounded": ValueRange(),
    "full domain": ValueRange(0, 4095),
    "wider than the domain": ValueRange(-50, 10_000),
    "the top code (dtype max)": ValueRange(4080, 4095),
    "into the top code": ValueRange(4000, 4090),
    "no candidates between present values": None,  # filled in below
}


@pytest.mark.parametrize("name", list(LATTICE))
@pytest.mark.parametrize("residual_bits", [4, 0, 12])
def test_edge_lattice(name, residual_bits):
    column = lattice_column(residual_bits)
    vrange = LATTICE[name]
    if vrange is None:
        # a gap in the data wide enough to hold whole buckets: zero hits
        values = np.concatenate([np.arange(0, 100), np.arange(4000, 4096)])
        column = decompose_values(values, residual_bits=residual_bits)
        vrange = ValueRange(1024, 2047)
        assert carve(column, vrange).size == (values.size if residual_bits == 12 else 0)
    if residual_bits == 4:
        assert column.approx_codes().dtype == np.uint8
        assert int(column.approx_codes().max()) == 255
    check_against_eager(column, vrange)
    check_run_order(column, vrange)


@pytest.mark.parametrize("name, boundary, certain", [
    ("inside one bucket (certain range empty)", "all", 0),   # the whole run
    ("on bucket edges (boundary buckets wholly certain)", 0, "all"),
    ("empty", 0, 0),
    ("unbounded", 0, "all"),               # an open range over the whole column
    ("two buckets, neither whole", "all", 0),
])
def test_where_the_certain_sub_run_lies(name, boundary, certain):
    hits = carve(lattice_column(), LATTICE[name])
    want = {"all": hits.size}
    assert hits.boundary.size == want.get(boundary, boundary)
    assert hits.sure.stop - hits.sure.start == want.get(certain, certain)
    assert hits.codes.size == hits.size
    assert 0 <= hits.sure.start <= hits.sure.stop <= hits.size


def test_zero_approx_bits_forms_in_run_order():
    """``approx_bits == 0``: one bucket holds the column — every row a
    candidate, every row boundary unless the range covers the domain."""
    column = lattice_column(residual_bits=12)
    assert column.decomposition.approx_bits == 0
    assert carve(column, ValueRange(50, 60)).boundary.size == column.length
    assert carve(column, ValueRange()).boundary.size == 0
    for vrange in (ValueRange(50, 60), ValueRange(), ValueRange(None, -1)):
        check_run_order(column, vrange)


@pytest.mark.parametrize("in_order", [True, False])
def test_residual_free_candidates_stay_deferred_through_refinement(in_order):
    """``residual_bits == 0``: nothing to refine — ``select_refine`` is the
    identity, in either order — and nothing formed."""
    column = lattice_column(residual_bits=0)
    machine = machine_with(column)
    vrange = ValueRange(100, 900)
    deferred = select_approx(
        machine.gpu, machine.new_timeline(), column, "v", vrange,
        precomputed_hits=carve(column, vrange), in_order=in_order,
    )
    assert deferred.exact
    assert carve(column, vrange).boundary.size == 0
    with mock.patch.object(CarvedHits, "ascending") as sorts, mock.patch.object(
        Approximation, "_read"
    ) as reads:
        out, timeline = refined(machine, column, vrange, deferred)
        assert out is deferred and len(timeline) == 0
        assert sorts.call_count == reads.call_count == 0


def test_projections_over_a_run_order_set():
    """The scanned column's projection is billed from the count and reads no
    row (its bounds ride along as the code slice); another column's codes
    are still gathered — at the run-order ids, aligned with them."""
    rng = np.random.default_rng(11)
    a = decompose_values(rng.integers(0, 4096, 3_000), residual_bits=4)
    b = decompose_values(rng.integers(0, 1000, 3_000), residual_bits=2)
    machine = Machine.paper_testbed()
    machine.gpu.load_column("a", a, None)
    machine.gpu.load_column("b", b, None)
    vrange = ValueRange(500, 2500)

    def projected(**carved):
        timeline = machine.new_timeline()
        out = select_approx(machine.gpu, timeline, a, "a", vrange, **carved)
        with mock.patch.object(
            Approximation, "_read", autospec=True, side_effect=Approximation._read
        ) as reads:
            out = project_approx(machine.gpu, timeline, a, "a", out)
            carried_reads = reads.call_count
            out = project_approx(machine.gpu, timeline, b, "b", out)
        return out, timeline, carried_reads

    eager, t_eager, _ = projected()
    with mock.patch.object(CarvedHits, "ascending") as sorts:
        hits = cooperative_scan_hits(a, [ScanRequest("a", vrange)])["a"]
        got, t_got, carried_reads = projected(precomputed_hits=hits, in_order=False)
        assert carried_reads == 0, "a carried projection formed the rows"
        assert t_got.span_tuples() == t_eager.span_tuples()
        assert np.array_equal(got.ids, hits.run)
        assert_same_set(got, eager)
        floors = b.decomposition.approx_lower_bounds(b.approx_at(hits.run))
        assert np.array_equal(got.payload("b").lo, floors)
        assert sorts.call_count == 0


def test_minmax_prune_narrows_a_run_order_set():
    """``ApproxMinMaxPrune`` over candidates in run order: the certain slice
    anchors the cut, the narrowed set forgets the run — same answer, same
    interval, same ledger as the solo run, nothing sorted."""
    from repro import IntType, Session
    from repro.plan.physical import ApproxMinMaxPrune

    rng = np.random.default_rng(13)
    s = Session()
    s.create_table("f", {"a": IntType()}, {"a": rng.integers(0, 60_000, 5_000)})
    s.bwdecompose("f", "a", 24)
    column = s.catalog.decomposition_of("f", "a")
    for func in ("min", "max"):
        builder = s.table("f").where("a", between=(7_003, 41_950))
        query = getattr(builder, func)("a", "m").build()
        plan = s.plan_for(query, optimizer="heuristic")
        assert any(isinstance(op, ApproxMinMaxPrune) for op in plan.ops)
        hits = cooperative_scan_hits(
            column, [ScanRequest("q", plan.ops[0].predicate.vrange)]
        )["q"]
        want = s._ar.run(plan)
        with mock.patch.object(CarvedHits, "ascending") as sorts:
            got = s._ar.run(plan, scan_hits={id(plan.ops[0]): hits})
        assert sorts.call_count == 0
        assert 0 < got.approximate.candidate_rows < hits.size  # it did prune
        assert got.columns["m"].tolist() == want.columns["m"].tolist()
        assert got.approximate == want.approximate
        assert got.timeline.span_tuples() == want.timeline.span_tuples()


def test_a_served_wave_leaves_the_cached_views_untouched():
    """Formed ids and codes alias the column's cached sort permutation and
    sorted codes: after a wave of aggregates served out of them both are
    byte-identical to a fresh build and still read-only."""
    from repro import IntType, Session
    from repro.sql import bind, parse

    rng = np.random.default_rng(17)
    s = Session()
    s.create_table(
        "events", {"value": IntType(), "other": IntType()},
        {"value": rng.integers(0, 100_000, 20_000),
         "other": rng.integers(0, 500, 20_000)},
    )
    s.bwdecompose("events", "value", 24)
    s.bwdecompose("events", "other", 28)
    server = s.serve(max_batch=16, optimizer="heuristic")
    shapes = ("sum(value) as s, count(*) as n", "min(other) as m", "sum(other) as s")
    handles = [
        server.submit(bind(parse(
            f"select {shapes[i % 3]} from events "
            f"where value between {lo} and {lo + 7_000}"
        ), s.catalog)[0], mode="ar")
        for i, lo in enumerate(range(0, 90_000, 6_000))
    ]
    assert all(h.result().row_count == 1 for h in handles)
    assert server.stats.fused_queries == len(handles)
    column = s.catalog.decomposition_of("events", "value")
    perm, key = column.sort_permutation("lo"), column.sorted_approx_codes()
    fresh = np.argsort(column.approx_codes(), kind="stable")
    assert perm.dtype == np.int64 and np.array_equal(perm, fresh)
    assert key.dtype == column.approx_codes().dtype
    assert np.array_equal(key, column.approx_codes()[fresh])
    assert not perm.flags.writeable and not key.flags.writeable


def test_a_probe_behind_the_scan_forms_the_rows():
    """Deferral is for a lone scan: with a probe conjunct the kernel reads
    the carved hits at once, and the result is the eager one."""
    from repro.core.approximate import select_conjunction_approx

    rng = np.random.default_rng(5)
    a = decompose_values(rng.integers(0, 4096, 3_000), residual_bits=4)
    b = decompose_values(rng.integers(0, 1000, 3_000), residual_bits=2)
    machine = Machine.paper_testbed()
    machine.gpu.load_column("a", a, None)
    machine.gpu.load_column("b", b, None)
    conjuncts = [(a, "a", ValueRange(500, 2500)), (b, "b", ValueRange(0, 400))]
    t_eager, t_carved = machine.new_timeline(), machine.new_timeline()
    eager = select_conjunction_approx(machine.gpu, t_eager, conjuncts)
    hits = cooperative_scan_hits(a, [ScanRequest("a", conjuncts[0][2])])["a"]
    carved = select_conjunction_approx(
        machine.gpu, t_carved, conjuncts, precomputed_hits=hits
    )
    assert carved.boundary("a", conjuncts[0][2]) is None
    assert_same_rows(carved, eager)
    assert t_carved.span_tuples() == t_eager.span_tuples()


def test_refining_another_selection_reads_the_rows():
    """The boundary belongs to the carved selection; any other range is
    refined the general way — over every formed row."""
    column = lattice_column()
    machine = machine_with(column)
    scanned, other = ValueRange(160, 2000), ValueRange(300, 1500)
    eager, _ = approximated(machine, column, scanned, carved=False)
    deferred, _ = approximated(machine, column, scanned, carved=True)
    assert deferred.boundary("v", scanned) is not None
    assert deferred.boundary("v", other) is None
    assert deferred.boundary("w", scanned) is None
    want, t_want = refined(machine, column, other, eager)
    got, t_got = refined(machine, column, other, deferred)
    assert_same_rows(got, want)
    assert t_got.span_tuples() == t_want.span_tuples()
    assert deferred.boundary("v", scanned) is None  # formed: no longer deferred


def test_a_miscounted_thunk_is_refused():
    deferred = Approximation.deferred(
        3, ("v",), lambda: Approximation(np.arange(2)),
        order_preserved=True, exact=True,
    )
    assert len(deferred) == 3 and deferred.labels == ("v",)
    with pytest.raises(ExecutionError, match="counted 3 rows, formed 2"):
        deferred.ids
