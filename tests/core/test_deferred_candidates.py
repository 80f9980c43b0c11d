"""Deferred candidates (PR 17): counted at the carve, formed on first read.

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
  ``approx_bits == 0``, a code equal to its dtype's maximum, no candidates.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximate import select_approx
from repro.core.candidates import Approximation, CarvedHits
from repro.core.refine import select_refine
from repro.core.relax import ValueRange, certain_code_range, relax_to_code_range
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


def test_residual_free_candidates_stay_deferred_through_refinement():
    """``residual_bits == 0``: nothing to refine — and nothing formed."""
    column = lattice_column(residual_bits=0)
    machine = machine_with(column)
    vrange = ValueRange(100, 900)
    deferred, _ = approximated(machine, column, vrange, carved=True)
    assert deferred.exact
    assert carve(column, vrange).boundary.size == 0
    with mock.patch.object(CarvedHits, "ascending") as sorts:
        out, timeline = refined(machine, column, vrange, deferred)
        assert out is deferred and len(timeline) == 0
        assert sorts.call_count == 0


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
