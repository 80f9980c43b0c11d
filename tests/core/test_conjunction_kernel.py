"""The conjunction kernel against a stage-by-stage reference (PR 16).

``select_conjunction_approx`` runs a scan and the probes behind it as one
blocked pass; the reference below runs them the way they are documented —
a full-column mask, the lane-major scramble of its hits, then one
order-preserving narrowing per probe, every payload narrowed along — and
bills each stage from its own counts.  Ids *in order*, payload bounds,
``exact``, ``order_preserved`` and ``span_tuples()`` must agree: residual
0 and > 0, a column named twice, zero and one survivors, lengths around
the 61 scatter lanes, densities on both sides of the dense/sparse switch
and straddling it inside one column, ``precomputed_hits``, probes that
continue from existing candidates, and columns whose decoded views are
absent under an evicting budget.
"""

import numpy as np
import pytest

from repro.core.approximate import (
    select_approx,
    select_conjunction_approx,
)
from repro.core.candidates import Approximation
from repro.core.intervals import IntervalColumn
from repro.core.relax import ValueRange, relax_to_code_range
from repro.device import gpu as gpu_module
from repro.device.machine import Machine
from repro.device.model import AccessPattern, OpClass
from repro.engine.cooperative import ScanRequest, cooperative_scan_hits
from repro.storage.bitpack import packed_nbytes
from repro.storage.decompose import (
    decompose_values,
    set_view_budget,
    view_eviction_stats,
)

LANES = 61


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


@pytest.fixture()
def small_blocks(monkeypatch):
    """128-row blocks: a few thousand rows cross many block boundaries."""
    monkeypatch.setattr(gpu_module, "_SELECT_BLOCK_ROWS", 128)


def machine_with(columns):
    machine = Machine.paper_testbed()
    for i, column in enumerate(columns):
        machine.gpu.load_column(f"c{i}", column, None)
    return machine


# ----------------------------------------------------------------------
# The reference: the documented semantics, one stage at a time
# ----------------------------------------------------------------------
def _codes_in(column, vrange):
    lo, hi = relax_to_code_range(vrange, column.decomposition)
    codes = column.approx_codes().astype(object)  # exact Python-int compares
    return np.array([lo <= c <= hi for c in codes], dtype=bool)


def _payload(column, ids):
    dec = column.decomposition
    lo = dec.base + (column.approx_codes()[ids].astype(np.int64) << dec.residual_bits)
    return lo, lo + dec.max_error


def reference(gpu, timeline, conjuncts, *, candidates=None, scramble=True):
    """``(ids, {label: (lo, hi)}, exact, order_preserved)``; bills
    ``timeline`` stage by stage."""
    stages = list(conjuncts)
    if candidates is None:
        column, label, vrange = stages.pop(0)
        hits = np.flatnonzero(_codes_in(column, vrange))
        gpu._charge(
            timeline, f"select.approx({label})",
            packed_nbytes(column.length, max(column.decomposition.approx_bits, 1))
            + 8 * hits.size,
            tuples=column.length, op_class=OpClass.SCAN,
        )
        ids = hits
        if scramble:
            # lane-major: stable order of the hits by their rank modulo the lanes
            ids = hits[np.argsort(np.arange(hits.size) % LANES, kind="stable")]
        payloads = {label: _payload(column, ids)}
        exact = column.decomposition.residual_bits == 0
        order_preserved = not scramble
    else:
        ids = candidates.ids
        payloads = {k: (v.lo, v.hi) for k, v in candidates.payloads.items()}
        exact, order_preserved = candidates.exact, candidates.order_preserved
    for column, label, vrange in stages:
        keep = _codes_in(column, vrange)[ids]
        gpu._charge(
            timeline, f"select.approx.probe({label})",
            8 * (ids.size + int(keep.sum())), AccessPattern.RANDOM,
            tuples=ids.size, op_class=OpClass.GATHER,
        )
        ids = ids[keep]
        payloads = {k: (lo[keep], hi[keep]) for k, (lo, hi) in payloads.items()}
        if label not in payloads:
            payloads[label] = _payload(column, ids)
        exact = exact and column.decomposition.residual_bits == 0
    return ids, payloads, exact, order_preserved


def assert_matches_reference(machine, conjuncts, **kwargs):
    t_ref, t_got = machine.new_timeline(), machine.new_timeline()
    ref_kwargs = {k: v for k, v in kwargs.items() if k != "precomputed_hits"}
    ids, payloads, exact, order_preserved = reference(
        machine.gpu, t_ref, conjuncts, **ref_kwargs
    )
    if "candidates" in kwargs:  # the kernel narrows a copy, like the reference
        c = kwargs["candidates"]
        kwargs["candidates"] = Approximation(
            c.ids.copy(), c.order_preserved, dict(c.payloads), c.exact
        )
    got = select_conjunction_approx(machine.gpu, t_got, conjuncts, **kwargs)
    assert np.array_equal(got.ids, ids)
    assert got.ids.dtype == np.int64
    assert list(got.payloads) == list(payloads)
    for label, (lo, hi) in payloads.items():
        assert np.array_equal(got.payloads[label].lo, lo), label
        assert np.array_equal(got.payloads[label].hi, hi), label
    assert got.exact == exact
    assert got.order_preserved == order_preserved
    assert t_got.span_tuples() == t_ref.span_tuples()
    return got


def columns_of(rng, n, domain, residuals):
    return [
        decompose_values(rng.integers(0, domain, n), residual_bits=r)
        for r in residuals
    ]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("residuals", [(0, 0, 0), (3, 0, 5), (4, 4, 4)])
@pytest.mark.parametrize("n", [1, 60, 61, 62, 127, 128, 129, 3000])
def test_random_conjunctions(small_blocks, residuals, n):
    rng = np.random.default_rng([n, *residuals])
    columns = columns_of(rng, n, 1000, residuals)
    machine = machine_with(columns)
    for _ in range(12):
        k = int(rng.integers(1, 5))
        conjuncts = []
        for _ in range(k):
            i = int(rng.integers(0, 3))  # a column may come up twice
            lo = int(rng.integers(-50, 900))
            width = int(rng.choice([0, 5, 60, 400, 2000]))
            conjuncts.append((columns[i], f"c{i}", ValueRange.between(lo, lo + width)))
        assert_matches_reference(machine, conjuncts, scramble=bool(rng.integers(2)))


def test_both_sides_of_the_switch_inside_one_column(small_blocks, monkeypatch):
    """Clustered data: some blocks all hits, some a handful, some none, so
    one pass takes the bitmap in some blocks and positions in others."""
    rng = np.random.default_rng(11)
    a = np.repeat(rng.integers(0, 1000, 40), 100)      # 100-row runs
    a[rng.integers(0, a.size, 200)] = 500               # sparse strays
    b = rng.integers(0, 1000, a.size)
    columns = [decompose_values(a, residual_bits=2), decompose_values(b, residual_bits=0)]
    machine = machine_with(columns)
    went_sparse_at = set()
    real = gpu_module.SimulatedGPU._probe_at

    def spy(conjuncts, bounds, first, *rest):
        went_sparse_at.add(first)
        return real(conjuncts, bounds, first, *rest)

    monkeypatch.setattr(gpu_module.SimulatedGPU, "_probe_at", staticmethod(spy))
    got = assert_matches_reference(machine, [
        (columns[0], "a", ValueRange.between(400, 600)),
        (columns[1], "b", ValueRange.between(0, 700)),
        (columns[0], "a", ValueRange.between(450, 1000)),
    ])
    assert len(got) > 0
    # some blocks left the bitmap after the first conjunct, some after the
    # second (and some never: all three ran dense, nothing left to probe)
    assert {1, 2} <= went_sparse_at


@pytest.mark.parametrize("scramble", [True, False])
def test_default_block_size_crosses_blocks(scramble):
    rng = np.random.default_rng(5)
    n = 3 * gpu_module._SELECT_BLOCK_ROWS + 77
    columns = columns_of(rng, n, 1 << 16, (0, 6))
    machine = machine_with(columns)
    assert_matches_reference(machine, [
        (columns[0], "x", ValueRange.between(1000, 40_000)),   # ~60 %: dense
        (columns[1], "y", ValueRange.between(0, 3000)),        # ~5 %
        (columns[0], "x", ValueRange.between(2000, 30_000)),
    ], scramble=scramble)
    assert_matches_reference(machine, [
        (columns[1], "y", ValueRange.between(0, 1500)),        # ~2 %: sparse at once
        (columns[0], "x", ValueRange.between(0, 30_000)),
    ], scramble=scramble)


@pytest.mark.parametrize("scramble", [True, False])
def test_q6_shaped_conjunction(scramble):
    """Q6's shape at the default block size: a broad then a narrow range on
    one column (``shipdate >= …``, ``shipdate < …``), then two others."""
    rng = np.random.default_rng(6)
    n = 3 * gpu_module._SELECT_BLOCK_ROWS + 77
    columns = columns_of(rng, n, 1 << 12, (2, 0, 3))
    machine = machine_with(columns)
    got = assert_matches_reference(machine, [
        (columns[0], "date", ValueRange(700, None)),            # ~83 %
        (columns[0], "date", ValueRange(None, 1100)),           # ~10 % left
        (columns[1], "disc", ValueRange.between(1000, 2500)),
        (columns[2], "qty", ValueRange(None, 2000)),
    ], scramble=scramble)
    assert len(got) > 0


@pytest.mark.parametrize("survivors", [0, 1])
def test_zero_and_one_survivors(small_blocks, survivors):
    a = np.arange(1000)
    b = np.arange(1000)[::-1].copy()
    columns = [decompose_values(a, residual_bits=0), decompose_values(b, residual_bits=0)]
    machine = machine_with(columns)
    hi = 499 if survivors == 0 else 500
    got = assert_matches_reference(machine, [
        (columns[0], "a", ValueRange.between(0, hi)),    # a <= hi
        (columns[1], "b", ValueRange.between(0, 499)),   # a >= 500
    ])
    assert len(got) == survivors
    # an empty first range: nothing scanned in, every probe reads nothing
    got = assert_matches_reference(machine, [
        (columns[0], "a", ValueRange.empty()),
        (columns[1], "b", ValueRange.between(0, 499)),
    ])
    assert len(got) == 0


def test_column_named_twice_carries_one_payload(small_blocks):
    values = np.random.default_rng(2).integers(0, 5000, 2000)
    column = decompose_values(values, residual_bits=3)
    machine = machine_with([column])
    got = assert_matches_reference(machine, [
        (column, "a", ValueRange(1000, None)),
        (column, "a", ValueRange(None, 3000)),
    ])
    assert list(got.payloads) == ["a"]
    assert not got.exact


def test_precomputed_hits_change_nothing(small_blocks):
    rng = np.random.default_rng(9)
    columns = columns_of(rng, 2500, 1000, (2, 0))
    machine = machine_with(columns)
    conjuncts = [
        (columns[0], "p", ValueRange.between(100, 700)),
        (columns[1], "q", ValueRange.between(0, 300)),
    ]
    hits = cooperative_scan_hits(
        columns[0], [ScanRequest("p", conjuncts[0][2])]
    )["p"]
    assert np.array_equal(
        hits.ascending(), np.flatnonzero(_codes_in(columns[0], conjuncts[0][2]))
    )
    for k in (1, 2):
        assert_matches_reference(machine, conjuncts[:k], precomputed_hits=hits)
        assert_matches_reference(
            machine, conjuncts[:k], precomputed_hits=hits, scramble=False
        )


def test_probes_continue_from_candidates(small_blocks):
    """The ``pushdown=False`` shape: candidates in scrambled order carrying
    payloads — one of them the probed column's own bounds."""
    rng = np.random.default_rng(13)
    columns = columns_of(rng, 2000, 1000, (3, 0, 2))
    machine = machine_with(columns)
    seed = select_approx(
        machine.gpu, machine.new_timeline(), columns[0], "a",
        ValueRange.between(100, 800),
    )
    seed.payloads["extra"] = IntervalColumn.exact(np.arange(len(seed)))
    assert_matches_reference(machine, [
        (columns[1], "b", ValueRange.between(0, 600)),
        (columns[0], "a", ValueRange.between(300, 700)),   # carried bounds
        (columns[2], "c", ValueRange.between(200, 1000)),
    ], candidates=seed)


def test_absent_probe_views_stay_absent(small_blocks):
    """Under an evicting budget a probed column without a decoded view is
    decoded block by block (or gathered) from its packed stream: no view
    is registered, so nothing is evicted to make room for one."""
    rng = np.random.default_rng(21)
    columns = columns_of(rng, 4000, 1 << 12, (0, 3, 0))
    machine = machine_with(columns)
    conjuncts = [
        (columns[0], "a", ValueRange.between(0, 3500)),     # dense
        (columns[1], "b", ValueRange.between(500, 3000)),   # dense, absent view
        (columns[2], "c", ValueRange.between(0, 300)),      # then sparse
    ]
    t_ref = machine.new_timeline()
    ids, payloads, *_ = reference(machine.gpu, t_ref, conjuncts)

    set_view_budget(0, segment_rows=128)                 # drop every view
    set_view_budget(columns[0].approx_codes().nbytes, segment_rows=128)
    columns[0].approx_codes()                            # the scan's own view fits
    assert columns[1]._approx_cache is None and columns[2]._approx_cache is None
    before = view_eviction_stats()
    t_got = machine.new_timeline()
    got = select_conjunction_approx(machine.gpu, t_got, conjuncts)
    assert view_eviction_stats() == before
    assert columns[1]._approx_cache is None and columns[2]._approx_cache is None
    assert len(got) > 0 and np.array_equal(got.ids, ids)
    for label, (lo, hi) in payloads.items():
        assert np.array_equal(got.payloads[label].lo, lo)
        assert np.array_equal(got.payloads[label].hi, hi)
    assert t_got.span_tuples() == t_ref.span_tuples()


def test_columns_of_different_lengths_are_refused():
    columns = [
        decompose_values(np.arange(100), residual_bits=0),
        decompose_values(np.arange(90), residual_bits=0),
    ]
    machine = machine_with(columns)
    with pytest.raises(ValueError, match="length"):
        select_conjunction_approx(machine.gpu, machine.new_timeline(), [
            (columns[0], "a", ValueRange.between(0, 50)),
            (columns[1], "b", ValueRange.between(0, 50)),
        ])
