"""Candidate and exact pairs counted first, runs formed on read.

Four things the theta join leans on, each pinned where it lives:

* **soundness** — a row's exact span lies inside its candidate run, so a
  refinement may ignore the candidate runs altogether;
* **deferred ≡ formed** — a pair set decided per distinct code knows its
  count before it has a single per-row run, and forming the runs changes
  nothing a reader can see;
* **the rank kernel** — ascending needles ranked in a sorted key by one
  stable merge equal ``np.searchsorted`` on both sides;
* **counted ≡ swept** — the candidate count taken off code arithmetic and
  cumulative code counts, and the exact count taken from sorted values,
  equal the bound sweep and the nested loop, and the runs formed on read
  are byte for byte the ones the sweep formed before counting came first
  (``_swept_runs`` / ``_swept_refined`` below keep that sweep).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import RunPairCandidates
from repro.core.theta import (
    Theta,
    ThetaOp,
    _per_code,
    _ranks,
    theta_join_approx,
    theta_join_refine,
    theta_join_reference,
)
from repro.device.machine import Machine
from repro.errors import ExecutionError
from repro.storage.decompose import decompose_values

from pair_sets import pair_set

_I64 = np.iinfo(np.int64)


def _column(rng, n, approx_bits, residual_bits):
    """``n`` values filling ``approx_bits + residual_bits`` bits, both ends
    of the domain present so the decomposition has exactly that shape."""
    hi = 1 << (approx_bits + residual_bits)
    values = np.r_[0, hi - 1, rng.integers(0, hi, n - 2)]
    column = decompose_values(values, residual_bits=residual_bits)
    assert column.decomposition.approx_bits == approx_bits
    return values, column


# ----------------------------------------------------------------------
# (a) soundness: exact span ⊆ candidate run
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    op=st.sampled_from(list(ThetaOp)),
    delta=st.sampled_from([0, 1, 7, 300]),
    residual_left=st.sampled_from([0, 4, 12]),
    residual_right=st.sampled_from([0, 4, 12]),
    per_code=st.booleans(),
    subset=st.booleans(),
)
def test_property_exact_span_lies_inside_the_candidate_run(
    seed, op, delta, residual_left, residual_right, per_code, subset
):
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    # 8 codes under 60+ rows decide per code; 1 024 codes sweep per row
    left_v, left = _column(rng, 80, 3 if per_code else 10, residual_left)
    # the right side shares the left's domain, so every θ has matches
    right_bits = left.decomposition.total_bits
    right_v, right = _column(
        rng, 50, max(right_bits - residual_right, 1), residual_right
    )
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    ids = rng.permutation(80)[:60].astype(np.int64) if subset else None
    assert _per_code(left, 60 if subset else 80) == per_code
    theta = Theta(op, delta=delta)

    runs = theta_join_approx(
        machine.gpu, machine.new_timeline(), left, right, theta, left_ids=ids
    )
    refined = theta_join_refine(
        machine.cpu, machine.new_timeline(), left, right, theta, runs
    )
    truth = pair_set(theta_join_reference(left_v, right_v, theta))
    if ids is not None:
        chosen = set(ids.tolist())
        truth = {(l, r) for l, r in truth if l in chosen}
    assert pair_set(refined) == truth
    if len(runs) == 0:
        return  # nothing to refine: the empty set comes back as it went in
    # The bound sort and the exact sort of the right side agree bucket
    # block by bucket block, so a candidate run and an exact span are
    # comparable as index spans — row by row, whatever order names them.
    candidate = dict(zip(
        runs.left_positions.tolist(),
        zip(runs.starts.tolist(), runs.stops.tolist()),
    ))
    for row, start, stop in zip(
        refined.left_positions.tolist(),
        refined.starts.tolist(), refined.stops.tolist(),
    ):
        if stop > start:
            lo, hi = candidate[row]
            assert lo <= start and stop <= hi, (row, (start, stop), (lo, hi))


# ----------------------------------------------------------------------
# (b) deferred ≡ formed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("subset", [False, True], ids=["whole", "rows"])
@pytest.mark.parametrize(
    "theta",
    [Theta(ThetaOp.LT), Theta(ThetaOp.GE), Theta(ThetaOp.EQ),
     Theta(ThetaOp.WITHIN, 40), Theta(ThetaOp.WITHIN, 0)],
    ids=lambda t: f"{t.op.name}{t.delta}",
)
def test_a_counted_set_is_the_set_it_forms(monkeypatch, theta, subset):
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(23)
    _, left = _column(rng, 300, 6, 4)
    _, right = _column(rng, 120, 7, 3)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    ids = rng.permutation(300)[:200].astype(np.int64) if subset else None

    def join():
        tl = machine.new_timeline()
        return tl, theta_join_approx(
            machine.gpu, tl, left, right, theta, left_ids=ids
        )

    tl_counted, counted = join()
    monkeypatch.setattr("repro.core.theta._per_code", lambda column, n: False)
    tl_swept, swept = join()
    assert "deferred" in repr(counted) and "deferred" in repr(swept)

    # free before a row exists: the count, the flags, the rows as a set
    assert len(counted) == len(swept)
    assert counted.order_key == swept.order_key
    assert counted.whole_left == swept.whole_left == (ids is None)
    assert sorted(counted.left_rows.tolist()) == sorted(swept.left_rows.tolist())
    assert tl_counted.span_tuples() == tl_swept.span_tuples()
    assert "deferred" in repr(counted)

    # the first read forms every field at once, and only once
    assert counted.starts.shape == counted.stops.shape == counted.left_positions.shape
    assert "formed" in repr(counted)
    assert counted.starts is counted.starts
    assert np.array_equal(counted.order, swept.order)
    assert len(counted) == len(swept)
    assert pair_set(counted) == pair_set(swept)

    # a refinement cannot tell them apart either
    tl_a, tl_b = machine.new_timeline(), machine.new_timeline()
    refined = theta_join_refine(machine.cpu, tl_a, left, right, theta, counted)
    refined_swept = theta_join_refine(machine.cpu, tl_b, left, right, theta, swept)
    assert pair_set(refined) == pair_set(refined_swept)
    assert tl_a.span_tuples() == tl_b.span_tuples()


def test_a_miscounted_set_is_refused_when_it_forms():
    order = np.arange(4)
    formed = RunPairCandidates([0, 1], [0, 1], [2, 3], order, order_key="lo")
    lying = RunPairCandidates.deferred(
        len(formed) + 1, lambda: formed,
        order_key="lo", whole_left=True, rows=2,
    )
    assert len(lying) == 5
    with pytest.raises(ExecutionError, match="counted 5 pairs, formed 4"):
        lying.starts


def test_a_whole_column_refinement_never_forms_the_candidates(monkeypatch):
    """The refinement of a whole column reads nothing but the count."""
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(5)
    _, left = _column(rng, 300, 6, 4)
    _, right = _column(rng, 120, 7, 3)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(ThetaOp.WITHIN, 25)
    runs = theta_join_approx(
        machine.gpu, machine.new_timeline(), left, right, theta
    )
    monkeypatch.setattr(
        RunPairCandidates, "_read",
        lambda self: pytest.fail("a whole-column refinement formed the runs"),
    )
    refined = theta_join_refine(
        machine.cpu, machine.new_timeline(), left, right, theta, runs
    )
    assert "deferred" in repr(runs) and 0 < len(refined) <= len(runs)


# ----------------------------------------------------------------------
# (c) the rank kernel
# ----------------------------------------------------------------------
_RANK_CASES = {
    "both empty": ([], []),
    "no needles": ([1, 2, 3], []),
    "no keys": ([], [-4, 0, 0, 9]),
    "ties across the runs": ([1, 3, 3, 5, 7], [0, 1, 3, 4, 7, 8]),
    "ties within the runs": ([2, 2, 2, 6, 6], [2, 2, 5, 6, 6, 6]),
    "all equal": ([4] * 5, [4] * 7),
    "needles below every key": ([10, 11], [1, 2, 3]),
    "needles above every key": ([1, 2], [5, 5, 9]),
    "int64 ends": (
        [_I64.min, _I64.min, -1, 0, _I64.max],
        [_I64.min, _I64.min + 1, 0, _I64.max - 1, _I64.max, _I64.max],
    ),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("case", list(_RANK_CASES))
def test_ranks_equal_searchsorted(case, side):
    key, needles = (np.array(v, dtype=np.int64) for v in _RANK_CASES[case])
    got = _ranks(key, needles, side)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(key, needles, side=side))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_key=st.integers(0, 60),
    n_needles=st.integers(0, 60),
    spread=st.sampled_from([1, 3, 50, 1 << 40]),
    side=st.sampled_from(["left", "right"]),
)
def test_property_ranks_equal_searchsorted(seed, n_key, n_needles, spread, side):
    rng = np.random.default_rng(seed)
    key = np.sort(rng.integers(-spread, spread + 1, n_key))
    needles = np.sort(rng.integers(-spread, spread + 1, n_needles))
    assert np.array_equal(
        _ranks(key, needles, side), np.searchsorted(key, needles, side=side)
    )


# ----------------------------------------------------------------------
# (d) counted ≡ swept, formed ≡ the sweep's runs
# ----------------------------------------------------------------------
def _swept_runs(left, right, theta, ids):
    """The candidate runs as the bound sweep formed them: ``np.searchsorted``
    of the left bounds (per code, or per row in code order) into the right
    side's bound-sorted bounds."""
    dec, rdec = left.decomposition, right.decomposition
    order_key = "hi" if theta.op in (ThetaOp.LT, ThetaOp.LE) else "lo"
    order = right.sort_permutation(order_key)
    key_lo = rdec.approx_lower_bounds(right.approx_codes())[order]
    key_hi = key_lo + rdec.max_error
    n_right = right.length

    def sweep(codes):
        lo = dec.approx_lower_bounds(codes)
        hi = lo + dec.max_error
        full, zero = np.full(len(lo), n_right), np.zeros(len(lo), np.int64)
        op = theta.op
        if op is ThetaOp.LT:
            return np.searchsorted(key_hi, lo, "right"), full
        if op is ThetaOp.LE:
            return np.searchsorted(key_hi, lo, "left"), full
        if op is ThetaOp.GT:
            return zero, np.searchsorted(key_lo, hi, "left")
        if op is ThetaOp.GE:
            return zero, np.searchsorted(key_lo, hi, "right")
        delta = theta.delta if op is ThetaOp.WITHIN else 0
        starts = np.searchsorted(key_lo, lo - delta - rdec.max_error, "left")
        stops = np.searchsorted(key_lo, hi + delta, "right")
        return starts, np.maximum(stops, starts)

    n_left = left.length if ids is None else len(ids)
    if (1 << dec.approx_bits) <= n_left:
        starts, stops = sweep(np.arange(dec.max_code + 1))
        codes = left.approx_codes() if ids is None else left.approx_at(ids)
        rows = np.arange(n_left) if ids is None else ids
        return rows, starts[codes], stops[codes], order
    if ids is None:
        rows, codes = left.sort_permutation("lo"), left.sorted_approx_codes()
    else:
        codes = left.approx_at(ids)
        by_code = np.argsort(codes)
        rows, codes = ids[by_code], codes[by_code]
    return (rows, *sweep(codes), order)


def _swept_refined(left, right, theta, rows):
    """The refined runs as the eager refinement formed them, over the
    candidate rows ``rows`` as formed (``None``: the whole column)."""
    order = right.sort_permutation("exact")
    key = right.reconstruct()[order]
    if rows is None:
        rows = left.sort_permutation("exact")
        needles = left.reconstruct()[rows]
    else:
        needles = left.reconstruct(rows)
        by_value = np.argsort(needles)
        rows, needles = rows[by_value], needles[by_value]
    n, n_left, op = len(key), len(needles), theta.op
    if op in (ThetaOp.LT, ThetaOp.LE):
        side = "right" if op is ThetaOp.LT else "left"
        return rows, np.searchsorted(key, needles, side), np.full(n_left, n), order
    if op in (ThetaOp.GT, ThetaOp.GE):
        side = "left" if op is ThetaOp.GT else "right"
        return rows, np.zeros(n_left), np.searchsorted(key, needles, side), order
    delta = theta.delta if op is ThetaOp.WITHIN else 0
    return (
        rows, np.searchsorted(key, needles - delta, "left"),
        np.searchsorted(key, needles + delta, "right"), order,
    )


def _fields(runs):
    return (runs.left_positions, runs.starts, runs.stops, runs.order)


def _assert_formed_as(runs, swept):
    for got, want in zip(_fields(runs), swept):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


#: δ against the right side's bucket width ``w``: zero, inside one bucket
#: (``1`` puts bound meets bound when both widths agree), a bucket, beyond
_DELTAS = {
    "zero": lambda w: 0,
    "one": lambda w: 1,
    "below width": lambda w: w // 2,
    "width - 1": lambda w: w - 1,
    "width": lambda w: w,
    "above width": lambda w: 3 * w + 1,
}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    op=st.sampled_from(list(ThetaOp)),
    delta_kind=st.sampled_from(list(_DELTAS)),
    residual_left=st.sampled_from([0, 3, 6]),
    residual_right=st.sampled_from([0, 3, 6]),
    per_code=st.booleans(),
    right_per_code=st.booleans(),
    left_side=st.sampled_from(["whole", "subset", "empty"]),
)
def test_property_counted_sets_equal_the_sweep_and_form_its_runs(
    seed, op, delta_kind, residual_left, residual_right, per_code,
    right_per_code, left_side,
):
    machine = Machine.paper_testbed()
    rng = np.random.default_rng(seed)
    n_left, n_right = 90, 70
    # 2**3 codes under 90 rows decide per code, 2**9 per row; the right
    # side ranks through its code counts (2**4 codes under 70 rows) or
    # searches its sorted codes (2**8) — over a domain of its own
    left_v, left = _column(rng, n_left, 3 if per_code else 9, residual_left)
    right_v, right = _column(
        rng, n_right, 4 if right_per_code else 8, residual_right
    )
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    theta = Theta(op, delta=_DELTAS[delta_kind](right.decomposition.bucket))
    ids = {
        "whole": None,
        "subset": rng.permutation(n_left)[: int(rng.integers(1, n_left))],
        "empty": np.empty(0, dtype=np.int64),
    }[left_side]
    if ids is not None:
        ids = ids.astype(np.int64)

    runs = theta_join_approx(
        machine.gpu, machine.new_timeline(), left, right, theta, left_ids=ids
    )
    swept = _swept_runs(left, right, theta, ids)
    assert len(runs) == int((swept[2] - swept[1]).sum())
    refined = theta_join_refine(
        machine.cpu, machine.new_timeline(), left, right, theta, runs
    )
    truth = theta_join_reference(
        left_v if ids is None else left_v[ids], right_v, theta
    )
    assert len(refined) == len(truth)
    if len(runs) == 0:
        return
    assert "deferred" in repr(runs) and "deferred" in repr(refined)

    # a WHERE re-check narrows the counted set without forming it
    keep = rng.random(len(runs.left_rows)) < 0.5
    narrowed = runs.rows_narrowed(keep)
    assert "deferred" in repr(runs) and "deferred" in repr(narrowed)
    kept = set(runs.left_rows[keep].tolist())
    formed_keep = np.array([row in kept for row in swept[0].tolist()], dtype=bool)
    narrowed_swept = [field[formed_keep] for field in swept[:3]] + [swept[3]]
    assert len(narrowed) == int((narrowed_swept[2] - narrowed_swept[1]).sum())

    # formed on read: byte for byte the sweep's runs
    _assert_formed_as(refined, _swept_refined(
        left, right, theta, None if ids is None else swept[0]
    ))
    _assert_formed_as(runs, swept)
    _assert_formed_as(narrowed, narrowed_swept)
    assert len(refined) == len(refined.materialized())
