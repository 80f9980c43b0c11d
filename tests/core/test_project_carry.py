"""When ``project_approx`` gathers: on first read, and never for a carry.

A projection bills the positional lookup when it runs and attaches the
bucket bounds deferred: the codes are gathered when ``lo`` / ``hi`` are
first read, once.  The deferred payload equals the one an eager gather
forms — bounds, exactness, refinability — and bills the same.

``select sum(v) … where v between …`` scans ``v`` (the candidates carry its
bucket bounds) and then projects ``v`` for the aggregate: the projection
reuses the carried payload instead of looking the same codes up at the same
ids again — same payload, same modeled charge, no gather.
"""

import numpy as np
import pytest

from repro.core.approximate import _payload_from_codes, project_approx, select_approx
from repro.core.candidates import Approximation
from repro.core.relax import ValueRange
from repro.device.machine import Machine
from repro.storage.decompose import BwdColumn, decompose_values


@pytest.fixture()
def gathers(monkeypatch):
    """Sizes of every ``BwdColumn.approx_at`` call."""
    seen = []
    real = BwdColumn.approx_at
    monkeypatch.setattr(
        BwdColumn, "approx_at",
        lambda self, positions: seen.append(len(positions)) or real(self, positions),
    )
    return seen


def scanned(residual_bits):
    machine = Machine.paper_testbed()
    values = np.random.default_rng(6).integers(0, 1 << 20, 5_000)
    column = decompose_values(values, residual_bits=residual_bits)
    machine.gpu.load_column("v", column, None)
    out = select_approx(
        machine.gpu, machine.new_timeline(), column, "v",
        ValueRange(100_000, 600_000),
    )
    assert len(out) > 100 and "v" in out.labels
    return machine, column, out


def bare(candidates):
    return Approximation(
        ids=candidates.ids, order_preserved=candidates.order_preserved,
        exact=candidates.exact,
    )


@pytest.mark.parametrize("residual_bits", [0, 8])
def test_projection_gathers_on_first_read_what_an_eager_gather_forms(
    residual_bits, gathers
):
    machine, column, candidates = scanned(residual_bits)
    ids = candidates.ids
    timeline = machine.new_timeline()
    projected = project_approx(machine.gpu, timeline, column, "v", bare(candidates))
    assert gathers == [], "no gather at projection"

    payload = projected.payload("v")
    eager = _payload_from_codes(column, column.approx_at(ids))
    gathers.clear()
    assert len(payload) == len(ids)
    assert payload.is_exact == eager.is_exact == (residual_bits == 0)
    assert payload.refinable == eager.refinable
    assert gathers == [], "length and exactness are known unread"

    assert np.array_equal(payload.lo, eager.lo)
    assert gathers == [len(ids)], "one gather, on the first read"
    assert np.array_equal(payload.hi, eager.hi)
    assert (payload.hi is payload.lo) == (eager.hi is eager.lo)
    assert gathers == [len(ids)], "formed once, then kept"
    assert projected.exact == (residual_bits == 0)

    eager_timeline = machine.new_timeline()
    machine.gpu.gather_codes(column, ids, eager_timeline, "project.approx(v)")
    assert timeline.span_tuples() == eager_timeline.span_tuples()


@pytest.mark.parametrize("residual_bits", [0, 8])
def test_same_payload_and_charges_with_and_without_the_carry(
    residual_bits, gathers
):
    machine, column, candidates = scanned(residual_bits)
    tl_carry, tl_bare = machine.new_timeline(), machine.new_timeline()
    fresh, scans = bare(candidates), candidates.payload("v")
    carried = project_approx(machine.gpu, tl_carry, column, "v", candidates)
    gathered = project_approx(machine.gpu, tl_bare, column, "v", fresh)
    assert gathers == [], "billed, not gathered"
    assert carried.payload("v") is scans, "the carry attaches nothing"
    assert carried.payload("v").is_exact == gathered.payload("v").is_exact

    assert np.array_equal(carried.payload("v").lo, gathered.payload("v").lo)
    assert np.array_equal(carried.payload("v").hi, gathered.payload("v").hi)
    # the carried payload is the scan's own: one gather each, none for the carry
    assert gathers == [len(candidates)] * 2
    assert carried.exact == gathered.exact == (residual_bits == 0)
    assert tl_carry.span_tuples() == tl_bare.span_tuples()
    assert [op for _, _, op, *_ in tl_carry.span_tuples()] == ["project.approx(v)"]
