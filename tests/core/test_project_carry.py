"""``project_approx`` on a column the candidates already carry (PR 15).

``select sum(v) … where v between …`` scans ``v`` (the candidates carry its
bucket bounds) and then projects ``v`` for the aggregate: the projection
reuses the carried payload instead of gathering the same codes at the same
ids again — same payload, same modeled charge.
"""

import numpy as np
import pytest

from repro.core.approximate import project_approx, select_approx
from repro.core.candidates import Approximation
from repro.core.relax import ValueRange
from repro.device.machine import Machine
from repro.storage.decompose import BwdColumn, decompose_values


@pytest.mark.parametrize("residual_bits", [0, 8])
def test_same_payload_and_charges_with_and_without_the_carry(
    residual_bits, monkeypatch
):
    machine = Machine.paper_testbed()
    values = np.random.default_rng(6).integers(0, 1 << 20, 5_000)
    column = decompose_values(values, residual_bits=residual_bits)
    machine.gpu.load_column("v", column, None)
    scanned = select_approx(
        machine.gpu, machine.new_timeline(), column, "v",
        ValueRange(100_000, 600_000),
    )
    assert len(scanned) > 100 and "v" in scanned.payloads

    gathers = []
    real = BwdColumn.approx_at
    monkeypatch.setattr(
        BwdColumn, "approx_at",
        lambda self, positions: gathers.append(len(positions))
        or real(self, positions),
    )
    bare = Approximation(
        ids=scanned.ids, order_preserved=scanned.order_preserved,
        exact=scanned.exact,
    )
    tl_carry, tl_bare = machine.new_timeline(), machine.new_timeline()
    carried = project_approx(machine.gpu, tl_carry, column, "v", scanned)
    assert gathers == [], "the carried payload served the projection"
    gathered = project_approx(machine.gpu, tl_bare, column, "v", bare)
    assert gathers == [len(scanned)]

    assert np.array_equal(carried.payload("v").lo, gathered.payload("v").lo)
    assert np.array_equal(carried.payload("v").hi, gathered.payload("v").hi)
    assert carried.payload("v").is_exact == gathered.payload("v").is_exact
    assert carried.exact == gathered.exact == (residual_bits == 0)
    assert tl_carry.span_tuples() == tl_bare.span_tuples()
    assert [op for _, _, op, *_ in tl_carry.span_tuples()] == ["project.approx(v)"]
