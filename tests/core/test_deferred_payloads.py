"""Device payloads are billed when their operator runs, gathered when read.

A projection's, a scan's and a probe's bucket bounds are attached deferred
over the candidate ids (``IntervalColumn.deferred``): ``len()``,
``is_exact`` and ``refinable`` are known unread, ``lo`` / ``hi`` are formed
on their first read.  Pinned here, against the eager gather
(``_payload_from_codes`` of ``approx_at``) as the reference:

* a deferred payload, once read, equals the eager one — for 0 and 8
  residual bits, over some ids, all of them and none;
* ``take`` of an unread payload gathers nothing and equals the eager take;
* ``Approximation.narrowed`` takes the ids once: unread payloads stand on
  the kept ids, formed ones are taken;
* Q1 through ``Session.execute`` gathers whole columns only for what its
  aggregates read — the four measures, and the two keys once, for the
  group-major composite — and reads the keys' payloads at one row per
  group; resident, and under a view budget that takes the cold branch;
* the FK join's target gather stays eager: a dangling key is refused even
  when nothing reads the payload.
"""

import numpy as np
import pytest

from repro.core.approximate import (
    _bounds_at,
    _payload_from_codes,
    fk_join_approx,
    project_approx,
    select_approx,
)
from repro.core.candidates import Approximation
from repro.core.relax import ValueRange
from repro.device.machine import Machine
from repro.storage import decompose
from repro.storage.decompose import BwdColumn, decompose_values, set_view_budget
from repro.workloads.tpch import LINEITEM_SCHEMA, TpchConfig, build_tpch_session, q1_sql

N = 5_000


@pytest.fixture()
def gathers(monkeypatch):
    """``(column, positions)`` of every ``BwdColumn.approx_at`` call."""
    seen = []
    real = BwdColumn.approx_at
    monkeypatch.setattr(
        BwdColumn, "approx_at",
        lambda self, positions: seen.append((self, len(positions)))
        or real(self, positions),
    )
    return seen


@pytest.fixture(autouse=True)
def unbounded_after():
    yield
    set_view_budget(None)


def loaded(residual_bits, seed=29):
    machine = Machine.paper_testbed()
    values = np.random.default_rng(seed).integers(0, 1 << 20, N)
    column = decompose_values(values, residual_bits=residual_bits)
    machine.gpu.load_column(f"v{seed}", column, None)
    return machine, column


IDS = {
    "some": np.sort(np.random.default_rng(1).choice(N, 700, replace=False)),
    "scattered": np.random.default_rng(2).permutation(N)[:900],
    "all": np.arange(N),
    "none": np.empty(0, dtype=np.int64),
}


def assert_equal_payloads(got, want):
    assert len(got) == len(want)
    assert got.is_exact == want.is_exact
    assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
    assert got.lo.dtype == want.lo.dtype == np.int64
    if len(want):  # no rows are error-free, whatever arrays hold them
        assert got.refinable == want.refinable
        assert (got.hi is got.lo) == (want.hi is want.lo)


@pytest.mark.parametrize("residual_bits", [0, 8])
@pytest.mark.parametrize("ids", sorted(IDS))
def test_deferred_equals_eager(residual_bits, ids, gathers):
    machine, column = loaded(residual_bits)
    positions = IDS[ids]
    payload = _bounds_at(machine.gpu, column, positions)
    eager = _payload_from_codes(column, column.approx_at(positions))
    gathers.clear()
    assert len(payload) == positions.size
    assert payload.is_exact == eager.is_exact
    assert payload.refinable == eager.refinable
    assert gathers == [], "length and exactness are known unread"
    assert_equal_payloads(payload, eager)
    assert gathers == [(column, positions.size)], "one gather, on the first read"


@pytest.mark.parametrize("residual_bits", [0, 8])
def test_take_of_an_unread_payload_gathers_nothing(residual_bits, gathers):
    machine, column = loaded(residual_bits)
    ids = IDS["scattered"]
    picks = [
        np.random.default_rng(3).permutation(ids.size)[:300],
        np.empty(0, dtype=np.int64),
        lambda rows: rows[::7],
    ]
    eager = _payload_from_codes(column, column.approx_at(ids))
    gathers.clear()
    for pick in picks:
        payload = _bounds_at(machine.gpu, column, ids)
        taken = payload.take(pick)
        assert gathers == [], "take composes positions"
        assert_equal_payloads(taken, eager.take(pick))
        assert gathers == [(column, len(taken))], "gathered at the kept rows"
        gathers.clear()


@pytest.mark.parametrize("residual_bits", [0, 8])
def test_narrowed_takes_the_ids_once(residual_bits, gathers):
    machine, column = loaded(residual_bits)
    _, other = loaded(0, seed=30)
    machine.gpu.load_column("w", other, None)
    timeline = machine.new_timeline()
    candidates = select_approx(
        machine.gpu, timeline, column, "v", ValueRange(100_000, 900_000)
    )
    project_approx(machine.gpu, timeline, other, "w", candidates)
    read = candidates.payload("v").lo  # "v" formed, "w" unread
    gathers.clear()

    keep = np.random.default_rng(4).permutation(len(candidates))[:500]
    calls = []

    def counted(rows):
        calls.append(rows.size)
        return rows.take(keep)

    narrowed = candidates.narrowed(counted)
    formed_ends = 1 if residual_bits == 0 else 2  # a degenerate column is one array
    assert len(calls) == 1 + formed_ends, "the ids once, and each formed end"
    assert gathers == []
    assert np.array_equal(narrowed.payload("v").lo, read.take(keep))
    assert_equal_payloads(
        narrowed.payload("w"),
        _payload_from_codes(other, other.approx_at(candidates.ids.take(keep))),
    )
    assert [size for _, size in gathers] == [keep.size] * 2  # "w", and the reference


# ----------------------------------------------------------------------
# Q1 end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [None, 64 << 10])
def test_q1_gathers_what_its_aggregates_read(budget, gathers, monkeypatch):
    """The scan column's payload is never gathered (an exact set is certain
    structurally), the keys' only at one row per group; 64 KiB is to this
    60 K-row table what ``solo.evict``'s 8 MiB is to its 1 M rows: every
    gather takes the cold branch."""
    set_view_budget(budget)
    session = build_tpch_session(TpchConfig(scale_factor=0.01))
    names = {
        id(session.catalog.decomposition_of("lineitem", c)): c
        for c in LINEITEM_SCHEMA
    }
    cold = []
    packed = decompose.gather_codes
    monkeypatch.setattr(
        decompose, "gather_codes", lambda *a: cold.append(1) or packed(*a)
    )
    result = session.execute(q1_sql(), mode="ar")
    n, n_groups = result.approximate.candidate_rows, result.row_count
    seen = [(names[id(column)], size) for column, size in gathers]
    assert n > 50 * n_groups and n_groups == 4
    assert sorted(name for name, size in seen if size == n) == sorted([
        "quantity", "extendedprice", "discount", "tax",
        "returnflag", "linestatus",  # the composite's key codes
    ])
    assert sorted(pair for pair in seen if pair[1] != n) == [
        ("linestatus", n_groups), ("returnflag", n_groups),
    ]
    assert (len(cold) == len(seen)) if budget else not cold

    classic = session.execute(q1_sql(), mode="classic")
    keys = ("returnflag", "linestatus")
    got, want = result.sorted_by(*keys), classic.sorted_by(*keys)
    for name in want.columns:
        assert np.array_equal(got.columns[name], want.columns[name]), name


# ----------------------------------------------------------------------
# FK join: the target gather stays eager
# ----------------------------------------------------------------------
def fk_setup(fk_values):
    machine = Machine.paper_testbed()
    fk = decompose_values(np.asarray(fk_values), residual_bits=0)
    target = decompose_values(np.arange(10, dtype=np.int64) * 3, residual_bits=0)
    machine.gpu.load_column("fk", fk, None)
    machine.gpu.load_column("x", target, None)
    return machine, fk, target


def test_a_dangling_fk_is_refused_unread():
    machine, fk, target = fk_setup([0, 3, 9, 12, 1])  # 12: no such row
    candidates = Approximation(np.arange(5), exact=True)
    with pytest.raises(IndexError, match="gather position out of range"):
        fk_join_approx(
            machine.gpu, machine.new_timeline(), fk, target, "dim.x", candidates
        )


def test_a_sound_fk_joins_as_before():
    machine, fk, target = fk_setup([0, 3, 9, 2, 1])
    out = fk_join_approx(
        machine.gpu, machine.new_timeline(), fk, target, "dim.x",
        Approximation(np.arange(5), exact=True),
    )
    assert out.payload("dim.x").lo.tolist() == [0, 9, 27, 6, 3]
    assert out.exact
