"""A theta join under a selection costs its candidates (PR 15).

``theta_join_approx(left_ids=…)`` gathers the candidates' bounds only and
searches with needles sorted once per phase; the results must stay what the
whole-column-then-subset path produced: the same pair set as the whole
column's runs restricted to the selection, the same refined set as the
exact reference — for any id order, including a scrambled selection of
*every* row (as long as the column, but not the whole column in row order).
"""

import numpy as np
import pytest

from repro.core.candidates import RunPairCandidates
from repro.core.theta import (
    Theta,
    ThetaOp,
    theta_join_approx,
    theta_join_refine,
    theta_join_reference,
)
from repro.device.machine import Machine
from repro.storage.decompose import decompose_values

from pair_sets import narrowed, pair_set, set_equals

THETAS = [
    Theta(ThetaOp.LT), Theta(ThetaOp.LE), Theta(ThetaOp.GT), Theta(ThetaOp.GE),
    Theta(ThetaOp.EQ), Theta(ThetaOp.WITHIN, 40),
]


def columns(machine, residual_bits):
    rng = np.random.default_rng(17)
    left_v = rng.integers(0, 3000, 240)
    right_v = rng.integers(0, 3000, 90)
    left = decompose_values(left_v, residual_bits=residual_bits)
    right = decompose_values(right_v, residual_bits=residual_bits)
    machine.gpu.load_column("l", left, None)
    machine.gpu.load_column("r", right, None)
    return left_v, right_v, left, right


def id_sets(n):
    rng = np.random.default_rng(3)
    return {
        "subset": rng.permutation(n)[:77],
        "every row, scrambled": rng.permutation(n),
        "every row, in order": np.arange(n),
        "one": np.array([n - 1]),
        "none": np.array([], dtype=np.int64),
    }


@pytest.mark.parametrize("theta", THETAS, ids=lambda t: t.op.value)
@pytest.mark.parametrize("residual_bits", [0, 5])
def test_selected_left_side_matches_oracles(theta, residual_bits):
    machine = Machine.paper_testbed()
    left_v, right_v, left, right = columns(machine, residual_bits)
    truth = pair_set(theta_join_reference(left_v, right_v, theta))
    whole = theta_join_approx(
        machine.gpu, machine.new_timeline(), left, right, theta
    ).materialized()
    for name, ids in id_sets(len(left_v)).items():
        runs = theta_join_approx(
            machine.gpu, machine.new_timeline(), left, right, theta,
            left_ids=ids,
        )
        assert isinstance(runs, RunPairCandidates), name
        assert not runs.whole_left, name  # a selection never claims the column
        # the selected rows, each once — named in the sweep's order, not ours
        assert np.array_equal(np.sort(runs.left_positions), np.sort(ids)), name
        assert set_equals(
            runs, narrowed(whole, np.isin(whole.left_positions, ids))
        ), name

        refined = theta_join_refine(
            machine.cpu, machine.new_timeline(), left, right, theta, runs
        )
        chosen = set(ids.tolist())
        want = {(l, r) for l, r in truth if l in chosen}
        assert pair_set(refined) == want, name


def test_whole_column_runs_say_so_and_keep_saying_so():
    machine = Machine.paper_testbed()
    _, _, left, right = columns(machine, 5)
    theta = Theta(ThetaOp.WITHIN, 40)
    tl = machine.new_timeline()
    runs = theta_join_approx(machine.gpu, tl, left, right, theta)
    assert runs.whole_left
    refined = theta_join_refine(machine.cpu, tl, left, right, theta, runs)
    assert refined.whole_left and refined.order_key == "exact"
    # what the word buys: the refinement of a whole column sorts nothing —
    # its rows are the column's memoized exact order itself
    assert np.shares_memory(
        refined.left_positions, left.sort_permutation("exact")
    )
    keep = np.ones(left.length, dtype=bool)
    assert not refined.rows_narrowed(keep).whole_left  # a subset, by contract
