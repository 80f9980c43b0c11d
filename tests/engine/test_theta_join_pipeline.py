"""The end-to-end A&R theta-join pipeline through the engine.

approx (GPU) → ship pairs (PCI-E) → refine (CPU) → canonical
materialization, checked against the nested-loop reference join.  How
the left side is swept — per distinct code or per row — is unobservable:
same final columns, same modeled timeline, byte for byte.
"""

import numpy as np
import pytest

from repro.core import theta as theta_module
from repro.core.theta import Theta, ThetaOp, theta_join_reference
from repro.engine.session import Session
from repro.errors import PlanError
from repro.storage.column import IntType


def spans_of(timeline):
    return [
        (s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase)
        for s in timeline.spans
    ]


@pytest.fixture()
def session():
    s = Session()
    rng = np.random.default_rng(21)
    s.create_table("orders", {"price": IntType()},
                   {"price": rng.integers(0, 5000, 800)})
    s.create_table("quotes", {"price": IntType()},
                   {"price": rng.integers(0, 5000, 300)})
    s.bwdecompose("orders", "price", residual_bits=4)
    s.bwdecompose("quotes", "price", residual_bits=4)
    return s


def theta_join(session, op, delta=0):
    """orders.price θ quotes.price through the builder, A&R mode."""
    return (
        session.table("orders")
        .theta_join("quotes", on="price", op=op, delta=delta)
        .run(mode="ar")
    )


class TestThetaJoinPipeline:
    @pytest.mark.parametrize("op,delta", [
        ("<", 0), ("<=", 0), (">", 0), (">=", 0), ("=", 0), ("within", 25),
    ])
    def test_matches_reference_join(self, session, op, delta):
        result = theta_join(session, op, delta)
        left_v = session.catalog.table("orders").values("price")
        right_v = session.catalog.table("quotes").values("price")
        truth = theta_join_reference(
            left_v, right_v, Theta(ThetaOp(op), delta)
        ).canonicalized()
        assert result.row_count == len(truth)
        assert np.array_equal(result.column("left_pos"), truth.left_positions)
        assert np.array_equal(result.column("right_pos"), truth.right_positions)

    @pytest.mark.parametrize("op,delta", [
        ("<", 0), ("<=", 0), (">", 0), (">=", 0), ("=", 0), ("within", 25),
    ])
    def test_left_sweep_is_unobservable(self, session, monkeypatch, op, delta):
        """Deciding the left side per distinct code or per row yields
        identical final columns and byte-identical modeled timelines."""
        results = []
        for per_code in (True, False):
            monkeypatch.setattr(
                theta_module, "_per_code", lambda column, n_rows: per_code
            )
            results.append(theta_join(session, op, delta))
        a, b = results
        assert np.array_equal(a.column("left_pos"), b.column("left_pos"))
        assert np.array_equal(a.column("right_pos"), b.column("right_pos"))
        assert spans_of(a.timeline) == spans_of(b.timeline)

    def test_result_is_canonically_ordered(self, session):
        result = theta_join(session, "within", 10)
        left = result.column("left_pos")
        right = result.column("right_pos")
        keys = list(zip(left.tolist(), right.tolist()))
        assert keys == sorted(keys)

    def test_pipeline_crosses_all_three_devices(self, session):
        result = theta_join(session, "<")
        kinds = {kind for _, kind, *_ in spans_of(result.timeline)}
        assert kinds == {"gpu", "bus", "cpu"}
        ops = [op for _, _, op, *_ in spans_of(result.timeline)]
        assert ops[0].startswith("join.theta.approx")
        assert "pairs" in ops
        assert ops[-1] == "join.theta.materialize"

    def test_candidate_rows_reports_superset(self, session):
        result = theta_join(session, "=")
        assert result.approximate is not None
        assert result.approximate.candidate_rows >= result.row_count

    def test_rejects_unknown_op_or_undecomposed(self, session):
        with pytest.raises(PlanError):
            theta_join(session, "!!")
        session.create_table("plain", {"v": IntType()}, {"v": np.arange(10)})
        with pytest.raises(PlanError):
            session.table("plain").theta_join(
                "quotes", on=("v", "price"), op="<"
            ).run(mode="ar")
