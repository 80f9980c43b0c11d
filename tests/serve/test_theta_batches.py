"""Served theta batches: members sharing a right side run one by one.

The batch former groups theta blocks by their right side, so the right
column's memoized sort permutations and decoded views stay hot across the
batch; each member then runs exactly as it would alone.  Its Result,
approximate answer and per-query Timeline must be byte-identical to its
solo run.
"""

import numpy as np
import pytest

from repro import IntType, Session

N = 6_000
M = 500
DOMAIN = 40_000


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(29)
    s = Session()
    s.create_table(
        "f",
        {"a": IntType(), "b": IntType()},
        {
            "a": rng.integers(0, DOMAIN, N),
            "b": rng.integers(0, DOMAIN, N),
        },
    )
    s.create_table("q", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, M)})
    s.bwdecompose("f", "a", 24)
    s.bwdecompose("f", "b", 24)
    s.bwdecompose("q", "v", 24)
    return s


def band_joins(session, right_side):
    """Four whole-column band joins sharing the right side ``q.v``,
    counting their pairs or also summing the right side's values."""
    joins = [
        session.table("f").band_join("q", on=(left, "v"), delta=delta)
        for left, delta in (("a", 48), ("a", 0), ("b", 16), ("b", 300))
    ]
    if right_side:
        joins = [b.agg("sum", "q.v", alias="rs") for b in joins]
    return [b.count(alias="n") for b in joins]


@pytest.mark.parametrize("mode", ["ar", "approximate", "classic"])
@pytest.mark.parametrize("right_side", [False, True], ids=["count", "right_sum"])
def test_served_band_joins_equal_their_solo_runs(session, mode, right_side):
    solo = [b.run(mode=mode) for b in band_joins(session, right_side)]
    with session.serve(max_batch=8) as server:
        handles = [
            b.submit(server, mode=mode) for b in band_joins(session, right_side)
        ]
        batched = [h.result() for h in handles]
        stats = server.stats
    assert stats.shared_right_batches == 1
    for s, b in zip(solo, batched):
        assert s.columns.keys() == b.columns.keys()
        for k in s.columns:
            assert np.array_equal(s.columns[k], b.columns[k])
        assert s.approximate == b.approximate
        assert s.timeline.span_tuples() == b.timeline.span_tuples()
