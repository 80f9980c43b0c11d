"""How the conjunction kernel evaluated a block is invisible (PR 16).

A scan and its probes execute as one blocked pass that takes the bitmap or
the position list block by block.  Whatever it took — forced all-bitmap,
forced all-positions, tiny blocks, the defaults — and however the query
reached it — ``Session.query``, the ``pushdown=False`` ablation, a fused
serve batch handing the scan's hits in, an evicting view budget — the
``Result``, the free approximate answer and every modeled charge are the
same bytes, and the exact result is the classic executor's.
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.device import gpu as gpu_module
from repro.storage.decompose import set_view_budget, view_eviction_stats

N = 9_000


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(31)
    s = Session()
    day = np.sort(rng.integers(0, 2_000, N))            # clustered, like a date
    s.create_table(
        "f",
        {"day": IntType(), "d": IntType(), "q": IntType(), "p": IntType()},
        {
            "day": day, "d": rng.integers(0, 11, N),
            "q": rng.integers(1, 51, N), "p": rng.integers(0, 90_000, N),
        },
    )
    s.create_table("r", {"v": IntType()}, {"v": rng.integers(0, 2_000, 300)})
    s.bwdecompose("f", "day", 32)
    s.bwdecompose("f", "d", 32)
    s.bwdecompose("f", "q", 30)      # 2 residual bits
    s.bwdecompose("f", "p", 24)      # 8 residual bits
    s.bwdecompose("r", "v", 28)
    return s


def builders(s):
    f = lambda: s.table("f")  # noqa: E731
    return [
        # the Q6 shape: a column named twice, then two more conjuncts
        f().where("day", ">=", 400).where("day", "<", 1_100)
        .where("d", between=(4, 6)).where("q", "<", 24).sum("p", "revenue"),
        f().where("day", between=(900, 960)).where("q", between=(10, 30))
        .sum("p", "s").count("n"),
        f().where("q", "<=", 45).group_by("d").sum("p", "s").avg("q", "m"),
        f().where("p", between=(10_000, 60_000)).where("day", "<", 1_500)
        .where("q", ">", 40).select("day", "p"),
        f().where("day", ">", 5_000).where("d", "<", 3).count("n"),   # empty scan
        f().where("d", "<", 9).where("day", between=(100, 1_900))
        .where("q", "<", 3).min("p", "lo"),
        f().where("day", between=(300, 700)).where("d", ">=", 5)
        .band_join("r", on=("day", "v"), delta=3).count("m"),
    ]


def snapshot(result):
    return (
        {k: np.asarray(v).tolist() for k, v in result.columns.items()},
        result.row_count,
        result.approximate,
        result.timeline.span_tuples(),
    )


def run_all(s, pushdown=True):
    return [
        snapshot(b.run(mode=mode, pushdown=pushdown))
        for b in builders(s) for mode in ("ar", "approximate")
        # the theta plan has no no-pushdown form
        if pushdown or not b.build().theta_joins
    ]


@pytest.mark.parametrize(
    "block_rows, sparse_share",
    [(64, 1 / 8), (256, 0.0), (256, 1.0), (1 << 16, 0.0), (1 << 16, 1.0)],
    ids=["tiny-blocks", "all-bitmap", "all-positions", "one-block-bitmap",
         "one-block-positions"],
)
@pytest.mark.parametrize("pushdown", [True, False])
def test_block_evaluation_is_invisible(session, monkeypatch, block_rows, sparse_share, pushdown):
    want = run_all(session, pushdown)
    monkeypatch.setattr(gpu_module, "_SELECT_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(gpu_module, "_SPARSE_SHARE", sparse_share)
    assert run_all(session, pushdown) == want


def test_exact_results_are_the_classic_executors(session):
    for b in builders(session):
        ar, classic = b.run(mode="ar"), b.run(mode="classic")
        assert list(ar.columns) == list(classic.columns)
        for name in ar.columns:
            a, c = np.asarray(ar.columns[name]), np.asarray(classic.columns[name])
            if ar.row_count and not b.build().is_aggregation() and not b.build().theta_joins:
                a, c = np.sort(a), np.sort(c)   # candidate order is the device's
            assert np.array_equal(a, c), name


def test_fused_serve_batches_hand_the_scan_in(session):
    solo = [snapshot(b.run(mode="ar")) for b in builders(session)]
    server = session.serve(max_batch=16, optimizer="heuristic")
    handles = [b.submit(server) for b in builders(session)]
    server.drain()
    assert [snapshot(h.result()) for h in handles] == solo
    assert server.stats.fused_queries >= 2


def test_an_evicting_budget_changes_nothing_and_probes_register_no_view(session):
    want = run_all(session)
    set_view_budget(24 * 1024, segment_rows=512)   # < the four fact views
    assert run_all(session) == want
    # With only the scanned column's view resident, a conjunction leaves
    # the eviction counters where they were: probed columns are read from
    # their packed streams, not decoded into (evicting) views.
    set_view_budget(0, segment_rows=512)
    day = session.catalog.decomposition_of("f", "day")
    set_view_budget(day.approx_codes().nbytes, segment_rows=512)
    day.approx_codes()
    before = view_eviction_stats()
    got = snapshot(builders(session)[0].run(mode="approximate"))
    assert view_eviction_stats() == before
    assert got == want[1]
