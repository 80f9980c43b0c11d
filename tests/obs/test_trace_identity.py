"""Property tests: tracing is an observer, never a participant.

The PR-10 invariant — enabling a :class:`repro.obs.trace.Tracer` leaves
every Result and every modeled Timeline byte-identical to the untraced
run — across execution mode for a theta and a band join, under an
aggressively evicting decoded-view budget, under injected transient
faults on a 4-shard session, and through the serving scheduler with
delta rows in flight.  Each arm builds a fresh identically-seeded world
(the fault injector is stateful; sharing one session across arms would
compare different fault decisions, not tracing).
"""

import numpy as np
import pytest

from repro.engine.session import Session
from repro.faults.policy import RetryPolicy
from repro.faults.profile import FaultProfile
from repro.obs.trace import Tracer
from repro.shard.session import ShardedSession
from repro.storage.column import IntType
from repro.storage.decompose import set_view_budget

DOMAIN = 1 << 20
MODES = ("ar", "classic", "approximate")


def _solo_session(seed=3):
    rng = np.random.default_rng(seed)
    s = Session()
    s.create_table(
        "L", {"v": IntType(), "g": IntType()},
        {
            "v": rng.integers(0, DOMAIN, 8_000),
            "g": rng.integers(0, 4, 8_000),
        },
    )
    s.create_table(
        "R", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, 200)}
    )
    s.bwdecompose("L", "v", 24)
    s.bwdecompose("R", "v", 24)
    return s


def _sharded_session(seed=9):
    rng = np.random.default_rng(seed)
    s = ShardedSession(4, retry_policy=RetryPolicy())
    s.create_table(
        "fact", {"v": IntType()},
        {"v": rng.integers(0, DOMAIN, 40_000).astype(np.int64)},
    )
    s.bwdecompose("fact", "v", 24)
    return s


def assert_identical(a, b):
    assert a.row_count == b.row_count
    assert set(a.columns) == set(b.columns)
    for name in a.columns:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    assert a.timeline.span_tuples() == b.timeline.span_tuples()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("op,delta", [("<", 0), ("within", 4_000)])
def test_traced_solo_theta_identical(mode, op, delta):
    def run(traced):
        s = _solo_session()
        if traced:
            s.attach_tracer(Tracer())
        return (
            s.table("L")
            .where("v", between=(50_000, 900_000))
            .theta_join("R", on="v", op=op, delta=delta)
            .count("n")
            .run(mode=mode)
        )

    assert_identical(run(True), run(False))


@pytest.mark.parametrize("mode", MODES)
def test_traced_identical_under_evicting_view_budget(mode):
    def run(traced):
        s = _solo_session()
        if traced:
            s.attach_tracer(Tracer())
        set_view_budget(64 * 1024, segment_rows=2048)
        try:
            return (
                s.table("L")
                .where("v", between=(10_000, 700_000))
                .group_by("g")
                .count("n")
                .run(mode=mode)
            )
        finally:
            set_view_budget(None)

    assert_identical(run(True), run(False))


@pytest.mark.parametrize("mode", ("ar", "classic"))
def test_traced_sharded_identical_under_transient_faults(mode):
    def run(traced):
        s = _sharded_session()
        if traced:
            s.attach_tracer(Tracer())
        s.inject_faults(FaultProfile(transient_rate=0.4), seed=5)
        return (
            s.table("fact")
            .where("v", between=(10_000, 600_000))
            .count("n")
            .run(mode=mode)
        )

    a, b = run(True), run(False)
    assert_identical(a, b)
    assert a.retries == b.retries
    assert a.recovery_seconds == b.recovery_seconds


def test_traced_serve_with_deltas_identical():
    ranges = [
        (i * 10_000, i * 10_000 + 150_000) for i in range(6)
    ]

    def run(traced):
        s = _solo_session(seed=17)
        if traced:
            s.attach_tracer(Tracer())
        rng = np.random.default_rng(31)
        s.append("L", {
            "v": rng.integers(0, DOMAIN, 500),
            "g": rng.integers(0, 4, 500),
        })
        out = []
        with s.serve(max_batch=4, optimizer="cost") as server:
            handles = [
                s.table("L").where("v", between=(lo, hi)).count("n")
                .submit(server)
                for lo, hi in ranges
            ]
            server.drain()
            for h in handles:
                out.append(h.result())
        return out

    for a, b in zip(run(True), run(False)):
        assert_identical(a, b)


def test_traced_run_populates_spans_and_modeled_tracks():
    s = _solo_session()
    tracer = Tracer()
    s.attach_tracer(tracer)
    s.table("L").where("v", between=(0, 100_000)).count("n").run()
    qt = tracer.last()
    assert qt is not None and qt.wall_seconds > 0
    tracks = {rec.track for rec in qt.spans}
    assert "query" in tracks
    assert any(t.startswith("modeled.") for t in tracks)
    # Modeled spans carry both clocks.
    modeled = [r for r in qt.spans if r.track.startswith("modeled.")]
    assert modeled and all(r.modeled is not None for r in modeled)
