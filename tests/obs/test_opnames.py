"""Tier-1 lint: every op label charged on a Timeline is declared.

Runs a workload sweep touching every engine (approximate GPU kernels,
CPU refinement, the classic bulk engine, theta joins, grouping,
FK joins, projections, sharded execution with retries and merges,
delta-union ingestion) and asserts each charged span's ``op`` string
canonicalizes into :data:`repro.obs.opnames.DECLARED`.  A renamed or
new kernel label fails here until it is declared — ledger names cannot
drift silently.
"""

import numpy as np

from repro.engine.session import Session
from repro.faults.policy import RetryPolicy
from repro.faults.profile import FaultProfile
from repro.obs.opnames import DECLARED, canonical, is_declared, undeclared
from repro.shard.session import ShardedSession
from repro.storage.column import IntType

DOMAIN = 1 << 20


def _solo_ops() -> set[str]:
    rng = np.random.default_rng(41)
    n = 6_000
    s = Session()
    s.create_table(
        "fact", {"v": IntType(), "g": IntType(), "fk": IntType()},
        {
            "v": rng.integers(0, DOMAIN, n),
            "g": rng.integers(0, 5, n),
            "fk": rng.integers(0, 50, n),
        },
    )
    s.create_table(
        "dim", {"id": IntType(), "w": IntType()},
        {"id": np.arange(50), "w": rng.integers(0, 1000, 50)},
    )
    s.create_table(
        "R", {"v": IntType()}, {"v": rng.integers(0, DOMAIN, 150)}
    )
    s.bwdecompose("fact", "v", 24)
    s.bwdecompose("R", "v", 24)

    ops: set[str] = set()

    def collect(result):
        ops.update(span.op for span in result.timeline.spans)

    base = s.table("fact").where("v", between=(10_000, 800_000))
    for mode in ("ar", "classic", "approximate"):
        collect(base.count("n").run(mode=mode))
        collect(base.sum("v", "sv").avg("v", "av")
                .min("v", "mn").max("v", "mx").run(mode=mode))
        collect(base.group_by("g").count("n").run(mode=mode))
        collect(base.select("v", "g").run(mode=mode))
        collect(
            s.table("fact").where("v", between=(0, 300_000))
            .join("dim", fk="fk").group_by("dim.w").count("n")
            .run(mode=mode)
        )
    for mode in ("ar", "approximate", "classic"):
        collect(base.theta_join("R", on="v", op="<").count("n").run(mode=mode))
    return ops


def _sharded_ops() -> set[str]:
    rng = np.random.default_rng(43)
    s = ShardedSession(4, retry_policy=RetryPolicy())
    s.create_table(
        "fact", {"v": IntType()},
        {"v": rng.integers(0, DOMAIN, 20_000).astype(np.int64)},
    )
    s.bwdecompose("fact", "v", 24)
    s.inject_faults(FaultProfile(transient_rate=0.4), seed=5)
    ops: set[str] = set()
    for lo, hi in ((0, 400_000), (100_000, 900_000)):
        for mode in ("ar", "classic"):
            r = (
                s.table("fact").where("v", between=(lo, hi))
                .count("n").run(mode=mode)
            )
            ops.update(span.op for span in r.timeline.spans)
    return ops


def _delta_ops() -> set[str]:
    rng = np.random.default_rng(47)
    s = Session()
    s.create_table(
        "fact", {"v": IntType(), "g": IntType()},
        {
            "v": rng.integers(0, DOMAIN, 5_000),
            "g": rng.integers(0, 4, 5_000),
        },
    )
    s.bwdecompose("fact", "v", 24)
    s.append("fact", {
        "v": rng.integers(0, DOMAIN, 300),
        "g": rng.integers(0, 4, 300),
    })
    ops: set[str] = set()
    base = s.table("fact").where("v", between=(0, 700_000))
    for mode in ("ar", "classic", "approximate"):
        r = base.count("n").run(mode=mode)
        ops.update(span.op for span in r.timeline.spans)
    r = base.avg("v", "av").run(mode="classic")
    ops.update(span.op for span in r.timeline.spans)
    return ops


def test_every_charged_op_is_declared():
    charged = _solo_ops() | _sharded_ops() | _delta_ops()
    assert charged, "workload sweep charged nothing — broken harness"
    assert undeclared(charged) == []


def test_canonicalization_examples():
    assert canonical("select.approx(fact.v)") == "select.approx"
    assert canonical("fault.retry.backoff[shard 2]") == "fault.retry.backoff"
    assert canonical("load:fact.v") == "load"
    assert canonical("cpu.selectv in [1, 5]") == "cpu.select"
    assert canonical("ingest.delta.cpu.selectv < 3") == (
        "ingest.delta.cpu.select"
    )
    assert canonical("ingest.delta.merge") == "ingest.delta.merge"
    assert is_declared("sim.anything.goes")
    assert not is_declared("made.up.op")


def test_registry_is_sorted_within_itself():
    names = list(DECLARED)
    assert len(names) == len(set(names))
    for name in names:
        assert canonical(name) == name, name
