"""Which path a compaction takes, what it carries, and what a crash leaves.

Byte-identity of both paths with a bulk load is pinned by
``test_compact_identity.py``; this file pins the choice between them (an
observable property of the delta, no switch), the carried derived data,
and the trace annotation that explains a slow compaction.
"""

import numpy as np
import pytest

from repro import IntType, Session
from repro.ingest import compact as ingest_compact
from repro.obs.trace import Tracer
from repro.storage.decompose import plan_decomposition
from repro.storage.histogram import CodeHistogram

N = 5_000
DOMAIN = 1 << 14


@pytest.fixture(autouse=True)
def clear_hook():
    yield
    ingest_compact.fail_hook = None


def make_session(seed=5):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, DOMAIN, N).astype(np.int64)
    v[:2] = (0, DOMAIN - 1)
    s = Session()
    s.create_table("t", {"v": IntType(), "w": IntType()},
                   {"v": v, "w": rng.integers(10, 50, N).astype(np.int64)})
    s.bwdecompose("t", "v", 24)
    s.bwdecompose("t", "w", 24)
    return s


def rows(v, w=None):
    v = np.asarray(v, dtype=np.int64)
    w = np.full(len(v), 20) if w is None else w
    return {"v": v, "w": np.asarray(w, dtype=np.int64)}


def compaction_spans(tracer):
    return [
        span for trace in tracer.traces for span in trace.spans
        if span.name == "ingest.compact"
    ]


def serve_one_compaction(session, delta):
    """Land ``delta`` through a scheduler whose watermark it crosses."""
    tracer = session.attach_tracer(Tracer())
    server = session.serve(max_batch=4, delta_watermark=len(delta["v"]))
    server.submit_write("t", delta)
    handle = session.table("t").where("v", between=(0, 900)).count("n").submit(server)
    server.drain()
    handle.result()
    assert server.stats.compactions == 1
    (span,) = compaction_spans(tracer)
    return span


class TestPathChoice:
    def test_delta_inside_the_domain_extends(self):
        s = make_session()
        span = serve_one_compaction(s, rows(np.arange(100, 400)))
        assert span.args["path"] == "extend"
        assert "rebuilt" not in span.args
        assert s.last_compaction == {}

    def test_delta_below_the_base_rebuilds_that_column(self):
        s = make_session()
        span = serve_one_compaction(s, rows([-5, 7, 9]))
        assert span.args["path"] == "rebuild"
        assert span.args["rebuilt"] == {"v": "plan changed: base"}
        tree = "\n".join(s.tracer.render(t) for t in s.tracer.traces)
        assert "path=rebuild, rebuilt={'v': 'plan changed: base'}" in tree
        assert s.catalog.decomposition_of("t", "v").decomposition.base == -5

    def test_delta_above_the_width_rebuilds_that_column(self):
        s = make_session()
        span = serve_one_compaction(s, rows([1, 2, 3], w=[10, 49, 200]))
        assert span.args["rebuilt"] == {"w": "plan changed: width"}
        assert s.catalog.decomposition_of("t", "w").decomposition.total_bits == 8

    def test_either_path_lands_on_the_bulk_load(self):
        for delta in (rows(np.arange(50)), rows([-9, DOMAIN + 3], w=[1, 99])):
            s = make_session()
            base = {c: s.catalog.table("t").values(c) for c in ("v", "w")}
            s.append("t", delta)
            s.compact("t")
            twin = Session()
            twin.create_table(
                "t", {"v": IntType(), "w": IntType()},
                {c: np.concatenate([base[c], delta[c]]) for c in base},
            )
            twin.bwdecompose("t", "v", 24)
            twin.bwdecompose("t", "w", 24)
            for c in ("v", "w"):
                got = s.catalog.decomposition_of("t", c)
                want = twin.catalog.decomposition_of("t", c)
                assert got.decomposition == want.decomposition
                assert np.array_equal(got._approx_words, want._approx_words)
                assert np.array_equal(got._residual_words, want._residual_words)
                assert np.array_equal(
                    s.catalog.table("t").values(c), twin.catalog.table("t").values(c)
                )


    def test_registered_plan_stays_tight(self):
        """What ``plan_change`` relies on: the registered decomposition is
        the one ``plan_decomposition`` gives for the rows the column holds
        — after the DDL and after a compaction on either path."""
        s = make_session()
        for delta in (None, rows(np.arange(50)), rows([-9], w=[99]),
                      rows([DOMAIN + 3]), rows([5, 6])):
            if delta is not None:
                s.append("t", delta)
                s.compact("t")
            rel = s.catalog.table("t")
            for column, args in s.catalog.decompose_args_for("t"):
                replayed = plan_decomposition(
                    rel.values(column),
                    storage_bits=rel.type_of(column).storage_bits, **args,
                )
                registered = s.catalog.decomposition_of("t", column)
                assert registered.decomposition == replayed

    def test_reasons_are_on_the_session_without_a_scheduler(self):
        s = make_session()
        s.append("t", rows([-5], w=[200]))
        s.compact("t")
        assert s.last_compaction == {
            "v": "plan changed: base", "w": "plan changed: width",
        }
        s.append("t", rows([7]))
        s.compact("t")
        assert s.last_compaction == {}


class TestCarriedAcrossCompaction:
    def test_permutation_is_merged_not_resorted(self, monkeypatch):
        s = make_session()
        old = s.catalog.decomposition_of("t", "v")
        old.sorted_approx_codes()
        s.append("t", rows(np.arange(0, DOMAIN, 37)))

        sorted_sizes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_sizes.append(len(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        s.compact("t")
        new = s.catalog.decomposition_of("t", "v")
        assert new is not old and new.length > old.length
        perm, ordered = new.sort_permutation("lo"), new.sorted_approx_codes()
        monkeypatch.undo()
        assert max(sorted_sizes) < N, "a full column was argsorted"
        assert np.array_equal(perm, argsort(new.approx_codes(), kind="stable"))
        assert np.array_equal(ordered, new.approx_codes()[perm])

    def test_histogram_is_carried_forward(self):
        s = make_session()
        before = s.catalog.histogram_of("t", "v")
        s.append("t", rows(np.arange(300)))
        s.compact("t")
        carried = s.catalog._histograms[("t", "v")]
        assert carried is not before and carried.total == N + 300
        built = CodeHistogram.build(s.catalog.decomposition_of("t", "v"))
        assert np.array_equal(carried.counts, built.counts)
        assert ("t", "w") not in s.catalog._histograms, "never built, not invented"

    def test_histogram_is_dropped_on_rebuild(self):
        s = make_session()
        s.catalog.histogram_of("t", "v")
        s.append("t", rows([-1]))
        s.compact("t")
        assert ("t", "v") not in s.catalog._histograms
        assert s.catalog.histogram_of("t", "v").total == N + 1


def test_crash_leaves_old_column_and_delta_untouched():
    s = make_session()
    old = s.catalog.decomposition_of("t", "v")
    old.sorted_approx_codes()
    old.sort_permutation("exact")
    slots = [
        "_approx_words", "_residual_words", "_approx_cache", "_residual_cache",
        "_perm_approx_cache", "_perm_exact_cache", "_sorted_codes_cache",
    ]
    held = {slot: getattr(old, slot) for slot in slots}
    copies = {slot: view.copy() for slot, view in held.items()}
    histogram = s.catalog.histogram_of("t", "v")
    counts = histogram.counts.copy()
    delta = rows(np.arange(100, 300))
    s.append("t", delta)

    crashed: list[str] = []

    def boom(table):
        crashed.append(table)
        raise RuntimeError("crash before commit")

    ingest_compact.fail_hook = boom
    with pytest.raises(RuntimeError):
        s.compact("t")
    assert crashed == ["t"], "the hook runs after the extension is built"
    assert s.catalog.decomposition_of("t", "v") is old
    assert old.length == N
    for slot in slots:
        assert getattr(old, slot) is held[slot], slot
        assert np.array_equal(held[slot], copies[slot]), slot
    assert s.catalog.histogram_of("t", "v") is histogram
    assert np.array_equal(histogram.counts, counts)
    assert s.catalog.delta_rows("t") == 200
    assert np.array_equal(s.catalog.delta_store("t").arrays()["v"], delta["v"])
