"""The op-name registry: every ledger label, declared in one place.

Timeline spans are the system's currency — byte-identity proofs, the
cost model's estimated-vs-actual feedback, the trace exporter's track
labels all key on the ``op`` string of a :class:`~repro.device.timeline.
Span`.  Until now those strings were scattered format literals across
eight modules; a renamed kernel label would silently decouple a ledger
from every consumer that greps for it.  This table is the single source
of truth, and ``tests/obs/test_opnames.py`` (tier-1) asserts that every
span charged by a representative workload canonicalizes to a declared
name — ledger names can no longer drift without failing CI.

Op labels carry dynamic suffixes (the charged column, predicate or shard:
``select.approx(trips.lon)``, ``fault.retry.backoff[shard 2]``,
``load:trips.lon``, ``cpu.selectlon in [1, 5]``); :func:`canonical`
strips them back to the declared base name.  ``ingest.delta.*`` wraps another op (the delta
contribution re-bills a classic span under the delta ledger), so its
remainder is canonicalized recursively.
"""

from __future__ import annotations

#: Ops whose dynamic argument is not bracketed — the label is a bare
#: prefix followed by a repr (``cpu.select{pred!r}``).  Checked after the
#: bracket strip; longest prefix wins.
_BARE_SUFFIX_OPS = (
    "cpu.select",
)

#: Namespace prefixes under which any suffix is a declared op.  ``sim.*``
#: is the cost model's scratch namespace (:mod:`repro.opt.cost` bills
#: candidate plans into throwaway timelines that never reach a Result).
NAMESPACES = (
    "sim.",
)

#: Wrapping prefix: ``ingest.delta.<op>`` re-bills ``<op>`` on the delta
#: ledger; the remainder must itself canonicalize to a declared name.
DELTA_PREFIX = "ingest.delta."

#: Every base op label any engine may charge on a Timeline, with the
#: subsystem that owns it.  Keep alphabetical within each group.
DECLARED: dict[str, str] = {
    # --- approximate (GPU) kernels -----------------------------------
    "agg.avg.approx": "engine.ar_executor",
    "agg.count.approx": "engine.ar_executor",
    "agg.max.approx": "engine.ar_executor",
    "agg.min.approx": "engine.ar_executor",
    "agg.minmax.approx": "engine.ar_executor",
    "agg.minmax.prune": "engine.ar_executor",
    "agg.reduce.approx": "device.gpu",
    "agg.sum.approx": "engine.ar_executor",
    "arith.approx": "engine.ar_executor",
    "group.approx": "engine.ar_executor",
    "join.approx.fk": "engine.ar_executor",
    "join.approx.gather": "engine.ar_executor",
    "join.theta.approx": "core.theta",
    "project.approx": "engine.ar_executor",
    "scan.approx": "engine.ar_executor",
    "select.approx": "core.approximate",
    "select.approx.bounds": "core.approximate",
    "select.approx.coop": "engine.cooperative",
    "select.approx.probe": "core.approximate",
    "select.string.approx": "engine.ar_executor",
    # --- refine (CPU) kernels ----------------------------------------
    "agg.avg.exact": "engine.ar_executor",
    "agg.avg.refine": "engine.ar_executor",
    "agg.avg.refine.pairs": "engine.ar_executor",
    "agg.count.exact": "engine.ar_executor",
    "agg.count.refine": "engine.ar_executor",
    "agg.count.refine.pairs": "engine.ar_executor",
    "agg.max.exact": "engine.ar_executor",
    "agg.max.refine": "engine.ar_executor",
    "agg.max.refine.pairs": "engine.ar_executor",
    "agg.min.exact": "engine.ar_executor",
    "agg.min.refine": "engine.ar_executor",
    "agg.min.refine.pairs": "engine.ar_executor",
    "agg.minmax.refine": "engine.ar_executor",
    "agg.sum.exact": "engine.ar_executor",
    "agg.sum.refine": "engine.ar_executor",
    "agg.sum.refine.pairs": "engine.ar_executor",
    "group.gather": "engine.ar_executor",
    "group.refine": "engine.ar_executor",
    "group.refine.dim": "engine.ar_executor",
    "group.refine.hash": "engine.ar_executor",
    "group.refine.host": "engine.ar_executor",
    "group.refine.pairs": "engine.ar_executor",
    "join.refine": "engine.ar_executor",
    "join.theta.materialize": "core.theta",
    "join.theta.refine": "core.theta",
    "project.refine": "engine.ar_executor",
    "select.refine": "core.refine",
    "select.string.refine": "engine.ar_executor",
    "translucent.join": "engine.ar_executor",
    # --- bus / load --------------------------------------------------
    "candidates": "core.refine",
    "load": "device.gpu",
    "pairs": "core.refine",
    # --- classic (bulk CPU) engine -----------------------------------
    "cpu.avg": "engine.bulk",
    "cpu.avg.pairs": "engine.bulk",
    "cpu.count": "engine.bulk",
    "cpu.count.pairs": "engine.bulk",
    "cpu.eval": "engine.bulk",
    "cpu.fkjoin": "engine.bulk",
    "cpu.gather": "engine.bulk",
    "cpu.gather.pairs": "engine.bulk",
    "cpu.group": "engine.bulk",
    "cpu.join.theta": "engine.bulk",
    "cpu.max": "engine.bulk",
    "cpu.max.pairs": "engine.bulk",
    "cpu.min": "engine.bulk",
    "cpu.min.pairs": "engine.bulk",
    "cpu.project": "engine.bulk",
    "cpu.scan": "engine.bulk",
    "cpu.select": "engine.bulk",
    "cpu.sum": "engine.bulk",
    "cpu.sum.pairs": "engine.bulk",
    # --- MonetDB-style baseline shims --------------------------------
    "monetdb.group": "engine.bulk",
    "monetdb.leftjoin": "engine.bulk",
    "monetdb.uselect": "engine.bulk",
    # --- sharded execution (PR 6/7) ----------------------------------
    "fault.retry.backoff": "shard.executor",
    "shard.merge.combine": "shard.executor",
    "shard.merge.gather": "shard.executor",
    # --- streaming ingestion (PR 9) ----------------------------------
    "ingest.delta.merge": "ingest.union",
}


def canonical(op: str) -> str:
    """The declared base name an op label canonicalizes to.

    Strips ``(...)``/``[...]`` argument suffixes, bare-repr suffixes
    (``cpu.select<pred>``) and recurses through the ``ingest.delta.``
    wrapping prefix.  Pure string work — safe to call on anything.
    """
    if op.startswith(DELTA_PREFIX):
        rest = op[len(DELTA_PREFIX):]
        if rest == "merge":
            return op
        return DELTA_PREFIX + canonical(rest)
    for bracket in "([:":
        cut = op.find(bracket)
        if cut != -1:
            op = op[:cut]
    for prefix in _BARE_SUFFIX_OPS:
        if op.startswith(prefix):
            return prefix
    return op


def is_declared(op: str) -> bool:
    """True when ``op`` canonicalizes into the registry."""
    name = canonical(op)
    if name.startswith(DELTA_PREFIX):
        rest = name[len(DELTA_PREFIX):]
        return rest == "merge" or is_declared(rest)
    if any(name.startswith(ns) for ns in NAMESPACES):
        return True
    return name in DECLARED


def undeclared(ops) -> list[str]:
    """The labels in ``ops`` that do not canonicalize into the registry."""
    return sorted({op for op in ops if not is_declared(op)})
