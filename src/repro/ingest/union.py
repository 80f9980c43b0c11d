"""Base+delta union evaluation: exact reads while rows are in flight.

The approximate phase of a query runs over the packed base segments exactly
as it does with no delta — same plan, same spans.  Rows sitting in a table's
:class:`~repro.ingest.delta.DeltaStore` then join the answer through small
*contribution* runs: brute-force exact evaluation (the classic bulk engine)
over scratch catalogs holding just the delta slice, billed on their own
``ingest.delta.*`` spans in the :data:`DELTA_PHASE` phase.  A query over
settled data (empty delta) never enters this module, so its Result and
modeled Timeline stay byte-identical to a bulk-loaded run.

Two contributions cover every union shape:

* **A — delta fact rows** against the *combined* (base+delta) far sides:
  FK dimensions and/or the theta right side.
* **B — base fact rows** against the *delta* right side (theta joins only;
  FK joins need no B because base FK values resolve within the base
  dimension — a dimension with pending delta is rejected, see
  :func:`delta_tables`).

Base(b×b) + A(d×all) + B(b×d) partitions the union's row/pair set, so the
base Result and the contributions are the parts of
:func:`repro.engine.merge.merge` — the same fold that merges shard
fragments — and reproduce a bulk run over base+delta bit-for-bit.  What is
written here is what only a delta knows: which contributions to run
(:func:`_contribution_parts`), their billing (``ingest.delta.*``), and how
the base's approximate answer moves under exact delta totals
(:func:`_merged_answer`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Callable

import numpy as np

from ..core.intervals import Interval
from ..device.model import OpClass
from ..device.timeline import Timeline
from ..engine.merge import Part, fold_parts, lower_aggregates, merge
from ..engine.result import ApproximateAnswer, Result
from ..errors import EmptyInputError, ExecutionError
from ..obs import trace as obs_trace
from ..plan.expr import ColRef
from ..plan.logical import Aggregate, Query
from ..storage.catalog import Catalog
from ..storage.relation import Relation

_OID_BYTES = 8

#: Span phase every delta charge lands on; settled-data Timelines never
#: contain it, which is what keeps them byte-identical to a bulk load.
DELTA_PHASE = "ingest.delta"

#: Hidden aggregate counting the rows/pairs a contribution matched
#: (candidate-set bookkeeping); stripped before results merge.
_ROWS_ALIAS = "__delta_rows__"

#: Name the theta right side takes in contribution scratch catalogs —
#: distinct from the fact name so self theta joins stay expressible when
#: fact and right union different row sets.
_RIGHT_ALIAS = "__ingest_right__"


# ----------------------------------------------------------------------
# Dispatch predicates
# ----------------------------------------------------------------------
def delta_tables(query: Query, catalog: Catalog) -> dict:
    """The query's tables with pending delta rows, by table name.

    Covers the fact table and theta right sides.  A *dimension* table with
    pending delta is rejected: base fact FK values may reference the new
    rows, which the base run (resolving against the base dimension alone)
    cannot see — compact the dimension first.  Dimensions are small and
    compaction is cheap, so this is the honest trade.
    """
    out: dict = {}
    if catalog.delta_rows(query.table):
        out[query.table] = catalog.delta_store(query.table)
    for tj in query.theta_joins:
        if catalog.delta_rows(tj.right_table):
            out[tj.right_table] = catalog.delta_store(tj.right_table)
    for join in query.joins:
        if catalog.delta_rows(join.dim_table):
            raise ExecutionError(
                f"table {join.dim_table!r} has pending delta rows and is "
                "the target of an FK join; compact it before querying "
                "through the join"
            )
    return out


def needs_solo_delta(query: Query, catalog: Catalog, mode: str = "ar") -> bool:
    """True when a fused/post-hoc merge cannot absorb this query's delta.

    ``avg`` finals don't merge (the partials are gone), and ``min``/``max``
    can raise an empty-input error on the base slice even though delta rows
    exist — only a solo :func:`run_with_delta` absorbs that into the merged
    answer.  In the exact modes such queries must take the solo path, which
    lowers avg into sum/count partials and catches the empty base.
    """
    if mode == "approximate":
        return False  # interval-only adjustment needs no partials
    if not any(a.func in ("avg", "min", "max") for a in query.aggregates):
        return False
    try:
        return bool(delta_tables(query, catalog))
    except ExecutionError:
        return True  # dim-delta rejection: surface it on the solo path


# ----------------------------------------------------------------------
# Contribution memoization (serve layer)
# ----------------------------------------------------------------------
class ContributionCache:
    """Memoizes contribution parts per (query, epoch, delta versions).

    Contribution runs are pure functions of the logical query, the base
    segments (which only change when compaction bumps the catalog epoch)
    and each delta store's append version — and their billed spans are
    *modeled*, hence deterministic.  A hit replays the recorded
    ``ingest.delta.*`` spans onto the caller's timeline, so cached and
    uncached runs stay byte-identical; only wall-clock work is saved.
    Serving keeps one of these per scheduler: a dashboard-style workload
    re-running a fixed query panel between writes pays the classic
    evaluation once per (query, delta state) instead of once per read.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: dict = {}

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def parts(
        self, catalog: Catalog, cpu, query: Query, deltas: dict,
        timeline: Timeline,
    ) -> list[Part]:
        try:
            key = (
                query, catalog.epoch,
                tuple(sorted(
                    (name, store.version) for name, store in deltas.items()
                )),
            )
            entry = self._entries.get(key)
        except TypeError:  # unhashable query shape: evaluate uncached
            self.misses += 1
            return _contribution_parts(catalog, cpu, query, deltas, timeline)
        if entry is None:
            self.misses += 1
            scratch = Timeline()
            parts = _contribution_parts(catalog, cpu, query, deltas, scratch)
            entry = (parts, tuple(scratch.spans))
            if len(self._entries) >= self.maxsize:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry
        else:
            self.hits += 1
            qt = obs_trace.ACTIVE
            if qt is not None:
                qt.instant(
                    "ingest.delta.cache.hit", track="ingest",
                    spans=len(entry[1]),
                )
        parts, spans = entry
        for s in spans:
            timeline.record(
                s.device, s.kind, s.op, s.nbytes, s.seconds, s.phase
            )
        return parts


def _parts_for(
    catalog, cpu, query, deltas, timeline, cache: ContributionCache | None
) -> list[Part]:
    if cache is None:
        return _contribution_parts(catalog, cpu, query, deltas, timeline)
    return cache.parts(catalog, cpu, query, deltas, timeline)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_with_delta(
    catalog: Catalog,
    cpu,
    query: Query,
    run_base: Callable[[Query, Timeline], Result],
    *,
    mode: str = "ar",
    timeline: Timeline | None = None,
    contribution_cache: ContributionCache | None = None,
) -> Result:
    """Run ``query`` over base+delta: base exactly as today, delta exact.

    ``run_base(query, timeline)`` answers a query from the packed base
    alone, billing onto ``timeline`` — the caller's executor, plan cache
    and fragments, whatever they are; it is handed the *lowered* query
    when an exact ``avg`` has to merge from partials.  A base slice that is
    empty (:class:`EmptyInputError`) contributes nothing.
    ``contribution_cache`` (the serve layer) memoizes the delta
    contribution runs per (query, epoch, delta version).
    """
    timeline = timeline if timeline is not None else Timeline()
    deltas = delta_tables(query, catalog)
    if not deltas:
        return run_base(query, timeline)
    base_query = query
    if mode != "approximate" and any(a.func == "avg" for a in query.aggregates):
        base_query = replace(query, aggregates=lower_aggregates(query.aggregates))
    try:
        base = run_base(base_query, timeline)
    except EmptyInputError:
        base = None
    contribs = _parts_for(
        catalog, cpu, query, deltas, timeline, contribution_cache
    )
    return _merge(query, mode, base, contribs, timeline, cpu)


def apply_delta(
    catalog: Catalog,
    cpu,
    query: Query,
    base_result: Result,
    *,
    mode: str = "ar",
    deltas: dict | None = None,
    contribution_cache: ContributionCache | None = None,
) -> Result:
    """Fold pending delta into a base result computed without it.

    The post-hoc path for the serve layer's fused batches: the base ran the
    *original* query (finals), so exact-mode ``avg`` is not mergeable here
    — callers gate on :func:`needs_solo_delta` and send those solo.
    Contribution spans bill onto ``base_result``'s own timeline.
    """
    deltas = delta_tables(query, catalog) if deltas is None else deltas
    if not deltas:
        return base_result
    if mode != "approximate" and any(
        a.func == "avg" for a in query.aggregates
    ):
        raise ExecutionError(
            "avg with pending delta rows needs a solo delta-union run"
        )
    timeline = base_result.timeline
    contribs = _parts_for(
        catalog, cpu, query, deltas, timeline, contribution_cache
    )
    return _merge(query, mode, base_result, contribs, timeline, cpu)


# ----------------------------------------------------------------------
# Contribution runs: classic exact evaluation over scratch catalogs
# ----------------------------------------------------------------------
def _contribution_parts(
    catalog: Catalog,
    cpu,
    query: Query,
    deltas: dict,
    timeline: Timeline,
) -> list[Part]:
    """The contributions that matched a row, as parts of the union (one
    over an empty slice contributes nothing and is left out)."""
    tj = query.theta_joins[0] if query.theta_joins else None
    cquery = _contribution_query(query)
    parts: list[Part | None] = []

    fact_delta = deltas.get(query.table)
    base_fact = catalog.table(query.table)
    if fact_delta is not None:
        # A: delta fact rows against the combined far sides.
        scratch = Catalog()
        scratch.register(fact_delta.as_relation(query.table))
        for join in query.joins:
            scratch.register(catalog.table(join.dim_table))
        if tj is not None:
            base_right = catalog.table(tj.right_table)
            right_delta = deltas.get(tj.right_table)
            right = (
                right_delta.combined_with(base_right, _RIGHT_ALIAS)
                if right_delta is not None
                else _renamed(base_right, _RIGHT_ALIAS)
            )
            scratch.register(right)
        parts.append(_run_part(
            scratch, cquery, cpu, timeline,
            left_off=len(base_fact), right_off=0,
        ))

    if tj is not None and deltas.get(tj.right_table) is not None:
        # B: base fact rows against the delta right rows alone.
        scratch = Catalog()
        scratch.register(base_fact)
        scratch.register(deltas[tj.right_table].as_relation(_RIGHT_ALIAS))
        parts.append(_run_part(
            scratch, cquery, cpu, timeline,
            left_off=0, right_off=len(catalog.table(tj.right_table)),
        ))
    return [p for p in parts if p is not None]


def _run_part(
    scratch: Catalog,
    cquery: Query,
    cpu,
    timeline: Timeline,
    *,
    left_off: int,
    right_off: int,
) -> Part | None:
    """One contribution: classic exact evaluation over ``scratch``, billed
    under the delta ledger; ``None`` when its slice was empty."""
    from ..engine.bulk import ClassicExecutor

    qt = obs_trace.ACTIVE
    span = nullcontext() if qt is None else qt.span(
        "ingest.delta.part", track="ingest",
        left_off=left_off, right_off=right_off,
    )
    scratch_tl = Timeline()
    with span as rec:
        try:
            part = Part(
                ClassicExecutor(scratch, cpu).run(cquery, scratch_tl),
                left=left_off, right=right_off,
            )
        except EmptyInputError:
            part = None
        _rebill(timeline, scratch_tl)
        if rec is not None:
            rec.modeled = scratch_tl.total_seconds()
            rec.args["rows"] = part.result.row_count if part else 0
    return part


def _rebill(timeline: Timeline, scratch: Timeline) -> None:
    """Re-record scratch spans under the delta ledger."""
    for span in scratch.spans:
        timeline.record(
            span.device, span.kind, f"ingest.delta.{span.op}",
            span.nbytes, span.seconds, DELTA_PHASE,
        )


def _contribution_query(query: Query) -> Query:
    """The query a contribution runs: lowered avg + hidden row counter,
    theta right side re-pointed at the scratch alias."""
    aggregates = query.aggregates
    if aggregates:
        aggregates = lower_aggregates(aggregates) + (
            Aggregate("count", None, _ROWS_ALIAS),
        )
    if not query.theta_joins:
        return replace(query, aggregates=aggregates)
    tj = query.theta_joins[0]
    right_qualified = f"{tj.right_table}.{tj.right_column}"
    alias_qualified = f"{_RIGHT_ALIAS}.{tj.right_column}"
    aggregates = tuple(
        replace(agg, expr=ColRef(alias_qualified))
        if isinstance(agg.expr, ColRef) and agg.expr.name == right_qualified
        else agg
        for agg in aggregates
    )
    return replace(
        query,
        aggregates=aggregates,
        theta_joins=(replace(tj, right_table=_RIGHT_ALIAS),),
    )


def _renamed(rel: Relation, name: str) -> Relation:
    """The same rows under another name (arrays are shared, not copied)."""
    return Relation.create(
        name, rel.schema, {c: rel.values(c) for c in rel.schema.names}
    )


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _merge(
    query: Query,
    mode: str,
    base: Result | None,
    contribs: list[Part],
    timeline: Timeline,
    cpu,
) -> Result:
    """The base Result (``None``: its slice was empty) and the contributions
    as one Result over base+delta; whatever else the base carries (a
    sharded run's fragment seconds, its coverage) it keeps."""
    matched = _matched_rows(query, contribs)
    _bill_merge(cpu, timeline, query, contribs)
    answer = _merged_answer(
        query, mode, base.approximate if base is not None else None,
        contribs, matched,
    )
    columns, row_count = {}, 0
    if mode != "approximate":
        # Base rows sit before delta rows in the union: part order is
        # position order.
        parts = [Part(base)] if base is not None else []
        columns, row_count = merge(query, parts + contribs)
    if base is None:
        return Result(
            columns=columns, row_count=row_count, timeline=timeline,
            approximate=answer,
        )
    return replace(
        base, columns=columns, row_count=row_count, timeline=timeline,
        approximate=answer,
    )


# ----------------------------------------------------------------------
# Approximate-answer adjustment (sound bounds with delta in flight)
# ----------------------------------------------------------------------
def _matched_rows(query: Query, contribs: list[Part]) -> int:
    total = 0
    for p in contribs:
        if query.aggregates:
            col = p.result.columns[_ROWS_ALIAS]
            total += int(np.asarray(col, dtype=np.int64).sum())
        else:
            total += p.result.row_count
    return total


def _merged_answer(
    query: Query,
    mode: str,
    base_answer: ApproximateAnswer | None,
    contribs: list[Part],
    matched: int,
) -> ApproximateAnswer | None:
    """The union's approximate answer, keyed by the *query's* aliases — a
    base that ran lowered answers under avg's partial aliases, which are
    not the user's: such an ``avg`` reads ``None``."""
    if mode == "classic" or base_answer is None:
        return base_answer
    if matched == 0:
        # No delta row qualified: every base bound is already the union's.
        return replace(base_answer, aggregates={
            agg.alias: base_answer.aggregates.get(agg.alias)
            for agg in query.aggregates
        })
    aggregates: dict = {}
    if query.group_by:
        # Delta rows may add or move groups; per-group intervals have no
        # sound composition (the shard-merge precedent) — report None.
        for agg in query.aggregates:
            aggregates[agg.alias] = None
        return ApproximateAnswer(
            aggregates=aggregates,
            candidate_rows=base_answer.candidate_rows + matched,
            n_groups=None,
        )
    scalars = _delta_scalars(query, contribs)
    for agg in query.aggregates:
        raw = base_answer.aggregates.get(agg.alias)
        if not isinstance(raw, Interval):
            aggregates[agg.alias] = None if raw is not None else raw
            continue
        aggregates[agg.alias] = _shifted(agg, raw, scalars)
    return ApproximateAnswer(
        aggregates=aggregates,
        candidate_rows=base_answer.candidate_rows + matched,
        n_groups=base_answer.n_groups,
    )


def _delta_scalars(query: Query, contribs: list[Part]) -> dict:
    """Exact ungrouped delta totals per alias (merged across contributions);
    an aggregate no delta row reached has none."""
    results = [p.result for p in contribs]
    out: dict = {}
    for agg in query.aggregates:
        try:
            out[agg.alias] = fold_parts(agg, results)[0].item()
        except EmptyInputError:
            pass
    return out


def _shifted(agg, raw: Interval, scalars: dict) -> Interval | None:
    """A sound bound over base+delta from the base bound + exact delta.

    count/sum translate by the exact delta value; min/max clamp both ends
    (the true extreme is ``min(base extreme, delta extreme)`` and the base
    extreme lies in ``raw``); avg takes the hull with the exact delta mean
    — the union's mean is a convex combination of the two sides' means.
    """
    if agg.alias not in scalars:
        return raw  # no delta rows reached this aggregate
    d = scalars[agg.alias]
    if agg.func in ("count", "sum"):
        return Interval(raw.lo + d, raw.hi + d)
    if agg.func == "min":
        return Interval(min(raw.lo, d), min(raw.hi, d))
    if agg.func == "max":
        return Interval(max(raw.lo, d), max(raw.hi, d))
    if agg.func == "avg":
        return Interval(min(raw.lo, d), max(raw.hi, d))
    return None


# ----------------------------------------------------------------------
def _bill_merge(cpu, timeline: Timeline, query: Query, contribs) -> None:
    """One combine pass over the contribution outputs (delta ledger)."""
    items = sum(p.result.row_count for p in contribs)
    width = max(
        1,
        len(query.group_by) + len(query.aggregates) + len(query.select)
        + 2 * len(query.theta_joins),
    )
    qt = obs_trace.ACTIVE
    if qt is None:
        cpu.charge(
            timeline, "ingest.delta.merge",
            max(1, items) * width * _OID_BYTES,
            tuples=max(1, items), op_class=OpClass.AGG, phase=DELTA_PHASE,
        )
        return
    with qt.span("ingest.delta.merge", track="ingest", rows=items) as rec:
        before = timeline.total_seconds()
        cpu.charge(
            timeline, "ingest.delta.merge",
            max(1, items) * width * _OID_BYTES,
            tuples=max(1, items), op_class=OpClass.AGG, phase=DELTA_PHASE,
        )
        rec.modeled = timeline.total_seconds() - before
