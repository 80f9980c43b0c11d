"""Physical A&R plans: passive operator descriptions the executor interprets.

A :class:`PhysicalPlan` is the analogue of the paper's rewritten MAL plan
(Fig 7): an ordered list of operator nodes, each tagged with the device-side
phase it belongs to.  The defining structural property of a well-formed A&R
plan — *no approximation operator depends on the result of a refinement
operator* (§V-B) — is checked by :meth:`PhysicalPlan.validate`, and it is
what makes the approximate-only execution mode possible.

Two plan shapes share the operator list:

* **Candidate plans** (the Fig-7 shape): relaxed selections seed a unary
  candidate set, payload gathers/FK joins/pre-grouping/approximate
  aggregates run over it, :class:`ShipCandidates` crosses the bus once,
  then the paired refinements run host-side to the exact result.  An
  :class:`ApproxScanSelect` and the :class:`ApproxProbeSelect` operators
  directly behind it (or a run of probes continuing from the current
  candidates) *execute* as one blocked pass of the conjunction kernel
  (:func:`~repro.core.approximate.select_conjunction_approx`) and *bill*
  as the separate operators the plan lists — ``explain``, the cost model
  and the op-name registry see one operator per conjunct.

* **Theta-join plans** (the §IV-D shape, first-class since PR 4)::

      [ApproxScanSelect/ApproxProbeSelect...]   # selection under the join
      ApproxThetaJoin                           # candidate pair superset
      [ApproxPairAggregate...]                  # free approximate answer
      ──── ShipPairs ────                       # pair count crosses PCI-E
      [RefinePairSelect...]                     # exact re-check, run-aware
      RefineThetaJoin                           # exact θ, runs shrink in place
      [RefinePairGroup] [RefinePairAggregate...]

  The pair set stays run-length encoded through the whole refine phase;
  pairs materialize
  exactly once, at canonical result construction — and not at all when
  only aggregates over the pairs are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..errors import PlanError
from .expr import Predicate
from .logical import Aggregate, Query, ThetaJoin


class PhysicalOp:
    """Base class; ``phase`` is ``"approximate"`` or ``"refine"``."""

    phase = "approximate"

    def describe(self) -> str:
        return type(self).__name__


# ----------------------------------------------------------------------
# Approximation-phase operators (device side, red nodes of Fig 3)
# ----------------------------------------------------------------------
@dataclass
class AllRows(PhysicalOp):
    """Seed the candidate set with every tuple (no drivable predicate)."""

    def describe(self) -> str:
        return "bwd.allrows()"


@dataclass
class ApproxScanSelect(PhysicalOp):
    """Primary relaxed selection scan on a decomposed column."""

    column: str
    predicate: Predicate

    def describe(self) -> str:
        return f"bwd.uselectapproximate({self.column}) {self.predicate!r}"


@dataclass
class ApproxProbeSelect(PhysicalOp):
    """Subsequent relaxed selection restricted to current candidates."""

    column: str
    predicate: Predicate

    def describe(self) -> str:
        return f"bwd.uselectapproximate.probe({self.column}) {self.predicate!r}"


@dataclass
class ApproxProject(PhysicalOp):
    """Gather a column's approximation codes for the candidates."""

    column: str

    def describe(self) -> str:
        return f"bwd.leftjoinapproximate({self.column})"


@dataclass
class ApproxFkJoin(PhysicalOp):
    """Projective FK join: gather a dimension column approximately."""

    fk_column: str
    dim_table: str
    target_column: str  # qualified name "<dim>.<col>"

    def describe(self) -> str:
        return (
            f"bwd.fkjoinapproximate({self.fk_column} -> {self.target_column})"
        )


@dataclass
class ApproxPayloadSelect(PhysicalOp):
    """Relaxed selection over gathered payload bounds (expressions, NE)."""

    predicate: Predicate

    def describe(self) -> str:
        return f"bwd.boundselectapproximate() {self.predicate!r}"


@dataclass
class ApproxGroup(PhysicalOp):
    """Device-side pre-grouping on approximate values."""

    columns: tuple[str, ...]

    def describe(self) -> str:
        return f"bwd.groupapproximate({', '.join(self.columns)})"


@dataclass
class ApproxMinMaxPrune(PhysicalOp):
    """Prune min/max candidates that cannot contain the extremum."""

    aggregate: Aggregate

    def describe(self) -> str:
        return f"bwd.minmaxapproximate({self.aggregate.alias})"


@dataclass
class ApproxAggregate(PhysicalOp):
    """Compute strict bounds for one aggregate from device-side payloads."""

    aggregate: Aggregate

    def describe(self) -> str:
        return f"bwd.{self.aggregate.func}approximate() -> {self.aggregate.alias}"


@dataclass
class ApproxThetaJoin(PhysicalOp):
    """Device-side theta join over approximate intervals (§IV-D).

    Joins the current left-side candidates (every fact row when no
    selection ran) against ``theta.right_table.right_column``, emitting the
    candidate pair superset, run-length encoded.
    """

    theta: ThetaJoin

    def describe(self) -> str:
        t = self.theta
        pred = (
            f"|{t.left_column} - {t.right_table}.{t.right_column}| <= {t.delta}"
            if t.op == "within"
            else f"{t.left_column} {t.op} {t.right_table}.{t.right_column}"
        )
        return f"bwd.thetajoinapproximate({pred})"


@dataclass
class ApproxPairAggregate(PhysicalOp):
    """Strict device-side bounds for one aggregate over the candidate pairs."""

    aggregate: Aggregate

    def describe(self) -> str:
        return (
            f"bwd.{self.aggregate.func}approximate(pairs)"
            f" -> {self.aggregate.alias}"
        )


# ----------------------------------------------------------------------
# The bus crossing
# ----------------------------------------------------------------------
@dataclass
class ShipCandidates(PhysicalOp):
    """Move candidate ids + matched codes over PCI-E to the host."""

    phase = "refine"

    def describe(self) -> str:
        return "bwd.ship(candidates)"


@dataclass
class ShipPairs(PhysicalOp):
    """Move a theta join's candidate pairs over PCI-E to the host.

    Billed by pair *count* (the paper's device would emit per-pair oids;
    run-length pairs are not billed less).
    """

    phase = "refine"

    def describe(self) -> str:
        return "bwd.ship(pairs)"


# ----------------------------------------------------------------------
# Refinement-phase operators (host side, blue nodes of Fig 3)
# ----------------------------------------------------------------------
@dataclass
class RefineSelect(PhysicalOp):
    """Algorithm 2: residual join + precise re-evaluation."""

    column: str
    predicate: Predicate
    phase = "refine"

    def describe(self) -> str:
        return f"bwd.uselectrefine({self.column}) {self.predicate!r}"


@dataclass
class CpuSelect(PhysicalOp):
    """Exact selection on the host (non-decomposed column or expression)."""

    predicate: Predicate
    phase = "refine"

    def describe(self) -> str:
        return f"cpu.select() {self.predicate!r}"


@dataclass
class RefineProject(PhysicalOp):
    """Join residual bits onto an approximate projection payload."""

    column: str
    phase = "refine"

    def describe(self) -> str:
        return f"bwd.leftjoinrefine({self.column})"


@dataclass
class RefineFkJoin(PhysicalOp):
    """Join the dimension residual onto an approximate FK-join payload."""

    target_column: str
    phase = "refine"

    def describe(self) -> str:
        return f"bwd.fkjoinrefine({self.target_column})"


@dataclass
class CpuProject(PhysicalOp):
    """Host-side exact gather of a column never touched on the device."""

    column: str
    phase = "refine"

    def describe(self) -> str:
        return f"cpu.project({self.column})"


@dataclass
class RefineGroup(PhysicalOp):
    """Sub-divide approximate groups by residual bits / host-only columns."""

    columns: tuple[str, ...]
    phase = "refine"

    def describe(self) -> str:
        return f"bwd.grouprefine({', '.join(self.columns)})"


@dataclass
class RefineAggregate(PhysicalOp):
    """Produce the exact aggregate (device reuse or host recomputation)."""

    aggregate: Aggregate
    phase = "refine"

    def describe(self) -> str:
        return f"bwd.{self.aggregate.func}refine() -> {self.aggregate.alias}"


@dataclass
class RefinePairSelect(PhysicalOp):
    """Exact re-check of a left-side predicate over the candidate pairs.

    Drops whole left rows (and with them their runs) whose exact values
    fail the predicate — run-preserving, never exploding a pair.
    """

    predicate: Predicate
    phase = "refine"

    def describe(self) -> str:
        return f"cpu.selectpairs() {self.predicate!r}"


@dataclass
class RefineThetaJoin(PhysicalOp):
    """Host-side exact θ over the candidate pairs (runs shrink in place)."""

    theta: ThetaJoin
    phase = "refine"

    def describe(self) -> str:
        return f"bwd.thetajoinrefine({self.theta.op})"


@dataclass
class RefinePairGroup(PhysicalOp):
    """Group the refined pairs by exact left-side key columns."""

    columns: tuple[str, ...]
    phase = "refine"

    def describe(self) -> str:
        return f"cpu.grouppairs({', '.join(self.columns)})"


@dataclass
class RefinePairAggregate(PhysicalOp):
    """Produce one exact aggregate over the refined pair set."""

    aggregate: Aggregate
    phase = "refine"

    def describe(self) -> str:
        return f"cpu.{self.aggregate.func}pairs() -> {self.aggregate.alias}"


@dataclass
class ShardMerge(PhysicalOp):
    """Gather N shards' fragment outputs on the coordinator and combine.

    The explicit merge/ship step of a sharded plan (PR 6): the coordinator
    pays a billed gather of every fragment's partial output (group keys +
    partial aggregates, or pair oids), then combines partials with the
    associative kernels (:mod:`repro.core.aggregates`) — byte-identical to
    the single-device result by construction.  Wall clock is
    max-over-shards of the fragment timelines *plus* this merge.
    """

    n_shards: int
    kind: str  # "aggregate" | "pairs" | "approximate"
    phase = "refine"

    def describe(self) -> str:
        return f"coord.merge({self.kind}, shards={self.n_shards})"


# ----------------------------------------------------------------------
@dataclass
class PhysicalPlan:
    """An ordered A&R operator list for one logical query.

    Plans produced with ``optimizer="cost"`` additionally carry the
    optimizer's audit trail: ``decisions`` (each chosen physical
    alternative with its rejected competitors and estimated costs — see
    :class:`repro.opt.planner.Decision`) and ``estimated_spans`` (the
    predicted modeled charge per operator —
    :class:`repro.opt.cost.EstimatedSpan`); ``explain()`` renders both,
    and :func:`repro.opt.report.estimated_vs_actual` lines the estimates
    up against a run's billed Timeline.  Each is computed from the plan
    and ``catalog`` when first read, then kept; without a ``catalog``
    (``"heuristic"``) both read as empty.  A plan held across a
    compaction estimates against the catalog as it stands at first read.
    """

    query: Query
    ops: list[PhysicalOp] = field(default_factory=list)
    pushdown: bool = True
    #: What the audit estimates against, and the order the caller asked
    #: for (the scan-order decision records it).
    catalog: object = field(default=None, repr=False, compare=False)
    predicate_order: str = "query"

    @cached_property
    def decisions(self) -> list:
        if self.catalog is None or self.query.theta_joins:
            return []
        from ..opt.planner import scan_order_decision

        drivable = [
            op.predicate for op in self.ops
            if isinstance(op, (ApproxScanSelect, ApproxProbeSelect))
        ]
        order = scan_order_decision(
            self.query, self.catalog, drivable, self.predicate_order
        )
        return [] if order is None else [order]

    @cached_property
    def estimated_spans(self) -> list:
        if self.catalog is None:
            return []
        from ..opt.cost import estimated_plan_spans

        return estimated_plan_spans(self, self.catalog)

    def validate(self) -> "PhysicalPlan":
        """Check the A&R structural invariant under pushdown.

        With pushdown enabled, the approximation subplan must be a prefix:
        once a refine-phase operator ran, no approximate operator may
        follow, so the approximate answer is available before any
        refinement starts (paper §V-B, Fig 7).
        """
        if self.pushdown:
            seen_refine = False
            for op in self.ops:
                if op.phase == "refine":
                    seen_refine = True
                elif seen_refine:
                    raise PlanError(
                        f"approximate operator {op.describe()} depends on a "
                        "refined input — pushdown invariant violated"
                    )
        if not any(
            isinstance(op, (ShipCandidates, ShipPairs)) for op in self.ops
        ):
            raise PlanError("plan never ships candidates to the host")
        return self
