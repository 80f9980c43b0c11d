"""The cost-based planner's decisions, each with its rejected competitors.

Every decision is recorded as a :class:`Decision` carrying the chosen
alternative *and* its rejected competitors with their estimated costs, so
``explain()`` can show why a plan looks the way it does — and so a
misprediction is a visible artifact, not a silent slow query.  Every
alternative produces a byte-identical Result and modeled Timeline, so a
decision only ever changes host wall-clock, never answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import PlanError
from .cost import cost_fused_scan, cost_solo_scans
from .estimates import estimate_selectivity

OPTIMIZERS = ("heuristic", "cost")


def check_optimizer(optimizer: str) -> str:
    if optimizer not in OPTIMIZERS:
        raise PlanError(
            f"unknown optimizer {optimizer!r}; pick one of {OPTIMIZERS}"
        )
    return optimizer


@dataclass(frozen=True)
class Alternative:
    """One enumerated physical shape with its estimated host cost."""

    label: str
    est_seconds: float
    detail: str = ""


@dataclass(frozen=True)
class Decision:
    """One optimizer choice: the winner plus its rejected competitors."""

    kind: str  # "scan-order" | "batch-membership" | "fragment-shape"
    target: str  # what was being decided, e.g. "trips ⋈θ cafes.location"
    chosen: str  # label of the winning Alternative
    alternatives: tuple[Alternative, ...]
    estimates: Mapping[str, int | float]
    forced: bool = False  # caller pinned the knobs; no real choice was made

    def chosen_alternative(self) -> Alternative:
        for alt in self.alternatives:
            if alt.label == self.chosen:
                return alt
        raise PlanError(f"decision chose unknown alternative {self.chosen!r}")

    def describe(self) -> list[str]:
        tag = "forced" if self.forced else "chosen"
        lines = [f"{self.kind} for {self.target}:"]
        for alt in sorted(self.alternatives, key=lambda a: a.est_seconds):
            marker = f"  * {tag} " if alt.label == self.chosen else "    rej  "
            extra = f"  ({alt.detail})" if alt.detail else ""
            lines.append(
                f"{marker}{alt.label:<18} est {alt.est_seconds * 1e3:9.3f} ms{extra}"
            )
        if self.estimates:
            parts = ", ".join(
                f"{k}={v:,}" if isinstance(v, int) else f"{k}={v:.3g}"
                for k, v in self.estimates.items()
            )
            lines.append(f"    est: {parts}")
        return lines


# ----------------------------------------------------------------------
# Scan predicate order
# ----------------------------------------------------------------------
def scan_order_decision(
    query: Query, catalog, drivable, predicate_order: str
) -> Decision | None:
    """Cost the two predicate orders; record which one the caller runs.

    The first predicate always scans the full stream; each later probe
    touches only the prefix's survivors, so total probe volume depends on
    the order.  The caller's ``predicate_order`` stands (it changes the
    *modeled* Timeline, which the optimizer must never do silently) — the
    decision records whether it matches the cheaper order.
    """
    if len(drivable) < 2:
        return None
    n_rows = len(catalog.table(query.table))
    sels = {
        id(p): estimate_selectivity(catalog, query.table, p) for p in drivable
    }

    def probe_volume(order) -> float:
        volume, frac = float(n_rows), 1.0
        for pred in order:
            frac *= sels[id(pred)]
            volume += n_rows * frac
        return volume

    query_order = list(drivable)
    sel_order = sorted(drivable, key=lambda p: sels[id(p)])
    per_tuple = 1.3e-9  # one relaxed compare per visited tuple (SIM_HOST SCAN)
    alts = (
        Alternative("query-order", probe_volume(query_order) * per_tuple),
        Alternative("selectivity-order", probe_volume(sel_order) * per_tuple),
    )
    chosen = (
        "selectivity-order" if predicate_order == "selectivity" else "query-order"
    )
    return Decision(
        kind="scan-order",
        target=f"{query.table} ({len(drivable)} drivable predicates)",
        chosen=chosen,
        alternatives=alts,
        estimates={"rows": n_rows},
        forced=True,  # the caller's predicate_order always stands
    )


# ----------------------------------------------------------------------
# Cooperative-batch membership (the serve gate)
# ----------------------------------------------------------------------
def batch_membership_decision(
    table: str, column: str, n_rows: int, est_hits: list[int]
) -> Decision:
    """Fuse the batch into one cooperative pass, or run members solo?"""
    fused = cost_fused_scan(n_rows, est_hits).total_seconds()
    solo = cost_solo_scans(n_rows, est_hits).total_seconds()
    chosen = "fused" if fused <= solo else "solo"
    return Decision(
        kind="batch-membership",
        target=f"{table}.{column} ×{len(est_hits)}",
        chosen=chosen,
        alternatives=(
            Alternative("fused", fused, "one cooperative pass"),
            Alternative("solo", solo, "per-member stream compare"),
        ),
        estimates={"rows": n_rows, "est_hits": sum(est_hits)},
    )
