"""Est-vs-actual feedback and the slow-query log.

PR 8's :func:`repro.opt.report.estimated_vs_actual` lines one plan's
predicted spans up against one billed Timeline on demand.  The feedback
channel makes that signal *continuous*: every traced query that ran with
a cost-optimized plan feeds the ratio ``actual / estimated`` of each
operator into a histogram per op kind, so a drifting cost model shows up
as a drifting distribution — not as one slow query someone happened to
inspect.  A plan computes its estimates when first read, so this channel
pays for them; an untraced query that nothing explains never estimates.
The slow-query log is the complementary per-incident view: any
root trace whose wall clock crosses the configured threshold is kept
with its explain output and its full trace attached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .metrics import Histogram
from .opnames import canonical


class FeedbackChannel:
    """Per-op-kind ``actual/estimated`` ratio histograms.

    Alignment follows :func:`repro.opt.report.estimated_vs_actual`:
    estimated spans map onto billed spans in operator order (the billed
    ledger excludes ``load``/``recover``/delta phases — the estimator
    prices the clean base plan only), surplus billed spans spilling onto
    the final operator.
    """

    #: Phases the cost model does not price; excluded before alignment.
    _UNPRICED_PHASES = ("load", "recover", "ingest.delta")

    def __init__(self) -> None:
        self.by_kind: dict[str, Histogram] = {}
        self.observations = 0

    def observe(self, plan, timeline) -> None:
        """Feed one (cost-planned) run's est-vs-actual ratios."""
        estimates = getattr(plan, "estimated_spans", None)
        if not estimates:
            return
        actual = [
            s for s in timeline.spans
            if s.phase not in self._UNPRICED_PHASES
        ]
        n = len(estimates)
        for i, est in enumerate(estimates):
            billed = actual[i:i + 1] if i < n - 1 else actual[i:]
            if not billed or est.est_seconds <= 0:
                continue
            ratio = sum(s.seconds for s in billed) / est.est_seconds
            kind = canonical(est.op)
            if kind not in self.by_kind:
                self.by_kind[kind] = Histogram()
            self.by_kind[kind].observe(ratio)
        self.observations += 1

    def render(self) -> str:
        if not self.by_kind:
            return "(no est-vs-actual observations)"
        lines = [
            f"est-vs-actual ratios (actual/est) over "
            f"{self.observations} cost-planned runs:"
        ]
        for kind, hist in sorted(self.by_kind.items()):
            s = hist.summary()
            lines.append(
                f"  {kind:<36} n={s.count:<6} mean={s.mean:<8.3f} "
                f"min={s.minimum:<8.3f} max={s.maximum:.3f}"
            )
        return "\n".join(lines)


@dataclass
class SlowQueryEntry:
    """One over-threshold root trace with its diagnostics attached."""

    name: str
    wall_ms: float
    explain: str | None
    trace: object  # the QueryTrace itself


@dataclass
class SlowQueryLog:
    """Bounded log of root traces slower than ``threshold_ms`` wall."""

    threshold_ms: float | None = None
    maxlen: int = 64
    entries: deque = field(default_factory=lambda: deque(maxlen=64))

    def __post_init__(self) -> None:
        self.entries = deque(maxlen=self.maxlen)

    def consider(self, qt) -> SlowQueryEntry | None:
        if self.threshold_ms is None:
            return None
        wall_ms = qt.wall_seconds * 1e3
        if wall_ms < self.threshold_ms:
            return None
        explain = None
        if qt.plan is not None:
            try:
                from ..plan.explain import explain as explain_plan

                explain = explain_plan(qt.plan)
            except Exception:  # diagnostics must never fail the query
                explain = None
        entry = SlowQueryEntry(
            name=qt.name, wall_ms=wall_ms, explain=explain, trace=qt,
        )
        self.entries.append(entry)
        return entry

    def render(self) -> str:
        if self.threshold_ms is None:
            return "(slow-query log disabled; set slow_ms to arm it)"
        if not self.entries:
            return (
                f"(no queries above {self.threshold_ms:g} ms; "
                f"log armed)"
            )
        lines = [
            f"slow queries (>= {self.threshold_ms:g} ms wall), "
            f"newest last:"
        ]
        for e in self.entries:
            lines.append(f"- {e.name}  [{e.wall_ms:.2f} ms wall]")
            if e.explain:
                lines.extend("    " + ln for ln in e.explain.splitlines())
        return "\n".join(lines)
