"""Cost-based optimization: the device model promoted from ledger to planner.

``repro.opt`` estimates candidate cardinalities from the approximation
histograms (:mod:`.estimates`), predicts every operator's modeled span and
costs the serve layer's fuse-or-solo choice through the device charge
machinery (:mod:`.cost`), and records every decision — scan order,
cooperative-batch membership, per-shard fragment shape — with its rejected
competitors (:mod:`.planner`).  ``optimizer="cost"`` is the default on
``query()`` / ``plan_for()`` / ``run()`` and ``Session.serve()``;
``"heuristic"`` plans the same operators without the estimates.
"""

from .cost import (
    SIM_HOST,
    EstimatedSpan,
    cost_fused_scan,
    cost_solo_scans,
    estimated_plan_spans,
)
from .estimates import (
    ThetaCardinality,
    estimate_scan_candidates,
    estimate_selectivity,
    estimate_theta_cardinality,
)
from .plan_cache import PlanCache
from .planner import (
    OPTIMIZERS,
    Alternative,
    Decision,
    batch_membership_decision,
    check_optimizer,
    scan_order_decision,
)
from .report import estimated_vs_actual

__all__ = [
    "SIM_HOST",
    "EstimatedSpan",
    "ThetaCardinality",
    "OPTIMIZERS",
    "Alternative",
    "PlanCache",
    "Decision",
    "batch_membership_decision",
    "check_optimizer",
    "cost_fused_scan",
    "cost_solo_scans",
    "estimate_scan_candidates",
    "estimate_selectivity",
    "estimate_theta_cardinality",
    "estimated_plan_spans",
    "estimated_vs_actual",
    "scan_order_decision",
]
