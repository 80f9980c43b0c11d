"""A&R theta joins — the §IV-D candidate the paper leaves unexploited.

"Theta joins ... are generally very bandwidth intensive, often subject to
computation intensive comparison functions and trivial to (massively)
parallelize because they do not employ intermediate structures that have to
be locked.  This makes them a very good candidate for GPU-supported
processing."

The A&R treatment: the device runs the nested-loop comparison over the
*approximate* value intervals, emitting every pair that could satisfy θ —
a superset, since each side's exact value is only known to lie inside its
bucket.  The host then re-evaluates θ on reconstructed exact values for the
(much smaller) candidate pair set.

Supported θ: ``< <= > >= =`` and the band join ``|left − right| <= delta``.

The candidate pair *set* comes from one producer: sort the right side's
interval bounds once (memoized on the column,
:meth:`~repro.storage.decompose.BwdColumn.sort_permutation`), then rank the
left side's ascending bounds in it (:func:`_ranks`, one merge per sweep):
O(|L| + |R|) wall-clock.  Every supported θ maps to a contiguous run of the
sorted right side (the inequalities through a single bound; ``=``/``WITHIN``
through the constant interval width, ``max_error``, the bitwise
decomposition guarantees), so the matches are *born* run-length encoded
(:class:`~repro.core.candidates.RunPairCandidates`) — counted per distinct
code first, gathered out to rows only when one is read — and stay that way:
refinement takes each row's exact span from the two sides' exact-sorted
values, and pairs materialize exactly once, at final result construction.
The modeled charge does not depend on how the simulation finds the set: the
device model bills the paper's massively parallel |L|·|R| comparison volume.
The |L|·|R| nested loop itself survives only as the test oracle,
:func:`theta_join_reference`.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass

import numpy as np

from ..device.cpu import Cpu
from ..device.gpu import SimulatedGPU
from ..device.model import OpClass
from ..device.timeline import Timeline
from ..errors import ExecutionError
from ..storage.decompose import BwdColumn
from .approximate import _payload_from_codes
from .candidates import PairCandidates, RunPairCandidates, check_runs
from .intervals import IntervalColumn

__all__ = [
    "PairCandidates",
    "RunPairCandidates",
    "Theta",
    "ThetaOp",
    "exact_run_bounds",
    "theta_certain_pair_count",
    "theta_join_approx",
    "theta_join_refine",
    "theta_join_reference",
]

_OID_BYTES = 8


class ThetaOp(enum.Enum):
    """The join predicate θ applied as ``left θ right``."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    WITHIN = "within"  # |left - right| <= delta


@dataclass(frozen=True)
class Theta:
    """A theta-join condition; ``delta`` only applies to ``WITHIN``."""

    op: ThetaOp
    delta: int = 0

    def __post_init__(self) -> None:
        if self.op is ThetaOp.WITHIN and self.delta < 0:
            raise ExecutionError("band join needs a non-negative delta")

    # ------------------------------------------------------------------
    def exact(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise θ over broadcastable exact values."""
        if self.op is ThetaOp.LT:
            return left < right
        if self.op is ThetaOp.LE:
            return left <= right
        if self.op is ThetaOp.GT:
            return left > right
        if self.op is ThetaOp.GE:
            return left >= right
        if self.op is ThetaOp.EQ:
            return left == right
        return np.abs(left - right) <= self.delta

    def possible(
        self,
        left_lo: np.ndarray, left_hi: np.ndarray,
        right_lo: np.ndarray, right_hi: np.ndarray,
    ) -> np.ndarray:
        """Could θ hold for *some* exact values inside the intervals?"""
        if self.op is ThetaOp.LT:
            return left_lo < right_hi
        if self.op is ThetaOp.LE:
            return left_lo <= right_hi
        if self.op is ThetaOp.GT:
            return left_hi > right_lo
        if self.op is ThetaOp.GE:
            return left_hi >= right_lo
        if self.op is ThetaOp.EQ:
            return (left_lo <= right_hi) & (left_hi >= right_lo)
        return (left_lo - self.delta <= right_hi) & (left_hi + self.delta >= right_lo)

    def certain(
        self,
        left_lo: np.ndarray, left_hi: np.ndarray,
        right_lo: np.ndarray, right_hi: np.ndarray,
    ) -> np.ndarray:
        """Does θ hold for *all* exact values inside the intervals?"""
        if self.op is ThetaOp.LT:
            return left_hi < right_lo
        if self.op is ThetaOp.LE:
            return left_hi <= right_lo
        if self.op is ThetaOp.GT:
            return left_lo > right_hi
        if self.op is ThetaOp.GE:
            return left_lo >= right_hi
        if self.op is ThetaOp.EQ:
            return (left_lo == left_hi) & (right_lo == right_hi) & (left_lo == right_lo)
        # WITHIN holds for all interval points iff the extreme distance fits.
        return np.maximum(left_hi - right_lo, right_hi - left_lo) <= self.delta


def _codes(column: BwdColumn, ids: np.ndarray | None) -> np.ndarray:
    return column.approx_codes() if ids is None else column.approx_at(ids)


def _bounds(column: BwdColumn, ids: np.ndarray | None = None) -> IntervalColumn:
    """Approximate value intervals of the whole column, or of rows ``ids``
    only — a selection under the join pays for its candidates, not |L|."""
    return _payload_from_codes(column, _codes(column, ids))


def _per_code(column: BwdColumn, n_rows: int) -> bool:
    """Decide this side of θ once per distinct approximation code?

    Bucket bounds are a function of the code, and there are at most
    ``2**approx_bits`` codes: when the rows outnumber them, searching the
    sorted bound *table* and reading each row's answer through its code
    does fewer — and already sorted — binary searches than one per row.
    Read off the decomposition and the row count alone.
    """
    return (1 << column.decomposition.approx_bits) <= n_rows


def _code_table(
    column: BwdColumn, codes: np.ndarray
) -> tuple[IntervalColumn, np.ndarray]:
    """Bucket bounds of every approximation code, in code order — ascending
    needles as they stand — and how many of ``codes`` each one is: a side
    of θ decided once per code, each answer weighted by its rows."""
    bounds = _payload_from_codes(
        column, np.arange(column.decomposition.max_code + 1)
    )
    return bounds, np.bincount(codes, minlength=len(bounds))


# ----------------------------------------------------------------------
# Candidate-pair production
# ----------------------------------------------------------------------
def _ranks(key: np.ndarray, needles: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(key, needles, side)`` for **ascending** needles —
    the one rank kernel behind every sweep of this module.

    A stable sort of the two sorted runs laid end to end is a single
    galloping merge, and which run lies first settles the ties: needles
    ahead of the keys they equal are ranked by the keys strictly below
    them (``"left"``), behind them by the keys up to and including them
    (``"right"``).  The i-th needle then sits ``i`` places past its rank.
    200 K needles in 50 K keys: 1.7 ms, against 3.3 ms binary-searched and
    2.5 ms searched from the shorter side (PERFORMANCE.md, PR 23).
    """
    n = len(needles)
    if side == "left":
        merged = np.argsort(np.concatenate((needles, key)), kind="stable")
        at = np.flatnonzero(merged < n)
    else:
        merged = np.argsort(np.concatenate((key, needles)), kind="stable")
        at = np.flatnonzero(merged >= len(key))
    at -= np.arange(n)
    return at


def _sorted_runs(
    left_b: IntervalColumn,
    right_b: IntervalColumn,
    theta: Theta,
    right: BwdColumn,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Sort-based interval join: one (memoized) sort + two rank sweeps.

    Computes the pair *set* of the |L|·|R| nested loop (the ``possible``
    predicate, rearranged around one sorted bound), as one ``[start,
    stop)`` run over the bound-sorted right side per entry of ``left_b`` —
    ``(starts, stops, order, order_key)``, the fields of a
    :class:`RunPairCandidates` — never materializing a pair.  ``left_b``
    must ascend: every needle array below (lo, hi, lo−δ−c, hi+δ) is a
    shifted copy of its bounds, so all of them do.  The sort permutation is
    the right column's memoized
    :meth:`~repro.storage.decompose.BwdColumn.sort_permutation`, so
    repeated joins against the same (dimension) side skip the argsort.

    The cut points always land on equal-key group boundaries, and for
    decomposition bounds those groups are exactly the approximation
    buckets — so a run holds whole buckets, among them every bucket an
    exact match of its row can lie in (the soundness the refinement
    rests on).
    """
    n_left, n_right = len(left_b.lo), len(right_b.lo)
    op = theta.op
    if op in (ThetaOp.LT, ThetaOp.LE):
        # left_lo (<|<=) right_hi  ⇔  a suffix of the hi-sorted right side.
        order_key = "hi"
        order = right.sort_permutation(order_key)
        key = right_b.hi[order]
        side = "right" if op is ThetaOp.LT else "left"
        starts = _ranks(key, left_b.lo, side)
        stops = np.full(n_left, n_right, dtype=np.int64)
    elif op in (ThetaOp.GT, ThetaOp.GE):
        # left_hi (>|>=) right_lo  ⇔  a prefix of the lo-sorted right side.
        order_key = "lo"
        order = right.sort_permutation(order_key)
        key = right_b.lo[order]
        side = "left" if op is ThetaOp.GT else "right"
        starts = np.zeros(n_left, dtype=np.int64)
        stops = _ranks(key, left_b.hi, side)
    else:
        # Overlap tests (=, WITHIN) constrain both right bounds.  With the
        # width c = hi − lo every bucket of a decomposition shares
        # (``max_error``), both collapse onto the lo-sorted side:
        #   left_lo − δ <= right_hi  ∧  left_hi + δ >= right_lo
        #   ⇔  right_lo ∈ [left_lo − δ − c, left_hi + δ].
        width = right.decomposition.max_error
        order_key = "lo"
        order = right.sort_permutation(order_key)
        key = right_b.lo[order]
        delta = theta.delta if op is ThetaOp.WITHIN else 0
        starts = _ranks(key, left_b.lo - delta - width, "left")
        stops = _ranks(key, left_b.hi + delta, "right")
    # Empty runs may come out inverted (stop < start): clamp, don't emit.
    np.maximum(stops, starts, out=stops)
    return starts, stops, order, order_key


def _left_runs(
    left: BwdColumn,
    left_ids: np.ndarray | None,
    right_b: IntervalColumn,
    theta: Theta,
    right: BwdColumn,
) -> RunPairCandidates:
    """:func:`_sorted_runs` of ``left``'s rows (all, or ``left_ids``).

    Per distinct code where that is fewer needles (:func:`_per_code`): the
    runs of the bucket-bound table are the whole decision, the pair count
    is that table weighted by the rows carrying each code, and the table
    is gathered through the rows' codes only when a run is first read.
    Otherwise per row, swept — and named — in ascending code order: the
    whole column's memoized permutation and sorted codes, or one argsort
    of a subset's own (narrow) codes.  The same pair set either way.
    """
    whole = left_ids is None
    n_left = left.length if whole else len(left_ids)
    if _per_code(left, n_left):
        codes = _codes(left, left_ids)
        bounds, weights = _code_table(left, codes)
        starts, stops, order, order_key = _sorted_runs(
            bounds, right_b, theta, right
        )
        check_runs(starts, stops, len(order))

        def form() -> RunPairCandidates:
            return RunPairCandidates(
                np.arange(n_left, dtype=np.int64) if whole else left_ids,
                starts[codes], stops[codes], order, order_key,
            )

        return RunPairCandidates.deferred(
            int((stops - starts) @ weights), form,
            order=order, order_key=order_key, whole_left=whole,
        )
    if whole:
        rows, codes = left.sort_permutation("lo"), left.sorted_approx_codes()
    else:
        codes = left.approx_at(left_ids)
        by_code = np.argsort(codes)
        rows, codes = left_ids[by_code], codes[by_code]
    return RunPairCandidates(
        rows,
        *_sorted_runs(_payload_from_codes(left, codes), right_b, theta, right),
        whole_left=whole,
    )


def theta_join_approx(
    gpu: SimulatedGPU,
    timeline: Timeline,
    left: BwdColumn,
    right: BwdColumn,
    theta: Theta,
    *,
    strategy: str = "sorted",
    emit: str = "runs",
    left_ids: np.ndarray | None = None,
) -> RunPairCandidates:
    """Device-side theta join over approximate intervals.

    Emits every (left, right) position pair whose buckets could satisfy θ —
    a superset of the exact join, as an order-free candidate pair *set*
    (see :class:`~repro.core.candidates.PairCandidates`), run-length
    encoded over the bound-sorted right side.  The device model bills the
    paper's massively parallel |L|·|R| comparison volume plus the
    streams-and-output traffic, a function of the pair count alone.

    ``left_ids`` restricts the left side to a candidate row subset (a
    selection that ran under the join): emitted pairs reference the
    *original* left positions, and the device bills |candidates|·|R|
    comparisons instead of |L|·|R|.

    Everything this function bills, and everything the approximate answer
    reports, is a function of the pair *count*: where the runs are decided
    per distinct code (:func:`_per_code`) the set comes back counted, its
    per-row runs formed only if an operator reads one
    (:meth:`RunPairCandidates.deferred`).

    ``strategy`` and ``emit`` name the one producer and accept nothing but
    ``"sorted"`` / ``"runs"``: ``benchmarks/e2e/layers.py`` still passes
    them, and they leave the signature once it stops.
    """
    if (strategy, emit) != ("sorted", "runs"):
        raise ExecutionError(
            f"theta joins are produced sorted, as runs; got "
            f"strategy={strategy!r} emit={emit!r}"
        )
    if left_ids is not None:
        left_ids = np.asarray(left_ids, dtype=np.int64)
    n_left = left.length if left_ids is None else len(left_ids)
    pairs = _left_runs(left, left_ids, _bounds(right), theta, right)
    read = left.approx_nbytes + right.approx_nbytes
    gpu._charge(
        timeline, f"join.theta.approx({theta.op.value})",
        read + len(pairs) * 2 * _OID_BYTES,
        tuples=n_left * right.length, op_class=OpClass.ARITH,
    )
    return pairs


#: Memoized certain-pair counts, keyed by column identities and θ.  Columns
#: are immutable, so the count is a pure function of the key; entries are
#: purged when either column dies (``weakref.finalize``) so recycled ids
#: cannot alias.  Values are single ints — the memo is a few machine words
#: per distinct (left, right, θ) a workload ever asks about.
_CERTAIN_COUNT_MEMO: dict[tuple, int] = {}


def theta_certain_pair_count(
    left: BwdColumn,
    right: BwdColumn,
    theta: Theta,
    *,
    left_ids: np.ndarray | None = None,
) -> int:
    """Pairs whose buckets satisfy θ for *every* residual assignment.

    The lower bound of the free approximate theta count (the §IV-F
    "certain" side applied to pairs): a certain pair survives exact
    refinement no matter what the residual bits turn out to be, so
    ``[certain, candidates]`` are strict bounds on the exact join
    cardinality.  Like the candidate runs, the certain pairs of every
    supported θ form one contiguous span of a bound-sorted right side
    (:meth:`Theta.certain` is monotone in the right value), so the count
    is two ``searchsorted`` sweeps — with the needles sorted once up
    front (every query array is a shifted copy of the left lower bound,
    and a sum is order-invariant, so one transient ``np.sort`` serves
    every sweep with no scatter-back) — never a pair materialization.
    Whole-column counts are memoized per (left, right, θ): the columns
    are immutable and servers re-ask the same free bound per repeated
    query; the memo holds plain ints, so the computation retains no
    arrays (a deliberately transient footprint — see the BENCH_PR5 heap
    note in PERFORMANCE.md).  A pure simulation computation: callers
    bill it inside the aggregate reduction they already charge, exactly
    like the unary certain masks.
    """
    memo_key = None
    if left_ids is None:
        memo_key = (id(left), id(right), theta.op, theta.delta)
        cached = _CERTAIN_COUNT_MEMO.get(memo_key)
        if cached is not None:
            return cached
    count = _certain_pair_count(left, right, theta, left_ids)
    if memo_key is not None:
        _CERTAIN_COUNT_MEMO[memo_key] = count
        for column in (left, right):
            weakref.finalize(
                column, _CERTAIN_COUNT_MEMO.pop, memo_key, None
            )
    return count


def _certain_pair_count(
    left: BwdColumn,
    right: BwdColumn,
    theta: Theta,
    left_ids: np.ndarray | None,
) -> int:
    n_left = left.length if left_ids is None else len(left_ids)
    n_right = right.length
    if n_left == 0 or n_right == 0:
        return 0
    # Decomposition bounds are uniform-width, so every needle array below
    # is a shifted copy of ascending left lower bounds — the fast sorted-
    # needle binary search, and a sum needs no scatter-back.  They are the
    # bucket-bound table, each code weighted by the rows that carry it
    # (:func:`_per_code`), or the rows' own bounds, sorted once.
    if _per_code(left, n_left):
        bounds, weights = _code_table(left, _codes(left, left_ids))
        lo_sorted = bounds.lo
    else:
        lo_sorted = np.sort(_bounds(left, left_ids).lo)
        weights = None
    left_width = left.decomposition.max_error
    right_b = _bounds(right)
    op = theta.op
    if op in (ThetaOp.LT, ThetaOp.LE):
        # left_hi (<|<=) right_lo  ⇔  a suffix of the lo-sorted right side.
        key = right_b.lo[right.sort_permutation("lo")]
        side = "right" if op is ThetaOp.LT else "left"
        counts = n_right - _ranks(key, lo_sorted + left_width, side)
    elif op in (ThetaOp.GT, ThetaOp.GE):
        # left_lo (>|>=) right_hi  ⇔  a prefix of the hi-sorted right side.
        key = right_b.hi[right.sort_permutation("hi")]
        side = "left" if op is ThetaOp.GT else "right"
        counts = _ranks(key, lo_sorted, side)
    elif op is ThetaOp.EQ:
        # Certain equality needs degenerate intervals on both sides.
        if left_width or right.decomposition.residual_bits:
            return 0
        key = right_b.lo[right.sort_permutation("lo")]
        counts = _ranks(key, lo_sorted, "right")
        counts -= _ranks(key, lo_sorted, "left")
    else:
        # WITHIN holds for all interval points iff the extreme distance
        # fits: right_lo >= left_hi − δ and right_hi <= left_lo + δ; with
        # the uniform right width c this is
        # right_lo ∈ [left_hi − δ, left_lo + δ − c].
        width = right.decomposition.max_error
        key = right_b.lo[right.sort_permutation("lo")]
        counts = _ranks(key, lo_sorted + (theta.delta - width), "right")
        counts -= _ranks(key, lo_sorted + (left_width - theta.delta), "left")
        np.maximum(counts, 0, out=counts)
    return int(counts.sum() if weights is None else counts @ weights)


def exact_run_bounds(
    key: np.ndarray, needles: np.ndarray, theta: Theta
) -> tuple[np.ndarray, np.ndarray]:
    """Span of exact θ matches over exact-sorted right values ``key``, per
    entry of the **ascending** exact left values ``needles``.

    Every supported θ is monotone in the right side's exact value, so the
    rows satisfying ``left θ right`` form one contiguous ``[start, stop)``
    span of the exact-sorted right side — two rank sweeps
    (:func:`_ranks`) instead of O(pairs) comparisons.
    """
    n = len(key)
    n_left = len(needles)
    op = theta.op
    if op is ThetaOp.LT:  # right > left
        return _ranks(key, needles, "right"), np.full(n_left, n, dtype=np.int64)
    if op is ThetaOp.LE:  # right >= left
        return _ranks(key, needles, "left"), np.full(n_left, n, dtype=np.int64)
    if op is ThetaOp.GT:  # right < left
        return np.zeros(n_left, dtype=np.int64), _ranks(key, needles, "left")
    if op is ThetaOp.GE:  # right <= left
        return np.zeros(n_left, dtype=np.int64), _ranks(key, needles, "right")
    delta = theta.delta if op is ThetaOp.WITHIN else 0
    # = and WITHIN: right ∈ [left − δ, left + δ]
    return (
        _ranks(key, needles - delta, "left"),
        _ranks(key, needles + delta, "right"),
    )


def theta_join_refine(
    cpu: Cpu,
    timeline: Timeline,
    left: BwdColumn,
    right: BwdColumn,
    theta: Theta,
    pairs: RunPairCandidates,
) -> RunPairCandidates:
    """Host-side refinement: exact θ over the candidate pairs only.

    The approximation turned a |L|·|R| nested loop into work linear in the
    candidate count — the transformation §IV-D describes for joins.  Each
    row's run becomes its exact span, nothing materialized: the right
    side's *exact* values are sorted once (memoized on the column), the
    left rows taken in the order of *their* exact values — the column's
    memoized exact-sort permutation when the runs cover the whole column
    (the producer says so — no O(|L|) test here), one argsort of the rows'
    reconstructed values otherwise — and those ascending needles ranked in
    the right side (:func:`exact_run_bounds`, two sweeps, O(|L| + |R|)
    instead of O(pairs)).  The refined set names its rows in that order; a
    pair set has none of its own.

    The candidate runs themselves are never read: they cut the bound-sorted
    side on approximation-bucket boundaries, the exact sort refines the
    bound sort bucket-block by bucket-block, and a run holds every bucket
    its row's matches can lie in — so the exact span already lies inside it
    and *is* the intersection.  The modeled charge is a function of the
    candidate pair count only.
    """
    if len(pairs) == 0:
        return pairs
    order = right.sort_permutation("exact")
    key = right.reconstruct()[order]
    if pairs.whole_left:
        rows = left.sort_permutation("exact")
        needles = left.reconstruct()[rows]
    else:
        rows = pairs.left_positions
        needles = left.reconstruct(rows)
        by_value = np.argsort(needles)
        rows, needles = rows[by_value], needles[by_value]
    refined = RunPairCandidates(
        rows, *exact_run_bounds(key, needles, theta), order,
        order_key="exact", whole_left=pairs.whole_left,
    )
    cpu.charge(
        timeline, f"join.theta.refine({theta.op.value})",
        len(pairs) * 2 * _OID_BYTES,
        tuples=len(pairs), op_class=OpClass.GATHER,
    )
    return refined


def theta_join_reference(
    left_values: np.ndarray, right_values: np.ndarray, theta: Theta
) -> PairCandidates:
    """Exact nested-loop join over full-precision values (ground truth)."""
    left_values = np.asarray(left_values, dtype=np.int64)
    right_values = np.asarray(right_values, dtype=np.int64)
    mask = theta.exact(left_values[:, None], right_values[None, :])
    li, ri = np.nonzero(mask)
    return PairCandidates(li, ri)
