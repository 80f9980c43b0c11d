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

The candidate pair *set* comes from one producer, and comes back
*counted*: every supported θ maps a left row to a contiguous run of the
right side sorted by its interval bounds (the inequalities through a single
bound; ``=``/``WITHIN`` through the constant interval width, ``max_error``,
the bitwise decomposition guarantees), and with uniform buckets a run's
ends are ranks read off the right column's cumulative code counts at an
arithmetically computed code (:func:`_below`) — decided once per distinct
left code where the rows outnumber the codes, weighted by the rows
carrying each.  O(|L| + codes) wall-clock, nothing sorted.  The per-row
runs (:class:`~repro.core.candidates.RunPairCandidates`) over the right
column's memoized bound sort are formed only when an operator reads a row;
a ``WHERE`` re-check narrows the left rows of a set nobody formed.  The
refinement counts the exact pairs from the two sides' sorted exact values,
searched into each other, and forms each row's exact span only when read;
pairs materialize exactly once, at final result construction.  The modeled
charge does not depend on how the simulation finds the set: the device
model bills the paper's massively parallel |L|·|R| comparison volume, and
every theta charge is a function of pair counts.  The |L|·|R| nested loop
itself survives only as the test oracle, :func:`theta_join_reference`.
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
from .candidates import PairCandidates, RunPairCandidates, check_runs

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


def _per_code(column: BwdColumn, n_rows: int) -> bool:
    """Decide this side of θ once per distinct approximation code?

    Bucket bounds are a function of the code, and there are at most
    ``2**approx_bits`` codes: when the rows outnumber them, deciding the
    bucket table and weighting each answer by the rows carrying its code
    does fewer decisions than one per row — and a table of one entry per
    code (:meth:`~repro.storage.decompose.BwdColumn.code_offsets`) is no
    larger than the column.  Read off the decomposition and the row count
    alone.
    """
    return (1 << column.decomposition.approx_bits) <= n_rows


# ----------------------------------------------------------------------
# Candidate-pair production
# ----------------------------------------------------------------------
def _ranks(key: np.ndarray, needles: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(key, needles, side)`` for **ascending** needles —
    the rank kernel of the exact spans a formed refinement names.

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


def _below(right: BwdColumn, values: np.ndarray) -> np.ndarray:
    """How many of ``right``'s rows have a bucket lower bound below each of
    ``values`` (int64, in any order): ``np.searchsorted`` of ``values``
    into the lo-sorted bounds, without the bounds or a search.

    Buckets have the uniform width ``2**residual_bits``, so the bounds
    below ``x`` are exactly those of the codes below ``ceil((x − base) /
    width)`` — an arithmetic code, looked up in the column's cumulative
    code counts (:meth:`~repro.storage.decompose.BwdColumn.code_offsets`).
    A column with more codes than rows searches its sorted codes instead
    of a table larger than itself.  The bound-sorted (``"lo"`` / ``"hi"``)
    order is the stable code order, so these are ranks in it.
    """
    dec = right.decomposition
    codes = values - dec.base
    codes += dec.max_error
    codes >>= dec.residual_bits
    np.clip(codes, 0, dec.max_code + 1, out=codes)
    if _per_code(right, right.length):
        return right.code_offsets()[codes]
    # rows with a code below k are the rows with a code up to k − 1
    key = right.sorted_approx_codes()
    codes -= 1
    ranks = np.searchsorted(
        key, np.maximum(codes, 0).astype(key.dtype), side="right"
    )
    ranks[codes < 0] = 0
    return ranks


def _order_key(theta: Theta) -> str:
    """The right-side bound whose sorted order the candidate runs cut."""
    return "hi" if theta.op in (ThetaOp.LT, ThetaOp.LE) else "lo"


def _code_runs(
    left: BwdColumn, right: BwdColumn, theta: Theta, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate run ``[start, stop)`` over the bound-sorted right side
    of a left row carrying each of ``codes`` (any order).

    The pair set of the |L|·|R| nested loop (the ``possible`` predicate,
    rearranged around one sorted bound), one run per entry — every bound
    below is a shifted copy of the left lower bound, ranked by
    :func:`_below`.  The cut points land on equal-key group boundaries,
    and for decomposition bounds those groups are exactly the
    approximation buckets — so a run holds whole buckets, among them every
    bucket an exact match of its row can lie in (the soundness the
    refinement rests on).
    """
    lo = left.decomposition.approx_lower_bounds(codes)
    hi = lo + left.decomposition.max_error
    width = right.decomposition.max_error
    n_right = right.length
    op = theta.op
    if op in (ThetaOp.LT, ThetaOp.LE):
        # left_lo (<|<=) right_hi  ⇔  a suffix of the hi-sorted right side;
        # right_hi = right_lo + width.
        lo -= width - (op is ThetaOp.LT)
        return _below(right, lo), np.full(len(lo), n_right, dtype=np.int64)
    if op in (ThetaOp.GT, ThetaOp.GE):
        # left_hi (>|>=) right_lo  ⇔  a prefix of the lo-sorted right side.
        hi += op is ThetaOp.GE
        return np.zeros(len(hi), dtype=np.int64), _below(right, hi)
    # Overlap tests (=, WITHIN) constrain both right bounds.  With the
    # width c = hi − lo every bucket of a decomposition shares
    # (``max_error``), both collapse onto the lo-sorted side:
    #   left_lo − δ <= right_hi  ∧  left_hi + δ >= right_lo
    #   ⇔  right_lo ∈ [left_lo − δ − c, left_hi + δ].
    delta = theta.delta if op is ThetaOp.WITHIN else 0
    lo -= delta + width
    hi += delta + 1
    starts, stops = _below(right, lo), _below(right, hi)
    # Empty runs may come out inverted (stop < start): clamp, don't emit.
    np.maximum(stops, starts, out=stops)
    return starts, stops


def _needles(
    left: BwdColumn, left_ids: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The left side's codes to decide θ for, and the rows each stands for.

    Per distinct code where that is fewer decisions (:func:`_per_code`):
    every code once, weighted by how many rows carry it — a whole column's
    weights are its memoized code counts, a subset's one ``bincount`` of
    its codes.  Otherwise each row's own code, weight 1 (``None``).
    """
    n_left = left.length if left_ids is None else len(left_ids)
    if not _per_code(left, n_left):
        return _codes(left, left_ids).astype(np.int64), None
    n_codes = left.decomposition.max_code + 1
    if left_ids is None:
        weights = np.diff(left.code_offsets())
    else:
        weights = np.bincount(left.approx_at(left_ids), minlength=n_codes)
    return np.arange(n_codes, dtype=np.int64), weights


def _left_runs(
    left: BwdColumn,
    left_ids: np.ndarray | None,
    theta: Theta,
    right: BwdColumn,
) -> RunPairCandidates:
    """The candidate pairs of ``left``'s rows (all, or ``left_ids``),
    counted — their runs formed on first read.

    The count is each needle's run length (:func:`_code_runs`) weighted by
    its rows (:func:`_needles`); nothing is sorted and no permutation is
    read.  Formed, a per-code decision is the bucket table read through
    the rows' codes; a per-row one is swept — and named — in ascending
    code order: the whole column's memoized permutation and sorted codes,
    or one argsort of a subset's own (narrow) codes.  The runs cut the
    right column's memoized bound sort, read only then.
    """
    whole = left_ids is None
    needles, weights = _needles(left, left_ids)
    starts, stops = _code_runs(left, right, theta, needles)
    spans = stops - starts
    order_key = _order_key(theta)
    if weights is None:
        count = int(spans.sum())

        def form() -> RunPairCandidates:
            if whole:
                rows = left.sort_permutation("lo")
                codes = left.sorted_approx_codes()
            else:
                codes = left.approx_at(left_ids)
                by_code = np.argsort(codes)
                rows, codes = left_ids[by_code], codes[by_code]
            return RunPairCandidates(
                rows, *_code_runs(left, right, theta, codes.astype(np.int64)),
                right.sort_permutation(order_key), order_key, whole_left=whole,
            )

        def run_lengths(rows: np.ndarray) -> np.ndarray:
            starts, stops = _code_runs(
                left, right, theta, left.approx_at(rows).astype(np.int64)
            )
            return stops - starts
    else:
        check_runs(starts, stops, right.length)
        count = int(spans @ weights)

        def form() -> RunPairCandidates:
            codes = _codes(left, left_ids)
            return RunPairCandidates(
                np.arange(left.length, dtype=np.int64) if whole else left_ids,
                starts[codes], stops[codes],
                right.sort_permutation(order_key), order_key, whole_left=whole,
            )

        def run_lengths(rows: np.ndarray) -> np.ndarray:
            return spans[left.approx_at(rows)]

    return RunPairCandidates.deferred(
        count, form, order_key=order_key, whole_left=whole,
        rows=left.length if whole else left_ids, run_lengths=run_lengths,
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
    reports, is a function of the pair *count*: the set comes back counted
    (:func:`_left_runs`), its per-row runs formed only if an operator reads
    one (:meth:`RunPairCandidates.deferred`).

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
    pairs = _left_runs(left, left_ids, theta, right)
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
    # Every certain span is one of the lo-sorted right side (monotone in
    # the right value), ranked by code arithmetic (:func:`_below`) per
    # needle code, each weighted by the rows it stands for.
    needles, weights = _needles(left, left_ids)
    lo = left.decomposition.approx_lower_bounds(needles)
    hi = lo + left.decomposition.max_error
    width = right.decomposition.max_error
    op = theta.op
    if op in (ThetaOp.LT, ThetaOp.LE):
        # left_hi (<|<=) right_lo  ⇔  a suffix of the lo-sorted right side.
        counts = n_right - _below(right, hi + (op is ThetaOp.LT))
    elif op in (ThetaOp.GT, ThetaOp.GE):
        # left_lo (>|>=) right_hi = right_lo + c  ⇔  a prefix of it.
        counts = _below(right, lo - (width - (op is ThetaOp.GE)))
    elif op is ThetaOp.EQ:
        # Certain equality needs degenerate intervals on both sides.
        if left.decomposition.max_error or width:
            return 0
        counts = _below(right, lo + 1) - _below(right, lo)
    else:
        # WITHIN holds for all interval points iff the extreme distance
        # fits: right_lo >= left_hi − δ and right_hi <= left_lo + δ; with
        # the uniform right width c this is
        # right_lo ∈ [left_hi − δ, left_lo + δ − c].
        counts = _below(right, lo + (theta.delta - width + 1))
        counts -= _below(right, hi - theta.delta)
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


#: θ read from the right side: ``left θ right`` ⇔ ``right mirror(θ) left``
_MIRRORED = {
    ThetaOp.LT: ThetaOp.GT, ThetaOp.LE: ThetaOp.GE,
    ThetaOp.GT: ThetaOp.LT, ThetaOp.GE: ThetaOp.LE,
    ThetaOp.EQ: ThetaOp.EQ, ThetaOp.WITHIN: ThetaOp.WITHIN,
}


def _matches(
    key: np.ndarray, needles: np.ndarray, op: ThetaOp, delta: int
) -> int:
    """How many (needle, key) pairs satisfy ``needle op key``, over sorted
    ``key``: each needle's matches are one span of it, so the count is a
    sum of ``searchsorted`` ranks — fastest for ascending needles, whose
    searches walk the key once."""
    def ranked(values, side):
        return int(np.searchsorted(key, values, side=side).sum())

    if op is ThetaOp.LT:  # key > needle
        return len(needles) * len(key) - ranked(needles, "right")
    if op is ThetaOp.LE:  # key >= needle
        return len(needles) * len(key) - ranked(needles, "left")
    if op is ThetaOp.GT:  # key < needle
        return ranked(needles, "left")
    if op is ThetaOp.GE:  # key <= needle
        return ranked(needles, "right")
    # = and WITHIN: key ∈ [needle − δ, needle + δ]
    return ranked(needles + delta, "right") - ranked(needles - delta, "left")


def _exact_pair_count(
    left: BwdColumn, right: BwdColumn, theta: Theta, rows: np.ndarray | None
) -> int:
    """The exact join's pair count over ``left``'s rows (all, or ``rows``)
    from sorted exact values — no permutation, no span formed.

    A whole left column reads its memoized sorted values
    (:meth:`~repro.storage.decompose.BwdColumn.sorted_values`), a subset
    sorts its rows' reconstructed values; then the side with fewer rows is
    searched into the other.  A recorded grid (36 cells: 2 K - 200 K rows
    a side, whole or subset, ``<`` and ``WITHIN``) is behind both:
    unsorted needles lost every cell, by 2.2-16x; the rule's pick was
    within 11 % of the fastest variant in all 36 cells, whether a side was
    a whole column or a subset, and searching the longer side instead cost
    1.9-20x where the sides differ tenfold or more.
    """
    if rows is None:
        values = left.sorted_values()
    else:
        values = np.sort(left.reconstruct(rows))
    delta = theta.delta if theta.op is ThetaOp.WITHIN else 0
    if len(values) <= right.length:
        return _matches(right.sorted_values(), values, theta.op, delta)
    return _matches(values, right.sorted_values(), _MIRRORED[theta.op], delta)


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
    candidate count — the transformation §IV-D describes for joins.  The
    refined set comes back *counted* (:func:`_exact_pair_count`: sorted
    exact values searched into each other, nothing per row kept), and each
    row's run becomes its exact span only when an operator reads one: the
    right side's *exact* values sorted once (memoized on the column), the
    left rows taken in the order of *their* exact values — the column's
    memoized exact-sort permutation when the runs cover the whole column
    (the producer says so — no O(|L|) test here), one argsort of the rows'
    reconstructed values otherwise — and those ascending needles ranked in
    the right side (:func:`exact_run_bounds`, two sweeps, O(|L| + |R|)
    instead of O(pairs)).  The formed set names its rows in that order; a
    pair set has none of its own.

    The candidate runs themselves are never read: they cut the bound-sorted
    side on approximation-bucket boundaries, the exact sort refines the
    bound sort bucket-block by bucket-block, and a run holds every bucket
    its row's matches can lie in — so the exact span already lies inside it
    and *is* the intersection.  Only the candidates' left rows are read,
    and those a deferred set knows unformed.  The modeled charge is a
    function of the candidate pair count only.
    """
    if len(pairs) == 0:
        return pairs
    whole = pairs.whole_left
    rows = None if whole else pairs.left_rows
    count = _exact_pair_count(left, right, theta, rows)

    def form_whole() -> RunPairCandidates:
        return RunPairCandidates(
            left.sort_permutation("exact"),
            *exact_run_bounds(right.sorted_values(), left.sorted_values(), theta),
            right.sort_permutation("exact"), order_key="exact", whole_left=True,
        )

    def form_rows() -> RunPairCandidates:
        positions = pairs.left_positions
        needles = left.reconstruct(positions)
        by_value = np.argsort(needles)
        positions, needles = positions[by_value], needles[by_value]
        return RunPairCandidates(
            positions, *exact_run_bounds(right.sorted_values(), needles, theta),
            right.sort_permutation("exact"), order_key="exact",
        )

    refined = RunPairCandidates.deferred(
        count, form_whole if whole else form_rows,
        order_key="exact", whole_left=whole,
        rows=left.length if whole else rows,
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
