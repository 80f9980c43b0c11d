"""Candidate sets: the data flowing from approximation to refinement.

An approximation operator produces a *candidate result* (paper §III): the
tuple ids of an over-approximated result set, together with whatever
device-side payload later refinement steps need (the approximation codes
that were matched, per-row error bounds for computed values).  Refinement
operators consume one of these plus the residual data.

Three candidate shapes exist:

* :class:`Approximation` — unary candidates (one id per row), used by
  selections, projections and FK joins.
* :class:`RunPairCandidates` — binary candidates, used by theta joins:
  one contiguous ``[start, stop)`` run over a shared right-side permutation
  per left row.  Pair candidates obey the **order-insensitive contract**
  (see PERFORMANCE.md): they denote a *set* of pairs, named in whatever
  order the join swept its rows, and no consumer may rely on an order.
  The sorted interval join computes its matches in exactly this shape, so
  keeping it defers the O(candidate pairs) explosion to the **single
  materialization point** (:meth:`RunPairCandidates.canonicalized`) at the
  end of the pipeline.
  And since every charge and the approximate answer read only the pair
  *count*, the runs themselves are **counted first, formed on first read**
  (:meth:`RunPairCandidates.deferred`): the join counts its candidates off
  code arithmetic (one decision per distinct code where the rows outnumber
  the codes, weighted by how many rows carry each), the refinement counts
  its exact pairs off the sides' sorted exact values, and a ``WHERE``
  re-check narrows the left rows a counted set names unformed
  (:attr:`RunPairCandidates.left_rows`).  Per-row runs are formed only if
  an operator reads a pair — a ``count(*)`` over a band join never does.
* :class:`PairCandidates` — the same set exploded to a left/right position
  per pair: what that materialization point returns, in the one
  deterministic (left, right) order, and what the nested-loop test oracle
  (:func:`~repro.core.theta.theta_join_reference`) emits.

Unary candidates obey the same contract between approximation and
refinement: an :class:`Approximation` denotes a *set* of rows with their
payloads aligned, and an aggregate over it is a commutative fold that
cannot see order.  Order is formed only for a plan that returns rows (the
Result then *is* that order).  So unary candidates defer the same way: a
scan answered out of the sorted-code view hands over :class:`CarvedHits` —
a count, a run and its codes, nothing sorted — and the
:class:`Approximation` built on them forms its rows when an operator first
reads one (:meth:`Approximation.deferred`): ascending and scattered for a
plan that returns them, as the run stands for one that only aggregates.
Payloads defer one level down: bucket bounds are billed when their scan,
probe or projection runs and gathered when first read (:meth:`~repro.core.
intervals.IntervalColumn.deferred`; an FK join's target at once, to refuse
a dangling key); a narrowing takes an unread payload's ids only.
For the same reason a set that only feeds *grouped* aggregates may be put
in group order (``ArExecutor._group_major``: ids and payloads taken through
one stable sort of the narrow composite key), after which every fold is a
reduction of contiguous slices — unless it still carries its carve, whose
run order is what certainty reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..util import as_index_array
from .intervals import IntervalColumn


@dataclass(frozen=True)
class CarvedHits:
    """One relaxed scan's hits carved out of a column's sorted-code view:
    counted, not yet put in order.

    ``run`` is the slice of the sort permutation whose codes fall in the
    relaxed code range — the hit *set* — and ``codes`` the same slice of
    the sorted codes, both read-only views of the column's cached ones;
    :meth:`ascending` sorts the run into exactly what the solo kernel's
    ``flatnonzero`` emits.  ``sure`` is the sub-run whose codes lie in the
    certain code range: the hits before and after it (the two end buckets
    of the run at most; ``boundary`` holds their ids) are the only ones a
    refinement can still drop.
    """

    run: np.ndarray
    codes: np.ndarray
    sure: slice
    boundary: np.ndarray

    @property
    def size(self) -> int:
        return self.run.size

    def ascending(self) -> np.ndarray:
        return np.sort(self.run)


class Approximation:
    """One approximation operator's output.

    Attributes
    ----------
    ids:
        Candidate tuple ids, in the (possibly scrambled) order the
        device-side operator emitted them.
    order_preserved:
        Whether ``ids`` still follows the base-table order.  The massively
        parallel selection scrambles order (paper §IV-A item 3); everything
        downstream must then preserve the scrambled permutation so that
        translucent joins stay applicable.
    payloads:
        Per-column device-side payloads aligned with ``ids``: interval
        columns of the approximate values (bucket bounds or propagated
        arithmetic bounds).
    exact:
        True when the approximation is known to be error-free (every
        involved column fully device-resident) — refinement is then a no-op
        beyond bookkeeping, the all-GPU fast path of the TPC-H experiments.
        Every row then satisfies every predicate decidable on the device
        (``ArExecutor._certainty`` reads no bound): a drivable one's relaxed
        range *is* the predicate, a payload one narrowed the set by its
        candidate mask (over degenerate bounds the exact mask); a host
        predicate's column is no payload yet.

    A set built by :meth:`deferred` is *counted but not formed*: ``len()``
    and :attr:`labels` — all the modeled charges read — are known, while
    ``ids`` and ``payloads`` are produced by its thunk on their first read
    and kept from then on.  Whether rows get formed is thus decided by
    whether an operator reads them, and a reader cannot tell the difference.
    """

    __slots__ = (
        "_ids", "_payloads", "order_preserved", "exact",
        "_count", "_labels", "_form", "_carve",
    )

    def __init__(
        self,
        ids: np.ndarray,
        order_preserved: bool = True,
        payloads: dict[str, IntervalColumn] | None = None,
        exact: bool = False,
        *,
        carve: tuple | None = None,
    ) -> None:
        self._ids = as_index_array(ids)
        self._payloads = {} if payloads is None else payloads
        for name, col in self._payloads.items():
            if len(col) != len(self._ids):
                raise ValueError(f"payload {name!r} misaligned with candidate ids")
        self.order_preserved = order_preserved
        self.exact = exact
        self._form = None
        #: ``(label, value range, CarvedHits)`` of the relaxed selection this
        #: set answers, while its rows are as the carve left them: not yet
        #: read, or formed in run order
        self._carve = carve

    @classmethod
    def deferred(
        cls,
        count: int,
        labels: tuple[str, ...],
        form,
        *,
        order_preserved: bool,
        exact: bool,
        carve: tuple | None = None,
    ) -> "Approximation":
        """A set of ``count`` candidates carrying payloads ``labels`` whose
        rows ``form()`` — returning the formed set — produces when first
        read.  ``carve`` is ``(label, value range, CarvedHits)`` of the
        relaxed selection the set answers, see :meth:`boundary`; it stays
        with the rows if ``form()`` hands it on, see :meth:`certain_run`.

        ``form`` must not refer back to the set it forms: a deferred set
        that is dropped unread has to die by reference count alone.
        """
        self = cls.__new__(cls)
        self._ids = self._payloads = None
        self._count, self._labels, self._form = count, tuple(labels), form
        self._carve = carve
        self.order_preserved, self.exact = order_preserved, exact
        return self

    def _read(self) -> None:
        """Form the rows, once; the thunk and what it holds are let go."""
        formed = self._form()
        if len(formed) != self._count:
            raise ExecutionError(
                f"deferred candidates counted {self._count} rows, "
                f"formed {len(formed)}"
            )
        self._ids, self._payloads = formed.ids, formed.payloads
        self._form, self._carve = None, formed._carve

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._read()
        return self._ids

    @property
    def payloads(self) -> dict[str, IntervalColumn]:
        if self._payloads is None:
            self._read()
        return self._payloads

    @property
    def labels(self) -> tuple[str, ...]:
        """The payloads' names, in order — without forming a row."""
        return self._labels if self._ids is None else tuple(self._payloads)

    def _carved(self, label: str, vrange):
        carve = self._carve
        if carve is not None and carve[0] == label and carve[1] == vrange:
            return carve[2]
        return None

    @property
    def carved(self) -> bool:
        """Whether the rows are still as a carve left them — unread, or
        formed in its run order, which :meth:`certain_run` and the boundary
        refinement read: such a set must not be reordered."""
        return self._carve is not None

    def boundary(self, label: str, vrange) -> np.ndarray | None:
        """While no row has been read: the ids that can still fail the
        selection ``label in vrange`` this set was carved for — every other
        candidate's whole bucket lies inside the range.  ``None`` once the
        rows are formed, and for any other selection."""
        hits = self._carved(label, vrange) if self._ids is None else None
        return None if hits is None else hits.boundary

    def certain_count(self, label: str, vrange) -> int | None:
        """How many rows' whole bucket lies inside ``label in vrange`` —
        known from the carve alone while the rows are as it left them."""
        hits = self._carved(label, vrange)
        return None if hits is None else hits.sure.stop - hits.sure.start

    def certain_run(self, label: str, vrange) -> slice | None:
        """Once formed in the run order of the carve answering ``label in
        vrange``: the slice of this set's rows whose whole bucket lies
        inside the range — only the rows before and after it can still
        fail the selection.  ``None`` for rows in any other order, unread
        ones, and any other selection."""
        hits = self._carved(label, vrange) if self._ids is not None else None
        return None if hits is None else hits.sure

    def __len__(self) -> int:
        return self._count if self._ids is None else len(self._ids)

    def __repr__(self) -> str:
        state = "deferred" if self._ids is None else "formed"
        return f"Approximation({len(self)} rows, {list(self.labels)}, {state})"

    def payload(self, name: str) -> IntervalColumn:
        try:
            return self.payloads[name]
        except KeyError:
            raise KeyError(
                f"approximation carries no payload for column {name!r}"
            ) from None

    def with_payload(self, name: str, column: IntervalColumn) -> "Approximation":
        if len(column) != len(self.ids):
            raise ValueError(f"payload {name!r} misaligned with candidate ids")
        self.payloads[name] = column
        return self

    def narrowed(
        self, keep, replacing: dict[str, IntervalColumn] | None = None
    ) -> "Approximation":
        """Candidate subset taken at ``keep``'s positions (ascending ones
        keep the order; a keep-mask is passed as ``np.flatnonzero(mask)``)
        — or by a function returning the kept rows of an array aligned with
        the ids, for a caller that knows a cheaper way to them.

        Ids and payloads are taken at the same positions — no id
        re-intersection — except the payloads ``replacing`` names: its
        columns, already narrowed, stand in.  The ids are taken once, also
        for every unread payload over them (:meth:`IntervalColumn.take`).
        """
        if not callable(keep):
            positions = np.asarray(keep)
            if positions.dtype == bool:
                raise TypeError("narrow by positions, not by a boolean mask")

            def keep(rows: np.ndarray) -> np.ndarray:
                return rows.take(positions)
        replacing, ids = replacing or {}, self.ids
        kept = keep(ids)
        return Approximation(
            ids=kept,
            order_preserved=self.order_preserved,
            payloads={
                k: replacing[k] if k in replacing
                else v.take(lambda rows: kept if rows is ids else keep(rows))
                for k, v in self.payloads.items()
            },
            exact=self.exact,
        )


@dataclass
class PairCandidates:
    """A theta join's pair set, exploded to one position pair per pair.

    **Order-insensitive contract.**  The two aligned position arrays denote
    an unordered *set* of (left, right) pairs — relational results are sets
    of tuples, so nothing may depend on the order a producer emitted them
    in.  A layout that must be deterministic (final result
    materialization, figure rendering) comes from :meth:`canonicalized`;
    two pair sets are equal when their canonicalized layouts are.
    """

    left_positions: np.ndarray
    right_positions: np.ndarray

    def __post_init__(self) -> None:
        self.left_positions = np.asarray(self.left_positions, dtype=np.int64)
        self.right_positions = np.asarray(self.right_positions, dtype=np.int64)
        if self.left_positions.shape != self.right_positions.shape:
            raise ExecutionError("pair arrays misaligned")

    def __len__(self) -> int:
        return len(self.left_positions)

    # ------------------------------------------------------------------
    def canonical_order(self) -> np.ndarray:
        """Permutation sorting the pairs lexicographically by (left, right)."""
        return np.lexsort((self.right_positions, self.left_positions))

    def canonicalized(self) -> "PairCandidates":
        """The unique (left, right)-sorted layout of this pair set.

        The *only* place order is allowed to matter: call this at final
        result materialization, never between pipeline operators.
        """
        order = self.canonical_order()
        return PairCandidates(
            self.left_positions[order], self.right_positions[order]
        )


def check_runs(starts: np.ndarray, stops: np.ndarray, n_right: int) -> None:
    """Refuse ``[start, stop)`` runs that leave a right side of ``n_right``
    rows or run backwards — per left row, or per entry of a run table."""
    if starts.size and (
        int(starts.min()) < 0
        or int(stops.max(initial=0)) > n_right
        or bool((stops < starts).any())
    ):
        raise ExecutionError("run bounds outside the right-side permutation")


class RunPairCandidates:
    """Run-length encoded candidate pair set of a sorted theta join.

    The order-insensitive pair contract, run-length encoded.  The
    denoted set is ``{(left_positions[i], order[j]) : starts[i] <= j <
    stops[i]}`` — per left row one contiguous run of a *shared* right-side
    permutation, instead of two exploded per-pair position arrays.  The
    sorted interval join produces its matches in exactly this shape (ranks
    in the sorted right side are run bounds), and the refinement replaces
    each run with the row's exact span, so an output-heavy join never
    touches O(candidate pairs) memory until the **single materialization
    point**: :meth:`canonicalized`, called by the engine at final result
    construction.  Everything the modeled device bills is a function of the
    pair *count* (:meth:`__len__`), which the runs carry exactly.

    ``order_key`` records which right-side value stream ``order`` stably
    sorts: ``"lo"``/``"hi"`` — approximate interval bounds, with runs cut
    on equal-key group boundaries, what the join produces — or ``"exact"``
    — reconstructed values, what the refinement produces.

    ``whole_left`` is the producer's word that ``left_positions`` names
    every row of the left column exactly once — in whatever order the
    producer swept them — so a consumer may take the rows from the column's
    whole-column views and memoized permutations without testing for it.

    A set built by :meth:`deferred` is *counted but not formed*: ``len()``,
    ``order_key``, ``whole_left`` and :attr:`left_rows` — all that the
    modeled charges, the approximate answer, a ``WHERE`` re-check and a
    counting refinement read — are known, while ``left_positions`` /
    ``starts`` / ``stops`` / ``order`` are produced by its thunk on their
    first read and kept from then on.
    """

    __slots__ = (
        "_left_positions", "_starts", "_stops", "_order", "order_key",
        "whole_left", "_total", "_form", "_rows", "_run_lengths",
    )

    def __init__(
        self,
        left_positions: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        order: np.ndarray,
        order_key: str,
        whole_left: bool = False,
    ) -> None:
        self._left_positions = np.asarray(left_positions, dtype=np.int64)
        self._starts = np.asarray(starts, dtype=np.int64)
        self._stops = np.asarray(stops, dtype=np.int64)
        self._order = np.asarray(order, dtype=np.int64)
        self.order_key, self.whole_left = order_key, whole_left
        self._form = self._run_lengths = None
        if not (
            self._left_positions.shape == self._starts.shape == self._stops.shape
        ):
            raise ExecutionError("run arrays misaligned")
        check_runs(self._starts, self._stops, len(self._order))
        self._total = int((self._stops - self._starts).sum())

    @classmethod
    def deferred(
        cls,
        count: int,
        form,
        *,
        order_key: str,
        whole_left: bool,
        rows: np.ndarray | int,
        run_lengths=None,
    ) -> "RunPairCandidates":
        """A set of ``count`` pairs whose per-row runs and right-side
        permutation ``form()`` — returning the formed set — produces when
        first read.

        ``rows`` names the left rows without forming them: their positions
        in any order, or — for a ``whole_left`` set — the left column's
        row count.  ``run_lengths(rows)``, when given, is how many pairs
        each of those rows has, so :meth:`rows_narrowed` can count a subset
        without forming it.  ``form`` must not refer back to the set it
        forms: a deferred set that is dropped unread has to die by
        reference count alone.
        """
        self = cls.__new__(cls)
        self._left_positions = self._starts = self._stops = self._order = None
        self.order_key, self.whole_left = order_key, whole_left
        self._total, self._form = count, form
        self._rows, self._run_lengths = rows, run_lengths
        return self

    def _read(self) -> None:
        """Form the runs, once; the thunk and what it holds are let go."""
        formed = self._form()
        if len(formed) != self._total:
            raise ExecutionError(
                f"deferred runs counted {self._total} pairs, "
                f"formed {len(formed)}"
            )
        self._left_positions, self._order = formed.left_positions, formed.order
        self._starts, self._stops = formed.starts, formed.stops
        self._form = self._rows = self._run_lengths = None

    @property
    def left_positions(self) -> np.ndarray:
        if self._form is not None:
            self._read()
        return self._left_positions

    @property
    def starts(self) -> np.ndarray:
        if self._form is not None:
            self._read()
        return self._starts

    @property
    def stops(self) -> np.ndarray:
        if self._form is not None:
            self._read()
        return self._stops

    @property
    def order(self) -> np.ndarray:
        if self._form is not None:
            self._read()
        return self._order

    @property
    def left_rows(self) -> np.ndarray:
        """The left rows as a set — positions in no promised order — read
        without forming a run: ``left_positions`` once formed."""
        if self._form is None:
            return self._left_positions
        if self.whole_left and not isinstance(self._rows, np.ndarray):
            return np.arange(self._rows, dtype=np.int64)
        return self._rows

    def __len__(self) -> int:
        return self._total

    def __repr__(self) -> str:
        state = "deferred" if self._form is not None else "formed"
        return (
            f"RunPairCandidates({self._total} pairs over "
            f"{self.order_key!r}, {state})"
        )

    # ------------------------------------------------------------------
    def materialized(self) -> PairCandidates:
        """Explode the runs into per-pair arrays (run order, no sort).

        O(total pairs); everything upstream of final materialization stays
        run-length encoded.
        """
        counts = self.stops - self.starts
        total = self._total
        if total == 0:
            return PairCandidates(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        left = np.repeat(self.left_positions, counts)
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        right = self.order[np.repeat(self.starts, counts) + within]
        return PairCandidates(left, right)

    def canonicalized(self) -> PairCandidates:
        """The unique (left, right)-sorted materialized layout of this set.

        The one place runs are exploded into a :class:`PairCandidates` —
        final result materialization — and the one place order matters.
        The non-empty runs are exploded in ascending row order, after which
        only the right positions inside a run can be out of place: one sort
        of the ``left · span + right`` composite (``span`` past the largest
        right position; positions are 32-bit oids, so it fits an int64)
        puts them in order, where a ``lexsort`` would sort pairs that
        arrive in the sweeps' value order from scratch.
        """
        runs = np.flatnonzero(self.stops > self.starts)
        runs = runs[np.argsort(self.left_positions[runs])]
        pairs = RunPairCandidates(
            self.left_positions[runs], self.starts[runs], self.stops[runs],
            self.order, self.order_key,
        ).materialized()
        if len(pairs) == 0:
            return pairs
        span = int(self.order.max()) + 1
        key = pairs.left_positions * span
        key += pairs.right_positions
        key.sort()
        left = key // span
        return PairCandidates(left, key - left * span)

    def rows_narrowed(self, keep_mask: np.ndarray) -> "RunPairCandidates":
        """Subset selected by a per-*left-row* boolean mask, run-preserving.

        The mask is aligned with :attr:`left_rows`.  Drops whole runs (a
        left-side selection refinement); the surviving runs and their
        permutation — including the ``order_key`` — are untouched, so a
        later refinement still applies.  A deferred set that knows its
        rows' run lengths stays deferred: counted from the kept rows, and
        formed as its own formed runs narrowed.
        """
        keep_mask = np.asarray(keep_mask, dtype=bool)
        rows = self.left_rows
        if keep_mask.shape != rows.shape:
            raise ExecutionError("row mask misaligned with runs")
        keep = np.flatnonzero(keep_mask)
        if self._form is None:
            return RunPairCandidates(
                self._left_positions.take(keep), self._starts.take(keep),
                self._stops.take(keep), self._order, order_key=self.order_key,
            )
        kept, form, lengths = rows.take(keep), self._form, self._run_lengths
        if lengths is None:
            self._read()
            return self._keeping(self, kept)
        return RunPairCandidates.deferred(
            int(lengths(kept).sum()),
            lambda: RunPairCandidates._keeping(form(), kept),
            order_key=self.order_key, whole_left=False,
            rows=kept, run_lengths=lengths,
        )

    @staticmethod
    def _keeping(formed: "RunPairCandidates", kept: np.ndarray):
        """``formed`` narrowed to the runs of the left rows ``kept``."""
        rows = formed.left_positions
        member = np.zeros(int(rows.max(initial=-1)) + 1, dtype=bool)
        member[kept] = True
        return formed.rows_narrowed(member[rows])

    def left_multiplicities(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-entry ``(left rows, pair multiplicities)`` of this set.

        The aggregate-only consumer's view of a pair set: every aggregate
        over pairs of left-side values is a weighted aggregate over these
        rows.  One entry per non-empty run, weight = run length — O(runs),
        no pair ever materialized."""
        counts = self.stops - self.starts
        keep = counts > 0
        return self.left_positions[keep], counts[keep]
