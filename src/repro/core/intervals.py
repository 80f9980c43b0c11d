"""Strict error-bound arithmetic for approximate value operators.

Arithmetic on approximate inputs "yields the expected value and strict
error bounds of the result" (paper §III): each row carries a closed
interval ``[lo, hi]`` guaranteed to contain the exact value.  Basic
arithmetic (add, subtract, multiply, divide) and some complex functions
(sqrt, power) propagate such bounds, which is exactly the set the paper
supports.

§IV-G's *destructive distributivity* falls out of the representation:
``(a_ap + a_re) · (b_ap + b_re)`` cannot be reconstructed from approximate
products alone, so a multiplication's interval is sound but its refinement
must recompute from exact inputs — the :attr:`IntervalColumn.refinable`
flag records whether a downstream refinement may still reuse device-side
results (true only for error-free, i.e. exact, inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BoundOverflowError, ExecutionError

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True, slots=True)
class Interval:
    """A scalar closed interval (used for aggregate results)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExecutionError(f"malformed interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


class IntervalColumn:
    """Per-row error bounds: aligned ``lo``/``hi`` int64 arrays.

    Construction sites:

    * an exact column → degenerate intervals (``lo == hi``),
    * a decomposed column's approximation codes → bucket bounds, which a
      device operator attaches :meth:`deferred`,
    * arithmetic on other interval columns → propagated bounds.

    A column built from one array for both ends (``hi is lo``) is
    *degenerate*: the ends share a single read-only array, so they cannot
    come to disagree, exactness is known without looking at a value, and
    arithmetic on such operands is one array operation (:meth:`_lift`).
    Degeneracy is only ever read off that identity — two separate arrays
    that happen to hold equal values take the general path.

    A :meth:`deferred` column is *billed but not gathered*: ``len()``,
    :attr:`is_exact` and :attr:`refinable` are known, ``lo`` / ``hi`` are
    formed on first read, and :meth:`take` takes its ids until then.
    """

    __slots__ = ("lo", "hi", "refinable", "_exact", "_ids", "_form")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, *, refinable: bool) -> None:
        degenerate = hi is lo
        lo = np.asarray(lo, dtype=np.int64)
        if degenerate:
            lo = lo.view()
            lo.flags.writeable = False
            hi = lo
        else:
            hi = np.asarray(hi, dtype=np.int64)
            if lo.shape != hi.shape:
                raise ExecutionError("interval bounds misaligned")
            if lo.size and bool((lo > hi).any()):
                raise ExecutionError("interval with lo > hi")
        self.lo = lo
        self.hi = hi
        #: True while every row is error-free; multiplying two inexact
        #: columns is the destructive-distributivity case of §IV-G.
        self.refinable = refinable
        self._exact = True if degenerate else None
        self._form = None

    # ------------------------------------------------------------------
    @classmethod
    def deferred(cls, ids: np.ndarray, exact: bool, form) -> "IntervalColumn":
        """Bounds at ``ids`` that ``form(ids)`` produces when ``lo`` or
        ``hi`` is first read; ``exact`` is the producer's word that every
        row is error-free, which no rows are either way."""
        self = cls.__new__(cls)
        self._ids, self._form = ids, form
        self.refinable = self._exact = exact or len(ids) == 0
        return self

    def __getattr__(self, name: str):  # an unset slot: form deferred bounds
        if name not in ("lo", "hi"):
            raise AttributeError(name)
        formed = self._form(self._ids)
        self.lo, self.hi, self._ids, self._form = formed.lo, formed.hi, None, None
        return getattr(self, name)

    @classmethod
    def exact(cls, values: np.ndarray) -> "IntervalColumn":
        return cls(values, values, refinable=True)

    @classmethod
    def inexact(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalColumn":
        """Bounds the caller knows to differ in some row (``hi = lo + e``
        with ``e > 0`` over at least one row): not exact, no scan to find
        that out."""
        column = cls(lo, hi, refinable=False)
        column._exact = False
        return column

    @classmethod
    def from_bounds(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalColumn":
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if np.array_equal(lo, hi):
            return cls(lo, lo, refinable=True)
        return cls.inexact(lo, hi)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids) if self._form is not None else self.lo.shape[0]

    @property
    def is_exact(self) -> bool:
        if self._exact is None:
            self._exact = bool(np.array_equal(self.lo, self.hi))
        return self._exact

    @property
    def max_error(self) -> int:
        if len(self) == 0:
            return 0
        return int((self.hi - self.lo).max())

    def take(self, positions: np.ndarray) -> "IntervalColumn":
        """Row subset by integer positions, or by a function returning an
        aligned array's kept rows — of the ids, while the column is unread:
        nothing is gathered."""
        pick = positions if callable(positions) else (lambda rows: rows.take(positions))
        if self._form is not None:
            return IntervalColumn.deferred(pick(self._ids), self._exact, self._form)
        lo = pick(self.lo)
        hi = lo if self.hi is self.lo else pick(self.hi)
        return IntervalColumn(lo, hi, refinable=self.refinable)

    # ------------------------------------------------------------------
    # Arithmetic (paper §IV-B: add/sub/mul/div, sqrt/power)
    # ------------------------------------------------------------------
    def _lift(
        self, point, bounds, *others: "IntervalColumn", refinable: bool
    ) -> "IntervalColumn":
        """Lift an operator on values to one on intervals.

        Degenerate operands need no bounding: ``point`` applied to their
        shared arrays is both ends of the result, which is degenerate
        again — and wraps in int64 as exact arithmetic does.  Anything else
        evaluates ``bounds(*ends)`` → ``(lo, hi)`` over each operand's
        ``(lo, hi)``.  Exact operands' bounds wrap as their values do; an
        inexact bound that wraps bounds nothing, so one that would leave
        int64 raises :class:`BoundOverflowError`.
        """
        operands = (self, *others)
        if all(c.hi is c.lo for c in operands):
            value = point(*(c.lo for c in operands))
            return IntervalColumn(value, value, refinable=refinable)
        ends = [(c.lo, c.hi) for c in operands]
        if not all(c.is_exact for c in operands) and not _fits(bounds, ends):
            raise BoundOverflowError("an interval bound leaves int64")
        return IntervalColumn(*bounds(*ends), refinable=refinable)

    def add(self, other: "IntervalColumn") -> "IntervalColumn":
        return self._lift(
            np.add, lambda a, b: (a[0] + b[0], a[1] + b[1]), other,
            refinable=self.refinable and other.refinable,
        )

    def sub(self, other: "IntervalColumn") -> "IntervalColumn":
        return self._lift(
            np.subtract, lambda a, b: (a[0] - b[1], a[1] - b[0]), other,
            refinable=self.refinable and other.refinable,
        )

    def neg(self) -> "IntervalColumn":
        return self._lift(
            np.negative, lambda a: (-a[1], -a[0]), refinable=self.refinable
        )

    def mul(self, other: "IntervalColumn") -> "IntervalColumn":
        """Interval product: min/max over the four corner products.

        When either side carries error, the result is *not* refinable from
        device-side data — the cross terms ``a_ap·b_re`` etc. need both
        operands on one device (destructive distributivity, §IV-G).
        """
        def corners(a, b) -> tuple[np.ndarray, np.ndarray]:
            p1, p2, p3, p4 = a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]
            return (
                np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
                np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
            )

        exact_inputs = self.is_exact and other.is_exact
        return self._lift(
            np.multiply, corners, other,
            refinable=exact_inputs and self.refinable and other.refinable,
        )

    def floordiv(self, other: "IntervalColumn") -> "IntervalColumn":
        """Conservative integer division; divisor intervals must exclude 0."""
        if bool(((other.lo <= 0) & (other.hi >= 0)).any()):
            raise ExecutionError("division by an interval containing zero")
        corners = [
            self.lo // other.lo, self.lo // other.hi,
            self.hi // other.lo, self.hi // other.hi,
        ]
        lo = np.minimum.reduce(corners)
        hi = np.maximum.reduce(corners)
        exact_inputs = self.is_exact and other.is_exact
        return IntervalColumn(lo, hi, refinable=exact_inputs)

    def sqrt_floor(self) -> "IntervalColumn":
        """Integer square root bounds (monotone, so endpoints suffice)."""
        if bool((self.lo < 0).any()):
            raise ExecutionError("sqrt of an interval below zero")
        lo = np.floor(np.sqrt(self.lo.astype(np.float64))).astype(np.int64)
        hi = np.floor(np.sqrt(self.hi.astype(np.float64))).astype(np.int64) + 1
        return IntervalColumn(lo, hi, refinable=self.is_exact)

    def power(self, exponent: int) -> "IntervalColumn":
        """Integer power with a non-negative integer exponent."""
        if exponent < 0:
            raise ExecutionError("negative exponents are not supported")
        lo_p = self.lo.astype(object) ** exponent
        hi_p = self.hi.astype(object) ** exponent
        if exponent % 2 == 0:
            # even powers are not monotone across zero
            crosses = (self.lo < 0) & (self.hi > 0)
            lo = np.minimum(lo_p, hi_p)
            lo[crosses] = 0
            hi = np.maximum(lo_p, hi_p)
        else:
            lo, hi = lo_p, hi_p
        return IntervalColumn(
            lo.astype(np.int64), hi.astype(np.int64), refinable=self.is_exact
        )

    def add_scalar(self, value: int) -> "IntervalColumn":
        return self._lift(
            lambda lo: lo + value,
            lambda a: (a[0] + value, a[1] + value),
            refinable=self.refinable,
        )

    def mul_scalar(self, value: int) -> "IntervalColumn":
        def bounds(a) -> tuple[np.ndarray, np.ndarray]:
            ends = (a[0] * value, a[1] * value)
            return ends if value >= 0 else ends[::-1]

        return self._lift(lambda lo: lo * value, bounds, refinable=self.refinable)

    @property
    def nbytes(self) -> int:
        return self.lo.nbytes + self.hi.nbytes


def _fits(bounds, ends: list) -> bool:
    """Whether ``bounds(*ends)`` stays inside int64, taken in Python ints.

    Interval arithmetic is inclusion-monotone, so ``bounds`` over each
    operand's hull bounds every row: that one row decides almost always,
    and only a hull that leaves int64 is checked row by row.
    """
    if any(lo.size == 0 for lo, _ in ends):
        return True

    def inside(lo: np.ndarray, hi: np.ndarray) -> bool:
        return int(lo.min()) >= _INT64.min and int(hi.max()) <= _INT64.max

    hulls = [
        (np.array([int(lo.min())], dtype=object),
         np.array([int(hi.max())], dtype=object))
        for lo, hi in ends
    ]
    return inside(*bounds(*hulls)) or inside(
        *bounds(*[(lo.astype(object), hi.astype(object)) for lo, hi in ends])
    )
