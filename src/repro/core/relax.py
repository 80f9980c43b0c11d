"""Predicate relaxation onto the approximate code domain (paper §IV-B).

An approximation code covers a *bucket* of ``2**residual_bits`` consecutive
values, so a precise predicate on values must be *relaxed* before it can run
on codes: the relaxed predicate has to accept every code whose bucket could
contain a qualifying value.  The paper gives the adaptation function ``f``
for ``== > >= < <=``; here every comparison is first normalized to a closed
value interval, which then maps to a closed code interval:

* candidates  — codes whose bucket *intersects* the interval (a superset of
  the true result; false positives are culled during refinement), and
* certain     — codes whose bucket is *contained* in the interval (rows that
  qualify regardless of their residual bits; needed by min/max, §IV-F).

The same intersect/contain logic generalizes to per-row error-bound
intervals produced by approximate arithmetic, which is how selections on
computed expressions are relaxed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import PlanError
from ..storage.decompose import Decomposition


class CompareOp(enum.Enum):
    """Comparison operators of the selection predicates we support."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @classmethod
    def from_symbol(cls, symbol: str) -> "CompareOp":
        table = {
            "=": cls.EQ, "==": cls.EQ, "<>": cls.NE, "!=": cls.NE,
            "<": cls.LT, "<=": cls.LE, ">": cls.GT, ">=": cls.GE,
        }
        try:
            return table[symbol]
        except KeyError:
            raise PlanError(f"unknown comparison operator {symbol!r}") from None

    def flip(self) -> "CompareOp":
        """The operator with sides swapped (``a < b`` ⇔ ``b > a``)."""
        table = {
            CompareOp.EQ: CompareOp.EQ, CompareOp.NE: CompareOp.NE,
            CompareOp.LT: CompareOp.GT, CompareOp.LE: CompareOp.GE,
            CompareOp.GT: CompareOp.LT, CompareOp.GE: CompareOp.LE,
        }
        return table[self]


@dataclass(frozen=True)
class ValueRange:
    """A closed interval on the storage-value domain; ``None`` = unbounded.

    Every supported predicate except ``<>`` normalizes to one ValueRange:
    ``x > 5`` becomes ``[6, ∞)``, ``x BETWEEN 2 AND 9`` becomes ``[2, 9]``.
    """

    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            # An empty range is legal (contradictory predicates) but
            # normalized so emptiness is easy to test.
            object.__setattr__(self, "lo", 1)
            object.__setattr__(self, "hi", 0)

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @classmethod
    def empty(cls) -> "ValueRange":
        return cls(lo=1, hi=0)

    @classmethod
    def from_comparison(cls, op: CompareOp, operand: int) -> "ValueRange":
        """Normalize ``value <op> operand`` to a closed interval.

        ``NE`` is not interval-representable and is rejected; the selection
        operator handles it by candidate pass-through plus exact refinement.
        """
        operand = int(operand)
        if op is CompareOp.EQ:
            return cls(operand, operand)
        if op is CompareOp.GT:
            return cls(operand + 1, None)
        if op is CompareOp.GE:
            return cls(operand, None)
        if op is CompareOp.LT:
            return cls(None, operand - 1)
        if op is CompareOp.LE:
            return cls(None, operand)
        raise PlanError(f"{op} does not normalize to a value range")

    @classmethod
    def between(cls, lo: int, hi: int) -> "ValueRange":
        return cls(int(lo), int(hi))

    def intersect(self, other: "ValueRange") -> "ValueRange":
        """Conjunction of two ranges on the same attribute."""
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        return ValueRange(lo, hi)

    def contains_all(self) -> bool:
        return self.lo is None and self.hi is None

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Exact mask of ``values`` inside the range (the refinement check)."""
        return _bounded(values, values, self)


def _bounded(low: np.ndarray, high: np.ndarray, vrange: ValueRange) -> np.ndarray:
    """Rows with ``low >= vrange.lo`` and ``high <= vrange.hi``, one compare
    per bound the range has: zeros when it is empty, ones when it has none."""
    if vrange.is_empty:
        return np.zeros(len(low), dtype=bool)
    if vrange.lo is None:
        if vrange.hi is None:
            return np.ones(len(low), dtype=bool)
        return high <= vrange.hi
    mask = low >= vrange.lo
    if vrange.hi is not None:
        mask &= high <= vrange.hi
    return mask


#: Sentinel code range meaning "no code can match".
EMPTY_CODE_RANGE = (1, 0)


def relax_to_code_range(
    vrange: ValueRange, decomposition: Decomposition
) -> tuple[int, int]:
    """Candidate code interval: codes whose bucket intersects ``vrange``.

    This is the paper's adaptation function ``f`` expressed on normalized
    intervals; it is tight — shrinking the result by one code on either
    side would drop true positives for some residual assignment.
    """
    lo_code, hi_code = 0, decomposition.max_code
    if vrange.is_empty:
        return EMPTY_CODE_RANGE
    domain_lo = decomposition.base
    domain_hi = decomposition.value_ceil(decomposition.max_code)
    if vrange.lo is not None:
        if vrange.lo > domain_hi:
            return EMPTY_CODE_RANGE
        if vrange.lo > domain_lo:
            lo_code = decomposition.approx_code_of(vrange.lo)
    if vrange.hi is not None:
        if vrange.hi < domain_lo:
            return EMPTY_CODE_RANGE
        if vrange.hi < domain_hi:
            hi_code = decomposition.approx_code_of(vrange.hi)
    return lo_code, hi_code


def certain_code_range(
    vrange: ValueRange, decomposition: Decomposition
) -> tuple[int, int]:
    """Certain code interval: codes whose *whole bucket* lies in ``vrange``.

    A row with such a code satisfies the precise predicate no matter what
    its residual bits are.  Used to anchor min/max candidate pruning
    (paper Fig 6) without touching the residuals.
    """
    if vrange.is_empty:
        return EMPTY_CODE_RANGE
    bucket = decomposition.bucket
    lo_code, hi_code = 0, decomposition.max_code
    if vrange.lo is not None and vrange.lo > decomposition.base:
        # smallest code whose bucket floor is >= vrange.lo
        offset = vrange.lo - decomposition.base
        lo_code = -((-offset) // bucket)  # ceil division
    if vrange.hi is not None:
        domain_hi = decomposition.value_ceil(decomposition.max_code)
        if vrange.hi < domain_hi:
            # largest code whose bucket ceiling is <= vrange.hi
            offset = vrange.hi - decomposition.base - bucket + 1
            if offset < 0:
                return EMPTY_CODE_RANGE
            hi_code = offset // bucket
    if lo_code > hi_code:
        return EMPTY_CODE_RANGE
    return int(lo_code), int(hi_code)


def candidate_mask_for_intervals(
    lo: np.ndarray, hi: np.ndarray, vrange: ValueRange
) -> np.ndarray:
    """Rows whose error-bound interval ``[lo, hi]`` intersects ``vrange``.

    The relaxation for predicates over *computed* approximate values, whose
    per-row bounds come from interval arithmetic rather than a single
    decomposition.
    """
    return _bounded(hi, lo, vrange)


def certain_mask_for_intervals(
    lo: np.ndarray, hi: np.ndarray, vrange: ValueRange
) -> np.ndarray:
    """Rows whose whole error-bound interval is contained in ``vrange``."""
    return _bounded(lo, hi, vrange)
