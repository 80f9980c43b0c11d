"""Expression trees with dual evaluation: exact values or error bounds.

Every expression can be evaluated two ways:

* :meth:`Expr.eval_exact` over exact int64 column values — the refinement /
  classic path, and
* :meth:`Expr.eval_interval` over per-row error bounds
  (:class:`~repro.core.intervals.IntervalColumn`) — the approximation path,
  which propagates strict bounds exactly as paper §III requires of
  arithmetic approximation operators.

All arithmetic is scaled-integer arithmetic; the SQL binder assigns decimal
scales and inserts the required rescaling, so the engine below never sees
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.intervals import IntervalColumn
from ..core.relax import (
    ValueRange,
    candidate_mask_for_intervals,
    certain_mask_for_intervals,
)
from ..errors import PlanError

ExactResolver = Callable[[str], np.ndarray]
IntervalResolver = Callable[[str], IntervalColumn]


class Expr:
    """Base class of expression nodes."""

    def eval_exact(self, resolve: ExactResolver) -> np.ndarray:
        raise NotImplementedError

    def eval_interval(
        self, resolve: IntervalResolver, memo: dict | None = None
    ) -> IntervalColumn:
        """Error bounds of the expression over ``resolve``'s columns.

        ``memo`` (expression → bounds) belongs to a caller that evaluates
        several expressions over the *same* columns; every sub-expression
        is then computed once and shared (nodes are value-hashable).
        """
        if memo is None:
            return self._interval(resolve, None)
        bounds = memo.get(self)
        if bounds is None:
            bounds = memo[self] = self._interval(resolve, memo)
        return bounds

    def _interval(self, resolve: IntervalResolver, memo: dict | None) -> IntervalColumn:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """All column names referenced by the expression."""
        raise NotImplementedError

    def op_count(self) -> int:
        """Number of arithmetic primitives one evaluation executes per row
        (used by the cost model to charge bulk arithmetic operators)."""
        return 0

    # Operator sugar keeps plan-building code readable.
    def __add__(self, other: "Expr") -> "Expr":
        return BinOp("+", self, _as_expr(other))

    def __sub__(self, other: "Expr") -> "Expr":
        return BinOp("-", self, _as_expr(other))

    def __mul__(self, other: "Expr") -> "Expr":
        return BinOp("*", self, _as_expr(other))


def _as_expr(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, np.integer)):
        return Const(int(value))
    raise PlanError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class ColRef(Expr):
    """A column reference (possibly table-qualified, ``part.p_type``)."""

    name: str

    def eval_exact(self, resolve: ExactResolver) -> np.ndarray:
        return np.asarray(resolve(self.name), dtype=np.int64)

    def _interval(self, resolve: IntervalResolver, memo: dict | None) -> IntervalColumn:
        return resolve(self.name)

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expr):
    """An integer (storage-domain) literal."""

    value: int

    def eval_exact(self, resolve: ExactResolver) -> np.ndarray:
        return np.int64(self.value)  # broadcasting scalar

    def _interval(self, resolve: IntervalResolver, memo: dict | None) -> IntervalColumn:
        # Length is unknown here; BinOp broadcasts scalars, so represent the
        # constant as a one-element exact column used via scalar ops.
        return IntervalColumn.exact(np.array([self.value]))

    def columns(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def op_count(self) -> int:
        return 1 + self.operand.op_count()

    def eval_exact(self, resolve: ExactResolver) -> np.ndarray:
        return -self.operand.eval_exact(resolve)

    def _interval(self, resolve: IntervalResolver, memo: dict | None) -> IntervalColumn:
        return self.operand.eval_interval(resolve, memo).neg()

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"-({self.operand!r})"


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic: ``+ - *`` (scaled-integer semantics)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*"):
            raise PlanError(f"unsupported arithmetic operator {self.op!r}")

    def op_count(self) -> int:
        return 1 + self.left.op_count() + self.right.op_count()

    def eval_exact(self, resolve: ExactResolver) -> np.ndarray:
        lhs = self.left.eval_exact(resolve)
        rhs = self.right.eval_exact(resolve)
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        return lhs * rhs

    def _interval(self, resolve: IntervalResolver, memo: dict | None) -> IntervalColumn:
        # Constants fold into scalar operations to keep lengths aligned.
        if isinstance(self.right, Const):
            lhs = self.left.eval_interval(resolve, memo)
            c = self.right.value
            if self.op == "+":
                return lhs.add_scalar(c)
            if self.op == "-":
                return lhs.add_scalar(-c)
            return lhs.mul_scalar(c)
        if isinstance(self.left, Const):
            rhs = self.right.eval_interval(resolve, memo)
            c = self.left.value
            if self.op == "+":
                return rhs.add_scalar(c)
            if self.op == "-":
                return rhs.neg().add_scalar(c)
            return rhs.mul_scalar(c)
        lhs = self.left.eval_interval(resolve, memo)
        rhs = self.right.eval_interval(resolve, memo)
        if self.op == "+":
            return lhs.add(rhs)
        if self.op == "-":
            return lhs.sub(rhs)
        return lhs.mul(rhs)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN <pred> THEN <expr> ELSE <expr> END`` (Q14's shape)."""

    when: "Predicate"
    then: Expr
    otherwise: Expr

    def op_count(self) -> int:
        return 2 + self.then.op_count() + self.otherwise.op_count()

    def eval_exact(self, resolve: ExactResolver) -> np.ndarray:
        mask = self.when.evaluate_exact(resolve)
        then_v = np.broadcast_to(self.then.eval_exact(resolve), mask.shape)
        else_v = np.broadcast_to(self.otherwise.eval_exact(resolve), mask.shape)
        return np.where(mask, then_v, else_v).astype(np.int64)

    def _interval(self, resolve: IntervalResolver, memo: dict | None) -> IntervalColumn:
        candidate = self.when.candidate_mask(resolve)
        certain = self.when.certain_mask(resolve)
        then_iv = self.then.eval_interval(resolve, memo)
        else_iv = self.otherwise.eval_interval(resolve, memo)
        n = len(candidate)
        then_lo = np.broadcast_to(then_iv.lo, (n,)) if len(then_iv) != n else then_iv.lo
        then_hi = np.broadcast_to(then_iv.hi, (n,)) if len(then_iv) != n else then_iv.hi
        else_lo = np.broadcast_to(else_iv.lo, (n,)) if len(else_iv) != n else else_iv.lo
        else_hi = np.broadcast_to(else_iv.hi, (n,)) if len(else_iv) != n else else_iv.hi
        # certain → THEN bounds; impossible → ELSE bounds; undecided → hull.
        lo = np.where(certain, then_lo, np.where(candidate, np.minimum(then_lo, else_lo), else_lo))
        hi = np.where(certain, then_hi, np.where(candidate, np.maximum(then_hi, else_hi), else_hi))
        return IntervalColumn.from_bounds(lo, hi)

    def columns(self) -> set[str]:
        return self.when.columns() | self.then.columns() | self.otherwise.columns()

    def __repr__(self) -> str:
        return f"case(when {self.when!r} then {self.then!r} else {self.otherwise!r})"


@dataclass(frozen=True)
class Predicate:
    """A (possibly negated) range predicate over an expression.

    Every supported SQL comparison normalizes to this: ``x > 5`` is
    ``Predicate(ColRef('x'), ValueRange(6, None))``; ``x <> 5`` is the
    negation of ``ValueRange(5, 5)``.  Negated predicates cannot drive a
    device-side range scan but still evaluate exactly and produce sound
    candidate/certain masks over error bounds.
    """

    target: Expr
    vrange: ValueRange
    negated: bool = False

    def evaluate_exact(self, resolve: ExactResolver) -> np.ndarray:
        values = self.target.eval_exact(resolve)
        values = np.atleast_1d(values)
        mask = self.vrange.evaluate(values)
        return ~mask if self.negated else mask

    def candidate_mask(self, resolve: IntervalResolver) -> np.ndarray:
        """Rows that *could* satisfy the predicate given their bounds."""
        iv = self.target.eval_interval(resolve)
        if self.negated:
            return ~certain_mask_for_intervals(iv.lo, iv.hi, self.vrange)
        return candidate_mask_for_intervals(iv.lo, iv.hi, self.vrange)

    def certain_mask(self, resolve: IntervalResolver) -> np.ndarray:
        """Rows that satisfy the predicate for any residual assignment."""
        iv = self.target.eval_interval(resolve)
        if self.negated:
            return ~candidate_mask_for_intervals(iv.lo, iv.hi, self.vrange)
        return certain_mask_for_intervals(iv.lo, iv.hi, self.vrange)

    def columns(self) -> set[str]:
        return self.target.columns()

    @property
    def is_simple_column(self) -> bool:
        """True when the predicate targets a bare column (scan-drivable)."""
        return isinstance(self.target, ColRef) and not self.negated

    def __repr__(self) -> str:
        rng = f"[{self.vrange.lo}, {self.vrange.hi}]"
        return f"{'NOT ' if self.negated else ''}{self.target!r} in {rng}"
