"""Untyped abstract syntax for the mini-SQL dialect (pre-binding)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Union


class AstNode:
    pass


# ----------------------------------------------------------------------
# Scalar expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Col(AstNode):
    """Column reference, possibly qualified (``part.p_type``)."""

    name: str


@dataclass(frozen=True)
class Num(AstNode):
    """Numeric literal; ``text`` keeps the written form for scale inference."""

    text: str

    @property
    def is_integer(self) -> bool:
        return "." not in self.text

    @property
    def fraction_digits(self) -> int:
        return 0 if self.is_integer else len(self.text.split(".", 1)[1])


@dataclass(frozen=True)
class Str(AstNode):
    value: str


@dataclass(frozen=True)
class Arith(AstNode):
    op: str  # + - *
    left: "AstExpr"
    right: "AstExpr"


@dataclass(frozen=True)
class Negate(AstNode):
    operand: "AstExpr"


@dataclass(frozen=True)
class CaseWhen(AstNode):
    condition: "AstPredicate"
    then: "AstExpr"
    otherwise: "AstExpr"


AstExpr = Union[Col, Num, Str, Arith, Negate, CaseWhen]


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Compare(AstNode):
    op: str  # = <> < <= > >=
    left: AstExpr
    right: AstExpr


@dataclass(frozen=True)
class Between(AstNode):
    target: AstExpr
    lo: AstExpr
    hi: AstExpr


@dataclass(frozen=True)
class Like(AstNode):
    column: Col
    pattern: str


AstPredicate = Union[Compare, Between, Like]


# ----------------------------------------------------------------------
# Select items & statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggCall(AstNode):
    func: str  # count sum avg min max
    argument: AstExpr | None  # None = count(*)


@dataclass(frozen=True)
class SelectItem(AstNode):
    expr: AstExpr | AggCall
    alias: str | None


@dataclass(frozen=True)
class JoinClause(AstNode):
    dim_table: str
    fk_column: str  # fact-side column of the ON equality
    dim_key: str  # dimension-side column (must be its dense key)


@dataclass(frozen=True)
class ThetaJoinClause(AstNode):
    """``JOIN t ON a <op> b`` / ``JOIN t ON a WITHIN d OF b`` (§IV-D).

    ``left`` is the fact-side column, ``right`` the ``table``-side column
    (the parser normalizes sides, flipping ``op`` when needed);
    ``delta_text`` keeps the band-join literal's written form so the binder
    can coerce it to the join columns' decimal scale.
    """

    table: str
    left: str
    op: str  # < <= > >= = within
    right: str
    delta_text: str | None = None


@dataclass(frozen=True)
class SelectStmt(AstNode):
    items: tuple[SelectItem, ...]
    table: str
    joins: tuple["JoinClause | ThetaJoinClause", ...]
    where: tuple[AstPredicate, ...]
    group_by: tuple[str, ...]
    #: ``(shape key, literal values)`` when the parser keeps a template for
    #: the statement's shape (:func:`repro.sql.parser.parse`); the binder
    #: keys its own templates on it.  Not part of the statement's value.
    shape: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BwDecompose(AstNode):
    """``SELECT bwdecompose(col, bits) FROM table`` — decomposition DDL."""

    table: str
    column: str
    device_bits: int


#: The field holding a literal's text, per node type: the slots a statement
#: shape leaves open (a ``Str`` / ``Like`` holds a string's content).
LITERAL_FIELDS = {
    Num: "text", Str: "value", Like: "pattern", ThetaJoinClause: "delta_text",
}


def literals(node) -> Iterator[tuple[AstNode, str]]:
    """``(node, field)`` of every literal under ``node``, in source order:
    each node's fields are declared in the order the parser reads them."""
    if isinstance(node, tuple):
        for item in node:
            yield from literals(item)
    elif isinstance(node, AstNode):
        slot = LITERAL_FIELDS.get(type(node))
        for f in fields(node):
            value = getattr(node, f.name)
            if f.name == slot:
                if value is not None:
                    yield node, slot
            elif f.compare:
                yield from literals(value)
