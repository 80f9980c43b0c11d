"""The binder: typed name resolution from AST to a logical Query.

Responsibilities:

* resolve column names against the catalog (fact table or joined dims),
* scaled-decimal arithmetic: unify scales across ``+``/``-``, add them
  across ``*``, and rescale numeric literals to the column's scale,
* encode date literals (``'1995-03-15'``) and dictionary-string literals,
* rewrite ``LIKE 'PREFIX%'`` on an ordered dictionary into a code range —
  exactly the paper's Q14 string-predicate optimization (§VI-D),
* normalize every comparison into a :class:`~repro.core.relax.ValueRange`
  predicate (negated for ``<>``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.relax import CompareOp, ValueRange
from ..errors import SqlError
from ..plan.expr import BinOp, Case, ColRef, Const, Expr, Neg, Predicate
from ..plan.logical import Aggregate, FkJoin, Query, ThetaJoin
from ..storage.catalog import Catalog
from ..storage.column import ColumnType, DateType, DecimalType, DictionaryType
from . import ast


@dataclass
class _Bound:
    """A bound expression with its decimal scale."""

    expr: Expr
    scale: int
    #: the single column type behind a bare ColRef (for literal coercion)
    ctype: ColumnType | None = None


class _Binder:
    def __init__(self, stmt: ast.SelectStmt, catalog: Catalog) -> None:
        self._stmt = stmt
        self._catalog = catalog
        self._fact = catalog.table(stmt.table)
        self._joins: list[FkJoin] = []
        self._theta: list[ThetaJoin] = []
        for j in stmt.joins:
            if isinstance(j, ast.ThetaJoinClause):
                self._theta.append(self._bind_theta(j))
                continue
            fk = self._strip_fact_prefix(j.fk_column)
            if self._is_fk_join(j, fk):
                self._joins.append(FkJoin(fk_column=fk, dim_table=j.dim_table))
            else:
                # ``ON a = b`` against a non-dense key is not the paper's
                # pre-built-index FK join — it is a theta equality join.
                self._theta.append(
                    self._bind_theta(
                        ast.ThetaJoinClause(
                            table=j.dim_table, left=fk, op="=",
                            right=f"{j.dim_table}.{j.dim_key}",
                        )
                    )
                )

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _strip_fact_prefix(self, name: str) -> str:
        prefix = self._stmt.table + "."
        return name[len(prefix):] if name.startswith(prefix) else name

    def _is_fk_join(self, j: ast.JoinClause, fk: str) -> bool:
        """True when the ON equality targets a dense dimension key (§IV-D).

        A non-dense key is no longer an error: the equality then binds as a
        theta join, keeping the join algebra closed.
        """
        if "." in fk:
            raise SqlError(f"JOIN fk side {j.fk_column!r} is not a fact column")
        if fk not in self._fact.schema:
            raise SqlError(f"no column {fk!r} in {self._stmt.table!r}")
        dim = self._catalog.table(j.dim_table)
        if j.dim_key not in dim.schema:
            raise SqlError(f"no column {j.dim_key!r} in {j.dim_table!r}")
        keys = dim.values(j.dim_key)
        return bool(
            len(keys) > 0
            and int(keys.min()) == 0
            and int(keys.max()) == len(dim) - 1
        )

    def _bind_theta(self, j: ast.ThetaJoinClause) -> ThetaJoin:
        """Resolve a theta join clause: fact column θ right-table column."""
        left = self._strip_fact_prefix(j.left)
        if "." in left:
            raise SqlError(
                f"theta JOIN side {j.left!r} must be a {self._stmt.table!r} column"
            )
        if left not in self._fact.schema:
            raise SqlError(f"no column {left!r} in {self._stmt.table!r}")
        rtable, rcol = j.right.split(".", 1)
        right_rel = self._catalog.table(rtable)
        if rcol not in right_rel.schema:
            raise SqlError(f"no column {rcol!r} in {rtable!r}")
        left_t = self._fact.type_of(left)
        right_t = right_rel.type_of(rcol)
        lscale = left_t.scale if isinstance(left_t, DecimalType) else 0
        rscale = right_t.scale if isinstance(right_t, DecimalType) else 0
        if lscale != rscale:
            raise SqlError(
                f"theta join compares {self._stmt.table}.{left} (scale "
                f"{lscale}) with {rtable}.{rcol} (scale {rscale}); "
                "scales must match"
            )
        delta = 0
        if j.delta_text is not None:
            bound = _Bound(ColRef(left), lscale, left_t)
            delta = self._literal_for(bound, ast.Num(j.delta_text))
        return ThetaJoin(
            left_column=left, right_table=rtable, right_column=rcol,
            op=j.op, delta=delta,
        )

    def _resolve(self, name: str) -> tuple[str, ColumnType]:
        """Resolve a column name → (canonical name, type)."""
        name = self._strip_fact_prefix(name)
        if "." in name:
            table, column = name.split(".", 1)
            if not any(j.dim_table == table for j in self._joins):
                if any(t.right_table == table for t in self._theta):
                    raise SqlError(
                        f"columns of theta-joined table {table!r} cannot be "
                        "referenced; theta blocks aggregate over fact-side "
                        "columns and the pair count"
                    )
                raise SqlError(f"table {table!r} is not joined")
            return name, self._catalog.table(table).type_of(column)
        if name not in self._fact.schema:
            raise SqlError(f"no column {name!r} in {self._stmt.table!r}")
        return name, self._fact.type_of(name)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def bind_expr(self, node: ast.AstExpr) -> _Bound:
        if isinstance(node, ast.Col):
            name, ctype = self._resolve(node.name)
            scale = ctype.scale if isinstance(ctype, DecimalType) else 0
            return _Bound(ColRef(name), scale, ctype)
        if isinstance(node, ast.Num):
            if node.is_integer:
                return _Bound(Const(int(node.text)), 0)
            digits = int(node.text.replace(".", ""))
            return _Bound(Const(digits), node.fraction_digits)
        if isinstance(node, ast.Str):
            raise SqlError(
                f"string literal {node.value!r} is only valid in comparisons"
            )
        if isinstance(node, ast.Negate):
            inner = self.bind_expr(node.operand)
            return _Bound(Neg(inner.expr), inner.scale)
        if isinstance(node, ast.Arith):
            left = self.bind_expr(node.left)
            right = self.bind_expr(node.right)
            if node.op == "*":
                return _Bound(BinOp("*", left.expr, right.expr), left.scale + right.scale)
            left, right = self._unify_scales(left, right)
            return _Bound(BinOp(node.op, left.expr, right.expr), left.scale)
        if isinstance(node, ast.CaseWhen):
            pred = self.bind_predicate(node.condition)
            then = self.bind_expr(node.then)
            otherwise = self.bind_expr(node.otherwise)
            then, otherwise = self._unify_scales(then, otherwise)
            return _Bound(Case(pred, then.expr, otherwise.expr), then.scale)
        raise SqlError(f"cannot bind expression {node!r}")

    @staticmethod
    def _unify_scales(a: _Bound, b: _Bound) -> tuple[_Bound, _Bound]:
        if a.scale == b.scale:
            return a, b
        lo, hi = (a, b) if a.scale < b.scale else (b, a)
        factor = 10 ** (hi.scale - lo.scale)
        if isinstance(lo.expr, Const):
            scaled: Expr = Const(lo.expr.value * factor)
        else:
            scaled = BinOp("*", lo.expr, Const(factor))
        rescaled = _Bound(scaled, hi.scale)
        return (rescaled, hi) if a.scale < b.scale else (hi, rescaled)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def bind_predicate(self, node: ast.AstPredicate) -> Predicate:
        if isinstance(node, ast.Like):
            return self._bind_like(node)
        if isinstance(node, ast.Between):
            target = self.bind_expr(node.target)
            lo = self._literal_for(target, node.lo)
            hi = self._literal_for(target, node.hi)
            return Predicate(target.expr, ValueRange.between(lo, hi))
        if isinstance(node, ast.Compare):
            return self._bind_compare(node)
        raise SqlError(f"cannot bind predicate {node!r}")

    @staticmethod
    def _is_literal(node) -> bool:
        """A number, a string, or a negated number (``-257``)."""
        if isinstance(node, ast.Negate):
            return isinstance(node.operand, ast.Num)
        return isinstance(node, (ast.Num, ast.Str))

    def _bind_compare(self, node: ast.Compare) -> Predicate:
        left_is_literal = self._is_literal(node.left)
        right_is_literal = self._is_literal(node.right)
        if left_is_literal == right_is_literal:
            raise SqlError(
                "comparisons need a column/expression on one side and a "
                "literal on the other"
            )
        op = CompareOp.from_symbol(node.op)
        if left_is_literal:
            target, literal = self.bind_expr(node.right), node.left
            op = op.flip()
        else:
            target, literal = self.bind_expr(node.left), node.right
        value = self._literal_for(target, literal)
        if op is CompareOp.NE:
            return Predicate(target.expr, ValueRange(value, value), negated=True)
        return Predicate(target.expr, ValueRange.from_comparison(op, value))

    def _bind_like(self, node: ast.Like) -> Predicate:
        name, ctype = self._resolve(node.column.name)
        if not isinstance(ctype, DictionaryType):
            raise SqlError(f"LIKE requires a dictionary column, {name!r} is not")
        pattern = node.pattern
        if pattern.endswith("%") and "%" not in pattern[:-1]:
            lo, hi = ctype.dictionary.prefix_range(pattern[:-1])
            return Predicate(ColRef(name), ValueRange(lo, hi))
        if "%" not in pattern:
            try:
                code = ctype.dictionary.code_of(pattern)
            except KeyError:
                return Predicate(ColRef(name), ValueRange.empty())
            return Predicate(ColRef(name), ValueRange(code, code))
        raise SqlError("only prefix patterns ('PREFIX%') are supported in LIKE")

    def _literal_for(self, target: _Bound, literal) -> int:
        """Coerce a literal to the target expression's storage domain."""
        if isinstance(literal, ast.Str):
            if isinstance(target.ctype, DateType):
                return DateType.encode_one(literal.value)
            if isinstance(target.ctype, DictionaryType):
                try:
                    return int(target.ctype.dictionary.code_of(literal.value))
                except KeyError:
                    raise SqlError(
                        f"string {literal.value!r} not in dictionary"
                    ) from None
            raise SqlError(
                f"string literal {literal.value!r} compared to a non-string column"
            )
        if isinstance(literal, ast.Num):
            scale = literal.fraction_digits
            digits = int(literal.text.replace(".", ""))
            if scale > target.scale:
                if digits % (10 ** (scale - target.scale)):
                    raise SqlError(
                        f"literal {literal.text} has more fractional digits "
                        f"than the column's scale ({target.scale})"
                    )
                return digits // (10 ** (scale - target.scale))
            return digits * (10 ** (target.scale - scale))
        if isinstance(literal, ast.Negate):
            return -self._literal_for(target, literal.operand)
        raise SqlError(f"expected a literal, found {literal!r}")

    # ------------------------------------------------------------------
    # Statement
    # ------------------------------------------------------------------
    def bind(self) -> tuple[Query, dict[str, int]]:
        group_by = tuple(self._resolve(g)[0] for g in self._stmt.group_by)
        where = tuple(self.bind_predicate(p) for p in self._stmt.where)

        aggregates: list[Aggregate] = []
        select: list[str] = []
        scales: dict[str, int] = {}
        has_aggs = any(isinstance(i.expr, ast.AggCall) for i in self._stmt.items)

        for idx, item in enumerate(self._stmt.items):
            if isinstance(item.expr, ast.AggCall):
                call = item.expr
                alias = item.alias if item.alias is not None else f"{call.func}_{idx}"
                if call.argument is None:
                    aggregates.append(Aggregate("count", None, alias))
                    scales[alias] = 0
                else:
                    bound = self.bind_expr(call.argument)
                    aggregates.append(Aggregate(call.func, bound.expr, alias))
                    scales[alias] = 0 if call.func == "count" else bound.scale
            elif isinstance(item.expr, ast.Col):
                name, ctype = self._resolve(item.expr.name)
                if has_aggs and name not in group_by:
                    raise SqlError(
                        f"column {name!r} must appear in GROUP BY next to aggregates"
                    )
                if not has_aggs:
                    select.append(name)
                scales[item.alias or name] = (
                    ctype.scale if isinstance(ctype, DecimalType) else 0
                )
            else:
                raise SqlError(
                    "only bare columns and aggregate calls are allowed in the "
                    "SELECT list"
                )

        query = Query(
            table=self._stmt.table,
            where=where,
            joins=tuple(self._joins),
            group_by=group_by,
            aggregates=tuple(aggregates),
            select=tuple(select),
            theta_joins=tuple(self._theta),
        )
        return query, scales


def bind(stmt: ast.SelectStmt, catalog: Catalog) -> tuple[Query, dict[str, int]]:
    """Bind a parsed SELECT into a logical Query plus output decimal scales."""
    return _Binder(stmt, catalog).bind()
