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

A statement the parser rebuilt from a shape template (``stmt.shape``) is
bound once per shape and catalog epoch: the template redoes only what its
literals decide — each literal's coercion, with its refusals, and the
predicates, constants and ``Query`` holding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import neg

from ..core.relax import CompareOp, ValueRange
from ..errors import SqlError
from ..plan.expr import BinOp, Case, ColRef, Const, Expr, Neg, Predicate
from ..plan.logical import Aggregate, FkJoin, Query, ThetaJoin
from ..storage.catalog import Catalog
from ..storage.column import ColumnType, DateType, DecimalType, DictionaryType
from . import ast


class _Staged:
    """A bound value that depends on the statement's literals:
    ``build(values)`` makes it from their texts (:func:`ast.literals`)."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build


def _build(make, *args):
    """``make(*args)``, or a :class:`_Staged` making it when an argument
    depends on the literals (arguments are made in order)."""
    for a in args:
        if isinstance(a, _Staged):
            break
    else:
        return make(*args)
    staged = [(i, a.build) for i, a in enumerate(args) if isinstance(a, _Staged)]
    if len(staged) == 1:
        (i, get), = staged
        head, tail = args[:i], args[i + 1:]
        return _Staged(lambda v: make(*head, get(v), *tail))

    def build(v):
        made = list(args)
        for i, get in staged:
            made[i] = get(v)
        return make(*made)

    return _Staged(build)


def _rescale(scale: int, text: str) -> int:
    """A number literal's digits at ``scale`` fraction digits."""
    point = text.find(".")
    if point < 0:
        return int(text) * 10 ** scale
    given = len(text) - point - 1
    digits = int(text.replace(".", ""))
    if given > scale:
        if digits % (10 ** (given - scale)):
            raise SqlError(
                f"literal {text} has more fractional digits "
                f"than the column's scale ({scale})"
            )
        return digits // (10 ** (given - scale))
    return digits * (10 ** (scale - given))


def _code_of(ctype: DictionaryType, value: str) -> int:
    try:
        return int(ctype.dictionary.code_of(value))
    except KeyError:
        raise SqlError(f"string {value!r} not in dictionary") from None


def _like(column: ColRef, ctype: DictionaryType, pattern: str) -> Predicate:
    if pattern.endswith("%") and "%" not in pattern[:-1]:
        lo, hi = ctype.dictionary.prefix_range(pattern[:-1])
        return Predicate(column, ValueRange(lo, hi))
    if "%" not in pattern:
        try:
            code = ctype.dictionary.code_of(pattern)
        except KeyError:
            return Predicate(column, ValueRange.empty())
        return Predicate(column, ValueRange(code, code))
    raise SqlError("only prefix patterns ('PREFIX%') are supported in LIKE")


def _same_block(
    query: Query, where: tuple, aggregates: tuple, theta_joins: tuple
) -> Query:
    """``query`` with other predicates, aggregates and theta joins over the
    same columns and aliases, as another statement of its shape binds them.
    ``Query.__post_init__`` is not run again: its checks read only names,
    which a literal does not change (``query`` passed them)."""
    block = object.__new__(Query)
    block.__dict__.update(
        query.__dict__, where=where, aggregates=aggregates, theta_joins=theta_joins
    )
    return block


def _const(text: str) -> Const:
    return Const(int(text.replace(".", "")))


@dataclass
class _Bound:
    """A bound expression (maybe :class:`_Staged`) with its decimal scale."""

    expr: Expr | _Staged
    scale: int
    #: the single column type behind a bare ColRef (for literal coercion)
    ctype: ColumnType | None = None
    #: the expression is a (rescaled) number literal's ``Const``
    const: bool = False


class _Binder:
    def __init__(
        self, stmt: ast.SelectStmt, catalog: Catalog, *, staged: bool = False
    ) -> None:
        self._stmt = stmt
        self._catalog = catalog
        self._fact = catalog.table(stmt.table)
        #: literal node -> its place among the statement's literals, while
        #: binding a template; ``None`` binds this statement alone
        self._slots = (
            {id(node): i for i, (node, _) in enumerate(ast.literals(stmt))}
            if staged else None
        )
        self._joins: list[FkJoin] = []
        self._theta: list[ThetaJoin | _Staged] = []
        self._theta_tables: list[str] = []
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

    def _literal(self, node, coerce, *args):
        """``coerce(*args, text)`` of the literal ``node`` holds — as a
        function of the statement's literals while binding a template.
        This statement's literal is coerced now either way, so a refusal
        comes where an unstaged bind raises it."""
        value = coerce(*args, getattr(node, ast.LITERAL_FIELDS[type(node)]))
        if self._slots is None:
            return value
        i = self._slots[id(node)]
        return _Staged(lambda v: coerce(*args, v[i]))

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

    def _bind_theta(self, j: ast.ThetaJoinClause) -> ThetaJoin | _Staged:
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
        self._theta_tables.append(rtable)
        delta = 0
        if j.delta_text is not None:
            delta = self._literal(j, _rescale, lscale)
        return _build(
            lambda d: ThetaJoin(
                left_column=left, right_table=rtable, right_column=rcol,
                op=j.op, delta=d,
            ),
            delta,
        )

    def _resolve(self, name: str) -> tuple[str, ColumnType]:
        """Resolve a column name → (canonical name, type)."""
        name = self._strip_fact_prefix(name)
        if "." in name:
            table, column = name.split(".", 1)
            if not any(j.dim_table == table for j in self._joins):
                if table in self._theta_tables:
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
            return _Bound(
                self._literal(node, _const), node.fraction_digits, const=True
            )
        if isinstance(node, ast.Str):
            raise SqlError(
                f"string literal {node.value!r} is only valid in comparisons"
            )
        if isinstance(node, ast.Negate):
            inner = self.bind_expr(node.operand)
            return _Bound(_build(Neg, inner.expr), inner.scale)
        if isinstance(node, ast.Arith):
            left = self.bind_expr(node.left)
            right = self.bind_expr(node.right)
            make = partial(BinOp, node.op)
            if node.op == "*":
                return _Bound(
                    _build(make, left.expr, right.expr), left.scale + right.scale
                )
            left, right = self._unify_scales(left, right)
            return _Bound(_build(make, left.expr, right.expr), left.scale)
        if isinstance(node, ast.CaseWhen):
            pred = self.bind_predicate(node.condition)
            then = self.bind_expr(node.then)
            otherwise = self.bind_expr(node.otherwise)
            then, otherwise = self._unify_scales(then, otherwise)
            return _Bound(_build(Case, pred, then.expr, otherwise.expr), then.scale)
        raise SqlError(f"cannot bind expression {node!r}")

    @staticmethod
    def _unify_scales(a: _Bound, b: _Bound) -> tuple[_Bound, _Bound]:
        if a.scale == b.scale:
            return a, b
        lo, hi = (a, b) if a.scale < b.scale else (b, a)
        factor = 10 ** (hi.scale - lo.scale)
        if lo.const:
            scaled = _build(lambda c: Const(c.value * factor), lo.expr)
        else:
            scaled = _build(lambda e: BinOp("*", e, Const(factor)), lo.expr)
        rescaled = _Bound(scaled, hi.scale, const=lo.const)
        return (rescaled, hi) if a.scale < b.scale else (hi, rescaled)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def bind_predicate(self, node: ast.AstPredicate) -> Predicate | _Staged:
        if isinstance(node, ast.Like):
            return self._bind_like(node)
        if isinstance(node, ast.Between):
            target = self.bind_expr(node.target)
            lo = self._literal_for(target, node.lo)
            hi = self._literal_for(target, node.hi)
            return _build(
                lambda t, a, b: Predicate(t, ValueRange.between(a, b)),
                target.expr, lo, hi,
            )
        if isinstance(node, ast.Compare):
            return self._bind_compare(node)
        raise SqlError(f"cannot bind predicate {node!r}")

    @staticmethod
    def _is_literal(node) -> bool:
        """A number, a string, or a negated number (``-257``)."""
        if isinstance(node, ast.Negate):
            return isinstance(node.operand, ast.Num)
        return isinstance(node, (ast.Num, ast.Str))

    def _bind_compare(self, node: ast.Compare) -> Predicate | _Staged:
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
            return _build(
                lambda t, x: Predicate(t, ValueRange(x, x), negated=True),
                target.expr, value,
            )
        return _build(
            lambda t, x: Predicate(t, ValueRange.from_comparison(op, x)),
            target.expr, value,
        )

    def _bind_like(self, node: ast.Like) -> Predicate | _Staged:
        name, ctype = self._resolve(node.column.name)
        if not isinstance(ctype, DictionaryType):
            raise SqlError(f"LIKE requires a dictionary column, {name!r} is not")
        return self._literal(node, _like, ColRef(name), ctype)

    def _literal_for(self, target: _Bound, literal) -> int | _Staged:
        """Coerce a literal to the target expression's storage domain."""
        if isinstance(literal, ast.Str):
            if isinstance(target.ctype, DateType):
                return self._literal(literal, DateType.encode_one)
            if isinstance(target.ctype, DictionaryType):
                return self._literal(literal, _code_of, target.ctype)
            raise SqlError(
                f"string literal {literal.value!r} compared to a non-string column"
            )
        if isinstance(literal, ast.Num):
            return self._literal(literal, _rescale, target.scale)
        if isinstance(literal, ast.Negate):
            return _build(neg, self._literal_for(target, literal.operand))
        raise SqlError(f"expected a literal, found {literal!r}")

    # ------------------------------------------------------------------
    # Statement
    # ------------------------------------------------------------------
    def bind(self) -> tuple[Query | _Staged, dict[str, int]]:
        group_by = tuple(self._resolve(g)[0] for g in self._stmt.group_by)
        where = [self.bind_predicate(p) for p in self._stmt.where]

        aggregates: list[Aggregate | _Staged] = []
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
                    aggregates.append(
                        _build(partial(Aggregate, call.func, alias=alias), bound.expr)
                    )
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

        joins, table, select = tuple(self._joins), self._stmt.table, tuple(select)
        n_theta, n_where = len(self._theta), len(self._theta) + len(where)
        first: list[Query] = []  # a template's first Query passed the checks

        def make(*parts) -> Query:
            theta, where, aggregates = (
                parts[:n_theta], parts[n_theta:n_where], parts[n_where:]
            )
            if first:
                return _same_block(first[0], where, aggregates, theta)
            first.append(Query(
                table=table, where=where, joins=joins, group_by=group_by,
                aggregates=aggregates, select=select, theta_joins=theta,
            ))
            return first[0]

        return _build(make, *self._theta, *where, *aggregates), scales


def bind(stmt: ast.SelectStmt, catalog: Catalog) -> tuple[Query, dict[str, int]]:
    """Bind a parsed SELECT into a logical Query plus output decimal scales.

    A statement with a shape binds through the catalog's template for that
    shape at its epoch, built by the shape's first bind there; errors are
    never kept.  Everything the template holds is either fixed by the shape
    (names, types, scales) or read from the catalog under its epoch (the
    FK-vs-theta decision reads the dimension key's base rows).
    """
    if stmt.shape is None:
        return _Binder(stmt, catalog).bind()
    key, values = stmt.shape
    query, scales = catalog.bind_templates.get(
        (key, catalog.epoch), lambda: _Binder(stmt, catalog, staged=True).bind()
    )
    if isinstance(query, _Staged):
        query = query.build(values)
    return query, dict(scales)
