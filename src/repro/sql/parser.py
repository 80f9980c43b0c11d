"""Recursive-descent parser for the mini-SQL dialect, memoized per shape."""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import fields

from ..errors import SqlSyntaxError
from . import ast
from .ast import (
    AggCall,
    Arith,
    AstExpr,
    AstPredicate,
    Between,
    BwDecompose,
    CaseWhen,
    Col,
    Compare,
    JoinClause,
    Like,
    Negate,
    Num,
    SelectItem,
    SelectStmt,
    Str,
    ThetaJoinClause,
)
from .lexer import Token, tokenize

_AGG_FUNCS = ("count", "sum", "avg", "min", "max")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._i = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        tok = self._cur
        self._i += 1
        return tok

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self._tokens[self._i]
        if tok.kind == kind and (text is None or tok.text == text):
            self._i += 1
            return tok
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        tok = self._tokens[self._i]
        if tok.kind == kind and (text is None or tok.text == text):
            self._i += 1
            return tok
        raise SqlSyntaxError(
            f"expected {text or kind!r}, found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def _accept_kw(self, word: str) -> bool:
        tok = self._tokens[self._i]
        if tok.kind == "kw" and tok.text == word:
            self._i += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------
    def parse_statement(self):
        self._expect("kw", "select")
        stmt = self._try_bwdecompose()
        if stmt is not None:
            return stmt
        items = [self._select_item()]
        while self._accept("op", ","):
            items.append(self._select_item())
        self._expect("kw", "from")
        table = self._expect("ident").text
        joins = []
        while self._accept_kw("join"):
            joins.append(self._join_clause())
        where: list[AstPredicate] = []
        if self._accept_kw("where"):
            where.append(self._predicate())
            while self._accept_kw("and"):
                where.append(self._predicate())
        group_by: list[str] = []
        if self._accept_kw("group"):
            self._expect("kw", "by")
            group_by.append(self._qualified_name())
            while self._accept("op", ","):
                group_by.append(self._qualified_name())
        self._expect("eof")
        return SelectStmt(
            items=tuple(items), table=table, joins=tuple(joins),
            where=tuple(where), group_by=tuple(group_by),
        )

    def _try_bwdecompose(self) -> BwDecompose | None:
        if not (self._cur.kind == "kw" and self._cur.text == "bwdecompose"):
            return None
        self._advance()
        self._expect("op", "(")
        column = self._qualified_name()
        self._expect("op", ",")
        bits = self._expect("number")
        if "." in bits.text:
            raise SqlSyntaxError("bwdecompose bits must be an integer", bits.pos)
        self._expect("op", ")")
        self._expect("kw", "from")
        table = self._expect("ident").text
        self._expect("eof")
        return BwDecompose(table=table, column=column, device_bits=int(bits.text))

    # ------------------------------------------------------------------
    # Clauses
    # ------------------------------------------------------------------
    def _select_item(self) -> SelectItem:
        expr = self._agg_or_expr()
        alias = None
        if self._accept_kw("as"):
            alias = self._expect("ident").text
        return SelectItem(expr=expr, alias=alias)

    def _agg_or_expr(self):
        tok = self._cur
        if tok.kind == "kw" and tok.text in _AGG_FUNCS:
            self._advance()
            self._expect("op", "(")
            if self._accept("star"):
                if tok.text != "count":
                    raise SqlSyntaxError(f"{tok.text}(*) is not valid", tok.pos)
                arg = None
            else:
                arg = self._expr()
            self._expect("op", ")")
            return AggCall(func=tok.text, argument=arg)
        return self._expr()

    #: side-swapped theta comparison (``a < b`` ⇔ ``b > a``).
    _THETA_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

    def _join_clause(self) -> JoinClause | ThetaJoinClause:
        """``JOIN t ON a = b`` (FK), ``ON a <op> b`` or ``ON a WITHIN d OF b``.

        The equality form stays a :class:`JoinClause` — the binder decides
        whether it is the §IV-D FK join (dense dimension key) or a theta
        equality join.  Inequalities and band conditions are always theta.
        """
        table = self._expect("ident").text
        self._expect("kw", "on")
        left = self._qualified_name()
        if self._accept_kw("within"):
            delta = self._expect("number")
            self._expect("kw", "of")
            right = self._qualified_name()
            return self._theta_clause(table, left, "within", right, delta.text)
        op_tok = self._cur
        if op_tok.kind != "op" or op_tok.text not in ("=", "<", "<=", ">", ">="):
            raise SqlSyntaxError(
                f"expected a join comparison, found {op_tok.text!r}",
                op_tok.pos,
            )
        self._advance()
        right = self._qualified_name()
        if op_tok.text == "=":
            # Either side of the equality may be the dimension key.
            if left.startswith(table + "."):
                dim_side, fact_side = left, right
            elif right.startswith(table + "."):
                dim_side, fact_side = right, left
            else:
                raise SqlSyntaxError(
                    f"JOIN ON must reference {table!r} on one side",
                    self._cur.pos,
                )
            return JoinClause(
                dim_table=table,
                fk_column=fact_side,
                dim_key=dim_side.split(".", 1)[1],
            )
        return self._theta_clause(table, left, op_tok.text, right, None)

    def _theta_clause(
        self, table: str, left: str, op: str, right: str, delta_text: str | None
    ) -> ThetaJoinClause:
        """Normalize sides so ``left`` is the fact column, flipping ``op``."""
        left_is_joined = left.startswith(table + ".")
        right_is_joined = right.startswith(table + ".")
        if left_is_joined == right_is_joined:
            raise SqlSyntaxError(
                f"theta JOIN ON must reference {table!r} on exactly one side",
                self._cur.pos,
            )
        if left_is_joined:
            left, right = right, left
            op = self._THETA_FLIP.get(op, op)
        return ThetaJoinClause(
            table=table, left=left, op=op, right=right, delta_text=delta_text
        )

    def _predicate(self) -> AstPredicate:
        target = self._expr()
        if self._accept_kw("not"):
            self._expect("kw", "like")
            raise SqlSyntaxError("NOT LIKE is not supported", self._cur.pos)
        if self._accept_kw("between"):
            lo = self._expr()
            self._expect("kw", "and")
            hi = self._expr()
            return Between(target=target, lo=lo, hi=hi)
        if self._accept_kw("like"):
            pattern = self._expect("string")
            if not isinstance(target, Col):
                raise SqlSyntaxError("LIKE requires a column", pattern.pos)
            return Like(column=target, pattern=pattern.text)
        op_tok = self._cur
        if op_tok.kind == "op" and op_tok.text in ("=", "==", "<>", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._expr()
            op = {"==": "=", "!=": "<>"}.get(op_tok.text, op_tok.text)
            return Compare(op=op, left=target, right=right)
        raise SqlSyntaxError(
            f"expected a comparison, found {op_tok.text!r}", op_tok.pos
        )

    # ------------------------------------------------------------------
    # Expressions (precedence: unary minus > * > + -)
    # ------------------------------------------------------------------
    def _expr(self) -> AstExpr:
        node = self._term()
        while True:
            tok = self._tokens[self._i]
            if tok.kind != "op" or tok.text not in ("+", "-"):
                return node
            self._i += 1
            node = Arith(tok.text, node, self._term())

    def _term(self) -> AstExpr:
        node = self._factor()
        while True:
            tok = self._tokens[self._i]
            if tok.kind == "star":
                self._i += 1
                node = Arith("*", node, self._factor())
            elif tok.kind == "op" and tok.text == "/":
                raise SqlSyntaxError(
                    "division is not supported in expressions; compute ratios "
                    "over aggregate results instead", tok.pos,
                )
            else:
                return node

    def _factor(self) -> AstExpr:
        if self._accept("op", "-"):
            return Negate(self._factor())
        if self._accept("op", "("):
            node = self._expr()
            self._expect("op", ")")
            return node
        tok = self._cur
        if tok.kind == "number":
            self._advance()
            return Num(tok.text)
        if tok.kind == "string":
            self._advance()
            return Str(tok.text)
        if tok.kind == "kw" and tok.text == "case":
            return self._case()
        if tok.kind == "ident":
            return Col(self._qualified_name())
        raise SqlSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def _case(self) -> CaseWhen:
        self._expect("kw", "case")
        self._expect("kw", "when")
        condition = self._predicate()
        self._expect("kw", "then")
        then = self._expr()
        self._expect("kw", "else")
        otherwise = self._expr()
        self._expect("kw", "end")
        return CaseWhen(condition=condition, then=then, otherwise=otherwise)

    def _qualified_name(self) -> str:
        name = self._expect("ident").text
        if self._accept("op", "."):
            name = f"{name}.{self._expect('ident').text}"
        return name


#: A literal as the lexer reads it: a string, or an ASCII number that does
#: not continue a word (a digit after a word character is the word's; a
#: point never is, so ``t.5`` and ``t0.5`` are two shapes).  ``split``
#: alternates the text between literals — the statement's shape — with the
#: literals themselves; the lookahead lets the scan skip to the next quote,
#: digit or point.
_LITERAL = re.compile(
    r"((?=[.'0-9])(?:'[^']*'|(?<!\w)[0-9]+(?:\.[0-9]+)?|\.[0-9]+))"
)

#: Shape key -> template (:func:`_template`), or ``None`` for a shape seen
#: once or one whose AST literals are not the split's; an LRU, 256 like
#: ``PlanCache``.  Parsing is a pure function of the text, so the memo is
#: shared by every session.
_SHAPES: OrderedDict = OrderedDict()
_SHAPES_MAX = 256
_UNSEEN = object()


def _kind(literal: str):
    """A string, or a number's fraction digits, which set its scale."""
    if literal[0] == "'":
        return "'"
    point = literal.find(".")
    return 0 if point < 0 else len(literal) - point - 1


def parse(sql: str):
    """Parse one statement; returns a SelectStmt or BwDecompose.

    A statement whose shape — its text with the literals cut out, plus each
    literal's kind — was parsed before is rebuilt from that shape's template
    with its own literals.  A shape keeps a template from its second
    statement on, so one that never repeats pays for none.
    """
    parts = _LITERAL.split(sql)
    literals = parts[1::2]
    key = (tuple(parts[0::2]), tuple(map(_kind, literals)))
    template = _SHAPES.get(key, _UNSEEN)
    if template is None or template is _UNSEEN:
        stmt = _Parser(tokenize(sql)).parse_statement()
        # The shape's first statement stores ``None``; its second, a template.
        template = None if template is _UNSEEN else _template(stmt, parts)
        _SHAPES[key] = template
        if len(_SHAPES) > _SHAPES_MAX:
            _SHAPES.popitem(last=False)
        if template is None:
            return stmt
    _SHAPES.move_to_end(key)
    return template(key, [lit[1:-1] if lit[0] == "'" else lit for lit in literals])


def _template(stmt, parts):
    """``(key, values) -> stmt`` with other literal values, or ``None``.

    Kept only when the AST's literals, in source order, are the literals the
    split cut out; the split reads literals as the lexer does, so every one
    of them is then an AST literal (``bwdecompose`` bits are not: no
    template).  Another text of the shape lexes to the same tokens but for
    the literals' texts, and the parser reads no literal's text.  Every
    node off a path to a literal is shared with the template.
    """
    if not isinstance(stmt, SelectStmt):
        return None
    owners = list(ast.literals(stmt))
    values = [lit[1:-1] if lit[0] == "'" else lit for lit in parts[1::2]]
    if [getattr(n, f) for n, f in owners] != values:
        return None
    slots = {id(node): i for i, (node, _) in enumerate(owners)}
    env = {"SelectStmt": SelectStmt}
    args = _args(stmt, slots, env, held=True)
    return eval(f"lambda key, v: SelectStmt({args}, shape=(key, v))", env)


def _args(node, slots, env, held=False):
    """Source of ``node``'s field values, its literals read from ``v``;
    ``None`` when it holds none (and ``held`` is false)."""
    slot = ast.LITERAL_FIELDS.get(type(node))
    args = []
    for f in fields(node):
        if not f.compare:
            continue
        value = getattr(node, f.name)
        if f.name == slot and value is not None:
            src = f"v[{slots[id(node)]}]"
        else:
            src = _source(value, slots, env)
        held |= src is not None
        args.append(src or _bind(value, env))
    return ", ".join(args) if held else None


def _source(node, slots, env):
    """Source of an expression building ``node`` with its literals read
    from ``v``, or ``None`` when it holds none: the caller then shares it
    as it is.  No text of the statement enters the source."""
    if isinstance(node, tuple):
        items = [_source(item, slots, env) for item in node]
        if not any(items):
            return None
        return "(" + "".join(
            f"{src or _bind(item, env)}, " for src, item in zip(items, node)
        ) + ")"
    if not isinstance(node, ast.AstNode):
        return None
    args = _args(node, slots, env)
    return None if args is None else f"{_bind(type(node), env)}({args})"


def _bind(value, env) -> str:
    name = f"_{len(env)}"
    env[name] = value
    return name
