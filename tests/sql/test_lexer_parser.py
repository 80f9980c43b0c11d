"""Tests for the SQL lexer and parser."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError, SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse

HERE = Path(__file__).resolve().parent
E2E = HERE.parents[1] / "benchmarks" / "e2e"

#: SQL text -> digest of its ``(kind, text, pos)`` triples (or of its
#: syntax error), captured with the per-character lexer this one replaced:
#: every string literal statement of ``tests/sql`` plus what the e2e
#: generators emit (seed 0, quick shape, blocks -1 and 0, two waves each).
CORPUS = json.loads((HERE / "lexer_corpus.json").read_text())


def _triples(sql):
    return [(t.kind, t.text, t.pos) for t in tokenize(sql)]


def _digest(sql):
    try:
        triples = [list(t) for t in _triples(sql)]
    except SqlSyntaxError as exc:
        triples = ["error", str(exc)]
    return hashlib.sha256(json.dumps(triples).encode()).hexdigest()[:16]


def _e2e_statements():
    """The SQL the e2e workload generators emit for the corpus's draws."""
    sys.path.insert(0, str(E2E))  # workloads.py imports its oracles
    try:
        spec = importlib.util.spec_from_file_location(
            "e2e_workloads", E2E / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(E2E))
    out = []
    for w in workloads.WORKLOADS.values():
        data = None if w.kind == "solo" else w.generate(0, quick=True)
        for k in (-1, 0):
            block = w.block(data, 0, k)
            ops = block if w.kind == "solo" else [
                op for _, wave in block[:2] for op in wave
            ]
            out.extend(op.sql for op in ops)
    return out


class TestLexerRules:
    """The master pattern's token rules, one edge per row."""

    EDGES = {
        ".5": [("number", ".5", 0), ("eof", "", 2)],
        "1.": [("number", "1", 0), ("op", ".", 1), ("eof", "", 2)],
        "1.2.3": [("number", "1.2", 0), ("number", ".3", 3), ("eof", "", 5)],
        "a_b1": [("ident", "a_b1", 0), ("eof", "", 4)],
        "é": [("ident", "é", 0), ("eof", "", 1)],
        "_x SeLeCt": [("ident", "_x", 0), ("kw", "select", 3), ("eof", "", 9)],
        "a²": [("ident", "a²", 0), ("eof", "", 2)],
        "x  ": [("ident", "x", 0), ("eof", "", 3)],
        "": [("eof", "", 0)],
        "'it' 3": [("string", "it", 0), ("number", "3", 5), ("eof", "", 6)],
        "<= >= <> != == = < > + - * / ( ) , .": [
            ("op", "<=", 0), ("op", ">=", 3), ("op", "<>", 6),
            ("op", "!=", 9), ("op", "==", 12), ("op", "=", 15),
            ("op", "<", 17), ("op", ">", 19), ("op", "+", 21),
            ("op", "-", 23), ("star", "*", 25), ("op", "/", 27),
            ("op", "(", 29), ("op", ")", 31), ("op", ",", 33),
            ("op", ".", 35), ("eof", "", 36),
        ],
    }

    @pytest.mark.parametrize("sql", sorted(EDGES))
    def test_edge(self, sql):
        assert _triples(sql) == self.EDGES[sql]

    @pytest.mark.parametrize("sql, message, pos", [
        ("a = 'open", "unterminated string literal", 4),
        ("select @", "unexpected character '@'", 7),
        ("1 ²", "unexpected character '²'", 2),
        ("٣", "unexpected character '٣'", 0),
    ])
    def test_error_positions(self, sql, message, pos):
        with pytest.raises(SqlSyntaxError, match=message) as info:
            tokenize(sql)
        assert info.value.position == pos

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_is_a_syntax_error(self, digit):
        """Regression: ``'²'.isdigit()`` lexed it as a number, so the
        binder's ``int()`` raised a bare ValueError that ``except
        ReproError`` callers never caught; ``٣`` parsed as 3."""
        with pytest.raises(ReproError, match="unexpected character"):
            parse(f"select count(*) as n from t where a < {digit}")

    def test_tokens_are_immutable(self):
        tok = tokenize("a")[0]
        with pytest.raises(AttributeError):
            tok.text = "b"

    def test_corpus_tokenizes_as_captured(self):
        changed = [sql for sql, want in CORPUS.items() if _digest(sql) != want]
        assert changed == []

    def test_corpus_covers_the_e2e_generators(self):
        assert set(_e2e_statements()) <= set(CORPUS)


class TestLexer:
    def test_keywords_case_insensitive(self):
        toks = tokenize("SELECT Sum FROM t")
        assert [t.kind for t in toks] == ["kw", "kw", "kw", "ident", "eof"]
        assert toks[0].text == "select"

    def test_numbers_and_floats(self):
        toks = tokenize("12 3.45 0.07")
        assert [t.text for t in toks[:-1]] == ["12", "3.45", "0.07"]
        assert all(t.kind == "number" for t in toks[:-1])

    def test_qualified_name_is_three_tokens(self):
        toks = tokenize("part.p_type")
        assert [t.kind for t in toks[:-1]] == ["ident", "op", "ident"]

    def test_strings(self):
        toks = tokenize("'PROMO%' '1995-03-15'")
        assert toks[0] == toks[0].__class__("string", "PROMO%", 0)
        assert toks[1].text == "1995-03-15"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select 'oops")

    def test_multichar_operators(self):
        toks = tokenize("<= >= <> != =")
        assert [t.text for t in toks[:-1]] == ["<=", ">=", "<>", "!=", "="]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("select @")


class TestParserSelect:
    def test_simple_select(self):
        stmt = parse("select a, b from t")
        assert isinstance(stmt, ast.SelectStmt)
        assert stmt.table == "t"
        assert [i.expr.name for i in stmt.items] == ["a", "b"]

    def test_count_star_and_alias(self):
        stmt = parse("select count(*) as n from t")
        item = stmt.items[0]
        assert isinstance(item.expr, ast.AggCall)
        assert item.expr.func == "count" and item.expr.argument is None
        assert item.alias == "n"

    def test_aggregates_with_expressions(self):
        stmt = parse("select sum(price * (1 - disc)) from t")
        agg = stmt.items[0].expr
        assert agg.func == "sum"
        assert isinstance(agg.argument, ast.Arith) and agg.argument.op == "*"

    def test_sum_star_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("select sum(*) from t")

    def test_where_conjunction(self):
        stmt = parse("select a from t where a > 5 and b between 1 and 9 and c = 2")
        assert len(stmt.where) == 3
        assert isinstance(stmt.where[0], ast.Compare)
        assert isinstance(stmt.where[1], ast.Between)

    def test_group_by(self):
        stmt = parse("select flag, count(*) from t group by flag, status")
        assert stmt.group_by == ("flag", "status")

    def test_join_clause(self):
        stmt = parse(
            "select count(*) from lineitem join part on lineitem.partkey = part.key"
        )
        (join,) = stmt.joins
        assert join.dim_table == "part"
        assert join.fk_column == "lineitem.partkey"
        assert join.dim_key == "key"

    def test_join_sides_may_swap(self):
        stmt = parse("select count(*) from f join d on d.key = f.fk")
        (join,) = stmt.joins
        assert join.fk_column == "f.fk" and join.dim_key == "key"

    def test_join_must_mention_dim(self):
        with pytest.raises(SqlSyntaxError):
            parse("select count(*) from f join d on f.a = f.b")

    def test_like_predicate(self):
        stmt = parse("select count(*) from part where p_type like 'PROMO%'")
        (pred,) = stmt.where
        assert isinstance(pred, ast.Like)
        assert pred.pattern == "PROMO%"

    def test_case_when(self):
        stmt = parse(
            "select sum(case when kind = 1 then price else 0 end) from t"
        )
        arg = stmt.items[0].expr.argument
        assert isinstance(arg, ast.CaseWhen)
        assert isinstance(arg.condition, ast.Compare)

    def test_unary_minus(self):
        stmt = parse("select a from t where a > -5")
        pred = stmt.where[0]
        assert isinstance(pred.right, ast.Negate)

    def test_precedence_mul_over_add(self):
        stmt = parse("select sum(a + b * c) from t")
        arg = stmt.items[0].expr.argument
        assert arg.op == "+"
        assert isinstance(arg.right, ast.Arith) and arg.right.op == "*"

    def test_parentheses(self):
        stmt = parse("select sum((a + b) * c) from t")
        arg = stmt.items[0].expr.argument
        assert arg.op == "*"

    def test_division_rejected_with_hint(self):
        with pytest.raises(SqlSyntaxError, match="ratio"):
            parse("select sum(a / b) from t")

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse("select a from t limit 5")

    def test_bwdecompose(self):
        stmt = parse("select bwdecompose(lon, 24) from trips")
        assert isinstance(stmt, ast.BwDecompose)
        assert (stmt.table, stmt.column, stmt.device_bits) == ("trips", "lon", 24)

    def test_bwdecompose_rejects_float_bits(self):
        with pytest.raises(SqlSyntaxError):
            parse("select bwdecompose(lon, 2.4) from trips")
