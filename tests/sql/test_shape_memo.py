"""Statements parsed and bound through the shape memos equal uncached ones.

``parse`` keeps a template per statement shape (the text with its literals
cut out, plus each literal's kind) from the shape's second statement on;
``bind`` keeps one per shape and catalog epoch in the catalog.  A warm
statement must come out exactly as a never-seen one: the same AST, the
same ``(Query, scales)``, the same error — type and message.
"""

import json
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DateType,
    DecimalType,
    DictionaryType,
    IntType,
    OrderedDictionary,
    Session,
)
from repro.sql import ast, bind, parse, parser

CORPUS = json.loads((Path(__file__).parent / "lexer_corpus.json").read_text())

P_TYPES = OrderedDictionary(
    ["ECONOMY BRASS", "PROMO BRUSHED", "PROMO PLATED", "STANDARD TIN"]
)


def _session():
    """The tables the corpus and the drawn statements name."""
    s = Session()
    rng = np.random.default_rng(3)
    n = 2_000
    s.create_table(
        "lineitem",
        {
            "quantity": IntType(), "price": DecimalType(10, 2),
            "extendedprice": DecimalType(12, 2), "discount": DecimalType(4, 2),
            "tax": DecimalType(4, 2), "shipdate": DateType(),
            "partkey": IntType(), "returnflag": IntType(), "linestatus": IntType(),
        },
        {
            "quantity": rng.integers(1, 51, n),
            "price": rng.uniform(10, 1000, n).round(2),
            "extendedprice": rng.uniform(10, 1000, n).round(2),
            "discount": rng.integers(0, 11, n) / 100.0,
            "tax": rng.integers(0, 9, n) / 100.0,
            "shipdate": rng.integers(8036, 10561, n),
            "partkey": rng.integers(0, 8, n),
            "returnflag": rng.integers(0, 3, n),
            "linestatus": rng.integers(0, 2, n),
        },
    )
    s.create_table(
        "part",
        {"key": IntType(), "p_type": DictionaryType(dictionary=P_TYPES)},
        {"key": np.arange(8), "p_type": [P_TYPES.values[i % 4] for i in range(8)]},
    )
    for name in ("bandL", "bandR", "quotes", "orders"):
        s.create_table(name, {"price": IntType()}, {"price": rng.integers(0, 9_000, 500)})
    s.create_table(
        "events", {"value": IntType(), "bucket": IntType()},
        {"value": rng.integers(0, 20_000, n), "bucket": rng.integers(0, 16, n)},
    )
    s.create_table("dim", {"pivot": IntType()}, {"pivot": rng.integers(0, 20_000, 50)})
    s.create_table(
        "t", {"a": IntType(), "b": IntType(), "c": IntType()},
        {"a": np.arange(100), "b": np.arange(100) % 7, "c": np.arange(100) % 3},
    )
    s.create_table("f", {"fk": IntType()}, {"fk": rng.integers(0, 4, 100)})
    s.create_table("d", {"key": IntType()}, {"key": np.arange(4)})
    return s


@pytest.fixture(scope="module")
def catalog():
    return _session().catalog


def _outcome(sql, catalog):
    """``(AST, (Query, scales))`` of ``sql``, or the error it raised."""
    try:
        stmt = parse(sql)
        return stmt, (bind(stmt, catalog) if isinstance(stmt, ast.SelectStmt) else None)
    except Exception as exc:  # every error must match, not only ours
        return type(exc), str(exc)


def _uncached(sql, catalog):
    """The path of a never-seen shape: both memos empty."""
    parser._SHAPES.clear()
    catalog.bind_templates.clear()
    return _outcome(sql, catalog)


def _warm(sql, sibling, catalog):
    """``sql`` after ``sibling`` — another statement of its shape — has
    run twice, which leaves both templates behind when it parses and
    binds."""
    _outcome(sibling, catalog)
    _outcome(sibling, catalog)
    return _outcome(sql, catalog)


def _sibling(sql):
    """``sql`` with every number literal's leading digit changed: the same
    shape, other values."""
    parts = parser._LITERAL.split(sql)
    for i in range(1, len(parts), 2):
        lit = parts[i]
        if lit[0] != "'":
            at = 0 if lit[0] != "." else 1
            parts[i] = lit[:at] + str((int(lit[at]) + 1) % 10) + lit[at + 1:]
    return "".join(parts)


def test_corpus_warm_equals_uncached(catalog):
    mismatched, templated = [], 0
    for sql in CORPUS:
        want = _uncached(sql, catalog)
        got = _warm(sql, _sibling(sql), catalog)
        if got != want:
            mismatched.append(sql)
        templated += isinstance(got[0], ast.SelectStmt) and got[0].shape is not None
    assert mismatched == []
    assert templated > 200  # the memos were actually exercised


def test_a_shape_is_templated_from_its_second_statement():
    parser._SHAPES.clear()
    sql = "select count(*) as n from events where value between 10 and 99"
    first, second, third = (parse(sql) for _ in range(3))
    assert first.shape is None and second.shape is not None
    assert third.shape[0] == second.shape[0]
    assert first == second == third


# ----------------------------------------------------------------------
# Drawn literals: every site, every kind
# ----------------------------------------------------------------------
def _number(sign: bool, frac: int, point_first: bool = False):
    """Numbers of one kind: sign, fraction digits, and whether the text
    starts at its point (``.05``)."""
    def render(digits: int) -> str:
        text = str(digits).rjust(frac + 1, "0")
        body = text if frac == 0 else f"{text[:-frac]}.{text[-frac:]}"
        if point_first and frac:
            body = body[body.index("."):]
        return f"-{body}" if sign else body
    return st.integers(0, 10**7).map(render)


INT = st.booleans().map(lambda neg: _number(neg, 0))
POS_INT = st.just(_number(False, 0))
DEC = st.tuples(st.booleans(), st.integers(0, 4), st.booleans()).map(
    lambda k: _number(*k)
)
DATE = st.just(
    st.integers(727_000, 730_000).map(lambda d: date.fromordinal(d).isoformat())
)
TYPES = st.just(st.sampled_from(list(P_TYPES.values) + ["PROMO", "ZINC", ""]))
PATTERNS = st.just(st.sampled_from(
    ["PROMO%", "P%", "%", "ZZ%", "STANDARD TIN", "NOPE", "%TIN", "PRO%MO%"]
))

TEMPLATES = [
    ("select count(*) as n from lineitem where quantity between {} and {}", [INT, INT]),
    ("select sum(discount) as s from lineitem where discount between {} and {}", [DEC, DEC]),
    ("select count(*) as n from lineitem where discount > {} and price <> {}", [DEC, DEC]),
    ("select sum(extendedprice * (1 - discount) + {}) as s from lineitem "
     "where tax < {}", [DEC, DEC]),
    ("select sum(case when quantity < {} then extendedprice else {} end) as s "
     "from lineitem", [INT, DEC]),
    ("select count(*) as n from lineitem where shipdate >= '{}' "
     "and shipdate < '{}'", [DATE, DATE]),
    ("select count(*) as n from lineitem join part on lineitem.partkey = part.key "
     "where part.p_type = '{}'", [TYPES]),
    ("select count(*) as n from lineitem join part on lineitem.partkey = part.key "
     "where part.p_type like '{}'", [PATTERNS]),
    ("select count(*) as n from bandL join bandR on bandL.price within {} "
     "of bandR.price where price < {}", [POS_INT, INT]),
    ("select count(*) as n from t where a < {}and b > {}", [POS_INT, INT]),
    ("select count(*) as n from t where t.{} < {}", [POS_INT, INT]),
    ("select sum(a * {}) as s from t where {} < a", [DEC, INT]),
]


@st.composite
def _instances(draw):
    """Two statements of one drawn template: mostly of one shape (each
    site's kind drawn once, its literal once per statement), else with the
    kinds drawn again — shapes that differ only in a literal's kind."""
    template, sites = draw(st.sampled_from(TEMPLATES))
    kinds = [draw(site) for site in sites]
    if draw(st.integers(0, 3)) == 0:
        other = [draw(site) for site in sites]
    else:
        other = kinds
    one = [draw(kind) for kind in kinds]
    two = [draw(kind) for kind in other]
    return template.format(*one), template.format(*two)


@settings(max_examples=150, deadline=None)
@given(pair=_instances())
def test_drawn_literals_warm_equal_uncached(catalog, pair):
    sql, sibling = pair
    assert _warm(sql, sibling, catalog) == _uncached(sql, catalog)


WINDOW = "select count(*) as n from lineitem where discount between {} and 0.07"


@pytest.mark.parametrize("one, two", [
    # fraction digits set the bound scale
    ("select sum(a * 1.5) as s from t where 3 < a",
     "select sum(a * 15) as s from t where 3 < a"),
    (WINDOW.format("0.050"), WINDOW.format("0.05")),
    (WINDOW.format("0.055"), WINDOW.format("0.05")),
    # a number that starts at its point lexes on after a word; one that
    # starts with a digit continues the word
    (WINDOW.format(".05").replace(" .", "."), WINDOW.format("0.05").replace(" 0", "0")),
])
@pytest.mark.parametrize("swap", [False, True])
def test_shapes_differ_by_literal_kind(catalog, one, two, swap):
    if swap:
        one, two = two, one
    assert _warm(two, one, catalog) == _uncached(two, catalog)


# ----------------------------------------------------------------------
# What a template must not carry
# ----------------------------------------------------------------------
SHAPE = "select count(*) as n from lineitem where discount between {} and {}"


def test_a_failing_statement_leaves_no_template(catalog):
    parser._SHAPES.clear()
    catalog.bind_templates.clear()
    with pytest.raises(Exception):
        parse("select count(*) from lineitem where")
    assert len(parser._SHAPES) == 0
    refused = SHAPE.format("0.055", "0.07")  # more digits than the scale
    for _ in range(3):
        with pytest.raises(Exception, match="more fractional digits"):
            bind(parse(refused), catalog)
    assert len(catalog.bind_templates) == 0
    good = SHAPE.format("0.050", "0.070")
    assert bind(parse(good), catalog) == _uncached(good, catalog)[1]


def test_sessions_never_share_bind_templates():
    """One text, two catalogs where it binds differently."""
    ints, decimals = Session(), Session()
    ints.create_table("t", {"v": IntType()}, {"v": np.arange(10)})
    decimals.create_table("t", {"v": DecimalType(10, 2)}, {"v": np.arange(10) / 4})
    for k in range(4):
        sql = f"select count(*) as n from t where v < {k}"
        for session, scale in ((ints, 1), (decimals, 100)):
            query, _ = bind(parse(sql), session.catalog)
            assert query.where[0].vrange.hi == k * scale - 1
    assert len(ints.catalog.bind_templates) == len(decimals.catalog.bind_templates) == 1


def test_ddl_and_compaction_invalidate_templates():
    session = Session()
    session.create_table("f", {"k": IntType()}, {"k": np.arange(20) % 4})
    session.create_table("d", {"key": IntType()}, {"key": np.arange(4)})
    sql = "select count(*) as n from f join d on f.k = d.key where k < {}"
    for k in range(3):  # dense key: the FK join
        query, _ = bind(parse(sql.format(k)), session.catalog)
        assert query.joins and not query.theta_joins
    # compaction makes the key sparse: the FK decision must be taken again
    session.append("d", {"key": [9]})
    session.compact("d")
    query, _ = bind(parse(sql.format(7)), session.catalog)
    assert query.theta_joins and not query.joins
    # table DDL: the column's type, and so the literal's scale, changes
    sql = "select count(*) as n from f where k < {}"
    for k in range(3):
        assert bind(parse(sql.format(k)), session.catalog)[0].where[0].vrange.hi == k - 1
    session.drop("f")
    session.create_table("f", {"k": DecimalType(8, 1)}, {"k": np.arange(20) / 10})
    assert bind(parse(sql.format(5)), session.catalog)[0].where[0].vrange.hi == 49


def test_scales_are_each_instances_own(catalog):
    sql = "select sum(extendedprice) as s from lineitem where quantity < {}"
    for k in range(3):
        _, scales = bind(parse(sql.format(k)), catalog)
        assert scales == {"s": 2}
        scales["s"] = 99


def test_results_equal_with_and_without_warm_memos():
    """Results, the approximate answer and the modeled ledger."""
    session = _session()
    for table, column, bits in (
        ("lineitem", "extendedprice", 16), ("lineitem", "discount", 32),
        ("lineitem", "shipdate", 24), ("lineitem", "partkey", 32),
        ("part", "p_type", 32),
    ):
        session.bwdecompose(table, column, bits)
    statements = [
        SHAPE.format("0.02", "0.06"),
        "select sum(case when part.p_type like 'PROMO%' then extendedprice "
        "else 0 end) as p from lineitem join part on lineitem.partkey = part.key "
        "where shipdate >= '1995-09-01'",
    ]

    def run(sql):
        result = session.execute(sql)
        return (
            {k: v.tolist() for k, v in result.columns.items()},
            result.decimal_scales, result.approximate,
            result.timeline.span_tuples(),
        )

    for sql in statements:
        parser._SHAPES.clear()
        session.catalog.bind_templates.clear()
        cold = run(sql)
        for _ in range(2):
            run(_sibling(sql))
        assert parse(sql).shape is not None
        assert run(sql) == cold
