"""A minimal SQL front-end for the A&R engine.

Covers the fragment the paper's evaluation needs — and a bit more:

* ``SELECT`` lists with aggregates, scaled-decimal arithmetic and
  ``CASE WHEN … THEN … ELSE … END``,
* ``FROM`` with foreign-key ``JOIN … ON fact.fk = dim.key``,
* ``WHERE`` conjunctions of comparisons and ``BETWEEN``, with date and
  dictionary-string literals, and ``LIKE 'PREFIX%'`` rewritten to an
  ordered-dictionary range (the paper's Q14 optimization),
* ``GROUP BY``,
* the DDL side-effect ``SELECT bwdecompose(col, bits) FROM table`` (§V-A).
"""

from __future__ import annotations

from .parser import parse
from .ast import BwDecompose, SelectStmt
from .binder import bind
from ..engine.result import Result
from ..errors import PlanError, SqlError


def run_sql(
    session,
    sql: str,
    *,
    mode: str = "ar",
    pushdown: bool = True,
    predicate_order: str = "query",
) -> Result:
    """Parse, bind and execute one SQL statement against a session."""
    stmt = parse(sql)
    if isinstance(stmt, BwDecompose):
        session.bwdecompose(stmt.table, stmt.column, stmt.device_bits)
        from ..device.timeline import Timeline

        return Result(columns={}, row_count=0, timeline=Timeline())
    if isinstance(stmt, SelectStmt):
        query, scales = bind(stmt, session.catalog)
        result = session.query(
            query, mode=mode, pushdown=pushdown,
            predicate_order=predicate_order,
        )
        result.decimal_scales.update(scales)
        return result
    raise SqlError(f"unsupported statement {type(stmt).__name__}")


def query_to_explain(query, catalog):
    """The logical query behind an ``explain`` argument: SQL text is parsed
    and bound as :func:`run_sql` does it, a bound query passes through."""
    if not isinstance(query, str):
        return query
    stmt = parse(query)
    if isinstance(stmt, BwDecompose):
        raise PlanError(
            f"bwdecompose({stmt.column}, {stmt.device_bits}) is DDL: it has "
            "no plan, there is nothing to explain"
        )
    if not isinstance(stmt, SelectStmt):
        raise SqlError(f"unsupported statement {type(stmt).__name__}")
    return bind(stmt, catalog)[0]


__all__ = ["run_sql", "parse", "bind", "query_to_explain"]
