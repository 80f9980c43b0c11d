"""The lazy relational builder: the library's primary programmatic API.

A :class:`RelationBuilder` is an immutable, composable description of one
logical query block.  Every method returns a *new* builder; nothing touches
a device until :meth:`run` (or :meth:`build`, which only produces the
logical :class:`~repro.plan.logical.Query`).  Because the builder bottoms
out in the plan layer, everything the planner knows — rewriting into the
A&R shape, ``explain``, all three execution modes, theta/band joins —
composes freely::

    session.table("orders") \
        .where("qty", ">=", 5) \
        .band_join("quotes", on="price", delta=32) \
        .group_by("region") \
        .count("n") \
        .run(mode="ar")

A theta join built here is an ordinary plan node, so selections under it
and (grouped) aggregates over it are just more builder calls, in any of the
three modes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..core.relax import CompareOp, ValueRange
from ..errors import PlanError
from ..plan.expr import ColRef, Expr, Predicate
from ..plan.logical import Aggregate, FkJoin, Query, ThetaJoin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..device.timeline import Timeline
    from ..serve.handles import QueryHandle
    from .result import Result
    from .session import Session


def _as_operand(expr: Expr | str) -> Expr:
    if isinstance(expr, Expr):
        return expr
    if isinstance(expr, str):
        return ColRef(expr)
    raise PlanError(f"cannot aggregate over {expr!r}")


def _on_columns(on: str | tuple[str, str]) -> tuple[str, str]:
    if isinstance(on, str):
        return on, on
    left, right = on
    return left, right


class RelationBuilder:
    """One lazily-built query block over a session's fact table."""

    def __init__(
        self,
        session: "Session",
        table: str,
        *,
        where: tuple[Predicate, ...] = (),
        joins: tuple[FkJoin, ...] = (),
        theta_joins: tuple[ThetaJoin, ...] = (),
        group: tuple[str, ...] = (),
        aggregates: tuple[Aggregate, ...] = (),
        selected: tuple[str, ...] = (),
    ) -> None:
        self._session = session
        self._table = table
        self._where = where
        self._joins = joins
        self._theta = theta_joins
        self._group = group
        self._aggregates = aggregates
        self._selected = selected

    def _derive(self, **changes) -> "RelationBuilder":
        state = dict(
            where=self._where, joins=self._joins, theta_joins=self._theta,
            group=self._group, aggregates=self._aggregates,
            selected=self._selected,
        )
        state.update(changes)
        return RelationBuilder(self._session, self._table, **state)

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------
    def where(
        self,
        column_or_predicate: Predicate | str,
        op: str | None = None,
        value: int | None = None,
        *,
        between: tuple[int, int] | None = None,
    ) -> "RelationBuilder":
        """Add one conjunct: a ready :class:`Predicate`, or sugar.

        ``where("price", "<=", 100)`` / ``where("price", between=(2, 9))``.
        """
        if isinstance(column_or_predicate, Predicate):
            if op is not None or value is not None or between is not None:
                raise PlanError(
                    "pass either a Predicate or column/op/value, not both"
                )
            pred = column_or_predicate
        elif between is not None:
            if op is not None or value is not None:
                raise PlanError("between= excludes an op/value pair")
            pred = Predicate(
                ColRef(column_or_predicate), ValueRange.between(*between)
            )
        else:
            if op is None or value is None:
                raise PlanError(
                    "where() needs a Predicate, an (op, value) pair, or "
                    "between=(lo, hi)"
                )
            cop = CompareOp.from_symbol(op)
            if cop is CompareOp.NE:
                pred = Predicate(
                    ColRef(column_or_predicate),
                    ValueRange(int(value), int(value)), negated=True,
                )
            else:
                pred = Predicate(
                    ColRef(column_or_predicate),
                    ValueRange.from_comparison(cop, int(value)),
                )
        return self._derive(where=self._where + (pred,))

    def join(self, dim_table: str, *, fk: str) -> "RelationBuilder":
        """Foreign-key join: ``fact.fk`` → rows of ``dim_table`` (§IV-D)."""
        return self._derive(
            joins=self._joins + (FkJoin(fk_column=fk, dim_table=dim_table),)
        )

    def theta_join(
        self,
        right_table: str,
        *,
        on: str | tuple[str, str],
        op: str,
        delta: int = 0,
    ) -> "RelationBuilder":
        """Theta join against ``right_table`` (§IV-D).

        ``on`` names the join columns — one shared name, or a
        ``(fact_column, right_column)`` pair; ``op`` is one of
        ``< <= > >= =`` or ``"within"`` (with ``delta``).
        """
        left_col, right_col = _on_columns(on)
        theta = ThetaJoin(
            left_column=left_col, right_table=right_table,
            right_column=right_col, op=op, delta=delta,
        )
        return self._derive(theta_joins=self._theta + (theta,))

    def band_join(
        self,
        right_table: str,
        *,
        on: str | tuple[str, str],
        delta: int,
    ) -> "RelationBuilder":
        """Band join: ``|left − right| <= delta`` (sugar for ``within``)."""
        return self.theta_join(right_table, on=on, op="within", delta=delta)

    def group_by(self, *columns: str) -> "RelationBuilder":
        return self._derive(group=self._group + columns)

    def select(self, *columns: str) -> "RelationBuilder":
        """Project exact columns (plain, non-aggregating queries)."""
        return self._derive(selected=self._selected + columns)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def agg(
        self, func: str, expr: Expr | str | None = None, alias: str | None = None
    ) -> "RelationBuilder":
        """Append one aggregate output; ``count`` may omit the operand."""
        operand = None if expr is None else _as_operand(expr)
        if alias is None:
            alias = f"{func}_{len(self._aggregates)}"
        aggregate = Aggregate(func, operand, alias)
        return self._derive(aggregates=self._aggregates + (aggregate,))

    def count(self, alias: str = "count") -> "RelationBuilder":
        return self.agg("count", None, alias)

    def sum(self, expr: Expr | str, alias: str | None = None) -> "RelationBuilder":
        return self.agg("sum", expr, alias)

    def avg(self, expr: Expr | str, alias: str | None = None) -> "RelationBuilder":
        return self.agg("avg", expr, alias)

    def min(self, expr: Expr | str, alias: str | None = None) -> "RelationBuilder":
        return self.agg("min", expr, alias)

    def max(self, expr: Expr | str, alias: str | None = None) -> "RelationBuilder":
        return self.agg("max", expr, alias)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def build(self) -> Query:
        """The logical :class:`Query` this builder denotes (still lazy)."""
        return Query(
            table=self._table,
            where=self._where,
            joins=self._joins,
            group_by=self._group,
            aggregates=self._aggregates,
            select=self._selected,
            theta_joins=self._theta,
        )

    def run(
        self,
        *,
        mode: str = "ar",
        pushdown: bool = True,
        predicate_order: str = "query",
        optimizer: str = "cost",
        timeline: "Timeline | None" = None,
    ) -> "Result":
        """Execute the block in one of the three modes (the eager step).

        ``optimizer`` is ``"cost"`` (plans carry :mod:`repro.opt`'s
        estimates) or ``"heuristic"``; the Result is byte-identical
        either way.
        """
        return self._session.query(
            self.build(), mode=mode, pushdown=pushdown,
            predicate_order=predicate_order, optimizer=optimizer,
            timeline=timeline,
        )

    def explain(
        self, *, pushdown: bool = True, optimizer: str = "heuristic"
    ) -> str:
        """Render the physical A&R plan this block rewrites into."""
        return self._session.explain(
            self.build(), pushdown=pushdown, optimizer=optimizer,
        )

    # ------------------------------------------------------------------
    # Serving (deferred execution through a scheduler)
    # ------------------------------------------------------------------
    def submit(self, server, *, mode: str = "ar") -> "QueryHandle":
        """Enqueue this block on a :meth:`Session.serve` scheduler.

        Returns a handle immediately; the query executes inside a shared
        batch, with Result and Timeline byte-identical to :meth:`run`.
        """
        return server.submit(self.build(), mode=mode)

    def submit_many(
        self, server, variants: "Iterable", *, mode: str = "ar"
    ) -> "list[QueryHandle]":
        """Enqueue one query per variant of this block — the serving-side
        fan-out for parameter sweeps (the same dashboard over many ranges).

        Each ``variant`` is either a callable mapping this builder to a
        derived builder, or a tuple of :meth:`where` positional arguments
        (e.g. ``("price", "<=", 100)``); builders are immutable, so every
        variant derives from the same base block::

            handles = session.table("trips").count("n").submit_many(
                server, [("lon", "<=", cut) for cut in cuts])
        """
        handles = []
        for variant in variants:
            derived = (
                variant(self) if callable(variant) else self.where(*variant)
            )
            handles.append(server.submit(derived.build(), mode=mode))
        return handles

    def __repr__(self) -> str:
        parts = [f"table={self._table!r}"]
        if self._where:
            parts.append(f"where={len(self._where)}")
        if self._joins:
            parts.append(f"fk_joins={len(self._joins)}")
        if self._theta:
            t = self._theta[0]
            parts.append(f"theta={t.left_column}{t.op}{t.right_table}.{t.right_column}")
        if self._group:
            parts.append(f"group_by={list(self._group)}")
        if self._aggregates:
            parts.append(f"aggs={[a.alias for a in self._aggregates]}")
        if self._selected:
            parts.append(f"select={list(self._selected)}")
        return f"RelationBuilder({', '.join(parts)})"
