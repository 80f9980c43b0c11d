"""Logical query blocks: the relational algebra the engine accepts.

One :class:`Query` describes a select-project-join-aggregate block — the
fragment of relational algebra the paper's evaluation exercises (spatial
range counts, TPC-H Q1/Q6/Q14) plus plain projections.  Two join flavors
exist:

* :class:`FkJoin` — foreign-key (projective) joins against dimension
  tables, matching §IV-D's pre-built-index scope;
* :class:`ThetaJoin` — the §IV-D theta/band join between one fact column
  and one column of another table, a first-class plan node since PR 4 so
  selections, grouping and aggregation compose on top of it and the
  rewriter/EXPLAIN/SQL layers all see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError
from .expr import ColRef, Expr, Predicate

#: Aggregate functions supported (paper §IV-F).
AGG_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate output: ``func(expr) AS alias`` (``count`` may omit expr)."""

    func: str
    expr: Expr | None
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise PlanError(f"unknown aggregate function {self.func!r}")
        if self.expr is None and self.func != "count":
            raise PlanError(f"{self.func} requires an argument")

    def columns(self) -> set[str]:
        return set() if self.expr is None else self.expr.columns()


@dataclass(frozen=True)
class FkJoin:
    """A foreign-key join: ``fact.fk_column`` → rows of ``dim_table``.

    Dimension keys are assumed dense 0..N-1 in storage encoding (the
    pre-built FK index of §IV-D); dimension columns are referenced as
    ``"<dim_table>.<column>"`` in expressions and predicates.
    """

    fk_column: str
    dim_table: str


#: Theta-join predicates supported by :class:`ThetaJoin` (paper §IV-D).
THETA_OPS = ("<", "<=", ">", ">=", "=", "within")


@dataclass(frozen=True)
class ThetaJoin:
    """A theta join: ``fact.left_column θ right_table.right_column``.

    ``op`` is one of :data:`THETA_OPS`; ``"within"`` is the band join
    ``|left − right| <= delta``.
    """

    left_column: str
    right_table: str
    right_column: str
    op: str
    delta: int = 0

    def __post_init__(self) -> None:
        if self.op not in THETA_OPS:
            valid = ", ".join(THETA_OPS)
            raise PlanError(
                f"unknown theta operator {self.op!r}; pick one of: {valid}"
            )
        if self.op == "within" and self.delta < 0:
            raise PlanError("band join needs a non-negative delta")
        if "." in self.left_column:
            raise PlanError(
                f"theta join left side {self.left_column!r} must be an "
                "unqualified fact-table column"
            )
        if "." in self.right_column:
            raise PlanError(
                f"theta join right side {self.right_column!r} must be an "
                f"unqualified column of {self.right_table!r}"
            )

    def share_key(self) -> tuple[str, str]:
        """The right side two theta joins must share to batch together.

        Joins against the same right column reuse its memoized
        ``sort_permutation`` and decoded views; the serve-layer batch
        former groups them so those shared structures stay hot (one sort,
        many joins — and, under an evicting view budget, no thrash).
        """
        return (self.right_table, self.right_column)


@dataclass(frozen=True)
class Query:
    """A logical select-project-join-aggregate block."""

    table: str
    where: tuple[Predicate, ...] = ()
    joins: tuple[FkJoin, ...] = ()
    group_by: tuple[str, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    #: plain projected columns (exact values in the result set)
    select: tuple[str, ...] = ()
    theta_joins: tuple[ThetaJoin, ...] = ()

    def __post_init__(self) -> None:
        if not self.aggregates and not self.select and not self.theta_joins:
            raise PlanError("query must produce aggregates or projected columns")
        if self.group_by and not self.aggregates:
            raise PlanError("GROUP BY requires aggregates")
        aliases = [a.alias for a in self.aggregates]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aggregate aliases: {aliases}")
        if self.theta_joins:
            self._check_theta_block()

    def _check_theta_block(self) -> None:
        """Scope of the theta-join query class (PR 4).

        One theta join per block; its output is the candidate pair set
        (``left_pos``/``right_pos``) or aggregates over it.  Selections and
        grouping reference fact-table columns only.  Aggregates may
        additionally project the join's *right* column as a bare reference
        (``sum(right_table.right_column)``) — the run-payload path; generic
        right-side expressions remain future work, exactly as the paper
        leaves generic join payloads to future work.
        """
        if len(self.theta_joins) > 1:
            raise PlanError("at most one theta join per query block")
        if self.joins:
            raise PlanError(
                "theta joins cannot be combined with FK joins in one block"
            )
        if self.select:
            raise PlanError(
                "theta-join queries project the pair positions "
                "(left_pos, right_pos); a SELECT column list is not supported"
            )
        tj = self.theta_joins[0]
        right_qualified = f"{tj.right_table}.{tj.right_column}"
        referenced: set[str] = set(self.group_by)
        for pred in self.where:
            referenced |= pred.columns()
        for agg in self.aggregates:
            cols = agg.columns()
            if right_qualified in cols:
                from .expr import ColRef

                if not isinstance(agg.expr, ColRef) or len(cols) > 1:
                    raise PlanError(
                        f"aggregate {agg.alias!r}: the theta join's right "
                        f"column may only be projected as a bare reference "
                        f"({right_qualified}), not inside an expression"
                    )
                continue
            referenced |= cols
        qualified = sorted(c for c in referenced if "." in c)
        if qualified:
            raise PlanError(
                "theta-join queries may only reference fact-table columns "
                f"in WHERE/GROUP BY/aggregates; got {qualified}"
            )

    # ------------------------------------------------------------------
    def referenced_columns(self) -> set[str]:
        """Every column any part of the query touches."""
        cols: set[str] = set(self.select) | set(self.group_by)
        for pred in self.where:
            cols |= pred.columns()
        for agg in self.aggregates:
            cols |= agg.columns()
        for join in self.joins:
            cols.add(join.fk_column)
        for theta in self.theta_joins:
            cols.add(theta.left_column)
        return cols

    def dim_table_of(self, column: str) -> str | None:
        """The dimension table a qualified column name belongs to, if any."""
        if "." not in column:
            return None
        prefix = column.split(".", 1)[0]
        for join in self.joins:
            if join.dim_table == prefix:
                return prefix
        return None

    def is_aggregation(self) -> bool:
        return bool(self.aggregates)

    def batch_fingerprint(self) -> tuple:
        """Coarse batch-compatibility key for the serve-layer batch former.

        Two queries with equal fingerprints can share device-side work in
        one scheduler batch:

        * ``("scan", table, column)`` — plain blocks whose first
          scan-drivable predicate targets ``column``: their relaxed
          selection scans fuse into one cooperative pass over that
          column's approximation stream;
        * ``("theta", right_table, right_column)`` — theta blocks sharing
          a right side: they reuse its memoized sort permutation and
          decoded views (see :meth:`ThetaJoin.share_key`);
        * ``("solo", table)`` — nothing shareable; the scheduler runs the
          query alone.

        The fingerprint is syntactic (no catalog access): the scheduler
        re-validates against the rewritten physical plan before fusing, so
        a non-decomposed column or a reordered predicate degrades to a
        solo run instead of an unsound fuse.
        """
        if self.theta_joins:
            return ("theta",) + self.theta_joins[0].share_key()
        for pred in self.where:
            if pred.is_simple_column:
                return ("scan", self.table, pred.target.name)
        return ("solo", self.table)


def simple_filter_query(table: str, column: str, predicate: Predicate) -> Query:
    """Helper for the microbenchmarks: ``SELECT col FROM t WHERE pred``."""
    if not isinstance(predicate.target, ColRef):
        raise PlanError("simple_filter_query wants a bare-column predicate")
    return Query(table=table, where=(predicate,), select=(column,))
