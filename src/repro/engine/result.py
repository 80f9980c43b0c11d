"""Query results: exact columns, approximate bounds and the cost timeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.intervals import Interval
from ..device.timeline import Timeline
from ..errors import ExecutionError


@dataclass(slots=True)
class ApproximateAnswer:
    """The free fast answer produced by the approximation subplan alone.

    ``aggregates`` maps aggregate aliases to strict bounds — a scalar
    :class:`Interval` for ungrouped queries, a list of per-(approximate-)
    group intervals for grouped ones, or ``None``: no bound was formed.
    That is so for an operand that is not device-resident at all, for every
    alias of a grouped query a pending delta row falls into (and an ``avg``
    whose base ran lowered to its partials), for every alias of a sharded
    query but an ungrouped ``count``, and for every aggregate over join
    pairs but the ungrouped pair ``count`` — ``None`` does not say which
    (ROADMAP L).
    """

    aggregates: dict[str, Interval | list[Interval] | None] = field(
        default_factory=dict
    )
    candidate_rows: int = 0
    n_groups: int | None = None

    def bound(self, alias: str) -> Interval | list[Interval] | None:
        try:
            return self.aggregates[alias]
        except KeyError:
            raise ExecutionError(f"no approximate bound for {alias!r}") from None


@dataclass(slots=True)
class Result:
    """The refined (exact) result of one query.

    ``columns`` holds, for aggregation queries, the group-by key columns
    plus one array per aggregate alias (length = number of groups; length 1
    for ungrouped aggregates); for plain queries, the projected columns at
    the qualifying rows.
    """

    columns: dict[str, np.ndarray]
    row_count: int
    timeline: Timeline
    approximate: ApproximateAnswer | None = None
    #: decimal scale per output column (set by the SQL binder) so raw
    #: scaled-integer results can be decoded for presentation.
    decimal_scales: dict[str, int] = field(default_factory=dict)
    #: True when part of the data could not be reached (a shard down past
    #: its deadline): ``columns`` cover only the surviving shards and
    #: ``approximate`` carries the sound bounds that remain valid.
    degraded: bool = False
    #: Fraction of the queried table's rows on shards that answered
    #: (1.0 = full coverage; meaningful when ``degraded``).
    shard_coverage: float = 1.0

    def decoded(self, name: str) -> np.ndarray:
        """Column values decoded to floats using the recorded decimal scale."""
        col = np.asarray(self.column(name), dtype=np.float64)
        scale = self.decimal_scales.get(name, 0)
        return col / (10.0 ** scale)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"result has no column {name!r}; available: {list(self.columns)}"
            ) from None

    def scalar(self, name: str):
        """Value of a single-row column (ungrouped aggregate results)."""
        col = self.column(name)
        if len(col) != 1:
            raise ExecutionError(f"column {name!r} has {len(col)} rows, not 1")
        return col[0].item() if hasattr(col[0], "item") else col[0]

    def sorted_by(self, *names: str) -> "Result":
        """Deterministically ordered copy (group output order is unspecified)."""
        if self.row_count <= 1 or not names:
            return self
        order = np.lexsort(tuple(self.columns[n] for n in reversed(names)))
        return Result(
            columns={k: np.asarray(v)[order] for k, v in self.columns.items()},
            row_count=self.row_count,
            timeline=self.timeline,
            approximate=self.approximate,
            decimal_scales=self.decimal_scales,
            degraded=self.degraded,
            shard_coverage=self.shard_coverage,
        )
