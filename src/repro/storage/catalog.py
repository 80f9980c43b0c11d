"""The catalog: table registry plus the bitwise-decomposition registry.

In the paper, decomposing an attribute is an explicit, index-like DDL step
(``select bwdecompose(A, 24) from R`` — §V-A).  The catalog records which
columns have been decomposed, with which split, and owns the resulting
:class:`~repro.storage.decompose.BwdColumn` objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import DecompositionError, StorageError
from .decompose import BwdColumn, plan_decomposition
from .relation import Relation


class Catalog:
    """Named relations and their per-column decompositions."""

    def __init__(self) -> None:
        from ..opt.plan_cache import PlanCache

        self._tables: dict[str, Relation] = {}
        self._decomposed: dict[tuple[str, str], BwdColumn] = {}
        self._histograms: dict[tuple[str, str], "CodeHistogram"] = {}
        #: Per-table uncompressed delta segments (PR 9 streaming ingestion).
        self._deltas: dict[str, "DeltaStore"] = {}
        #: ``bwdecompose`` arguments by (table, column), in call order —
        #: compaction replays them over base+delta so the rebuilt column is
        #: byte-identical to a bulk load of the same rows.
        self._decompose_args: dict[tuple[str, str], dict] = {}
        #: Monotonic counter bumped by every successful compaction and by
        #: DDL; plan caches and other derived state key their invalidation
        #: on it.
        self._epoch = 0
        #: The binder's templates by (statement shape, epoch): they hold
        #: names, types and the FK decision read from this catalog, so they
        #: are this catalog's alone (``repro.sql.binder.bind``).
        self.bind_templates = PlanCache()

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def register(self, relation: Relation) -> Relation:
        if relation.name in self._tables:
            raise StorageError(f"table {relation.name!r} already exists")
        self._tables[relation.name] = relation
        self._epoch += 1  # a name now resolves to other rows
        return relation

    def drop(self, name: str) -> None:
        if name not in self._tables:
            raise StorageError(f"no table {name!r}")
        del self._tables[name]
        self._epoch += 1
        self._deltas.pop(name, None)
        for key in [k for k in self._decomposed if k[0] == name]:
            del self._decomposed[key]
            self._histograms.pop(key, None)
            self._decompose_args.pop(key, None)

    def replace_table(self, relation: Relation) -> Relation:
        """Swap in a rebuilt relation (the compaction commit step)."""
        if relation.name not in self._tables:
            raise StorageError(f"no table {relation.name!r}")
        self._tables[relation.name] = relation
        return relation

    def table(self, name: str) -> Relation:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[Relation]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Decompositions (the bwdecompose side-effect)
    # ------------------------------------------------------------------
    def bwdecompose(
        self,
        table: str,
        column: str,
        device_bits: int | None = None,
        *,
        residual_bits: int | None = None,
        prefix_compression: bool = True,
    ) -> BwdColumn:
        """Decompose ``table.column``; mirrors ``select bwdecompose(col, n)``.

        ``device_bits`` counts device-resident bits out of the column's
        declared storage width, exactly like the paper's user API.  Returns
        (and registers) the decomposed column; re-decomposing replaces the
        previous split.
        """
        rel = self.table(table)
        values = rel.values(column)
        typ = rel.type_of(column)
        if values.size == 0:
            raise DecompositionError(
                f"cannot decompose empty column {table}.{column}"
            )
        plan = plan_decomposition(
            values,
            device_bits=device_bits,
            residual_bits=residual_bits,
            storage_bits=typ.storage_bits,
            prefix_compression=prefix_compression,
        )
        bwd = BwdColumn.from_values(values, plan)
        self._decomposed[(table, column)] = bwd
        self._histograms.pop((table, column), None)  # stale under new split
        self._epoch += 1  # DDL invalidates epoch-keyed plan caches
        # Recorded (in call order) so compaction can replay the same DDL
        # over base+delta and land on the bulk-load decomposition.
        self._decompose_args.pop((table, column), None)
        self._decompose_args[(table, column)] = dict(
            device_bits=device_bits,
            residual_bits=residual_bits,
            prefix_compression=prefix_compression,
        )
        return bwd

    def register_decomposition(
        self, table: str, column: str, bwd: BwdColumn,
        *, histogram: "CodeHistogram | None" = None,
    ) -> BwdColumn:
        """Register an externally built decomposition for ``table.column``.

        The sharding layer decomposes each shard's rows under the *global*
        decomposition plan (so per-shard codes equal global codes at the
        shard's rows) and registers the result here, where the planner and
        executors expect to find it.  A histogram cached for the replaced
        column is stale and dropped; ``histogram`` installs the caller's
        ready one for ``bwd`` in its place (compaction carries it forward,
        :meth:`CodeHistogram.extended`).
        """
        self.table(table)  # fail fast on unknown tables
        key = (table, column)
        self._decomposed[key] = bwd
        self._histograms.pop(key, None)  # stale under new split
        if histogram is not None:
            self._histograms[key] = histogram
        return bwd

    def cached_histogram(self, table: str, column: str) -> "CodeHistogram | None":
        """The histogram :meth:`histogram_of` holds, if it was ever built."""
        return self._histograms.get((table, column))

    def histogram_of(self, table: str, column: str) -> "CodeHistogram":
        """Code histogram of a decomposed column, built lazily and cached.

        Feeds the cost-based predicate ordering (the paper's §III-A
        future-work extension).
        """
        from .histogram import CodeHistogram

        key = (table, column)
        if key not in self._histograms:
            bwd = self.decomposition_of(table, column)
            if bwd is None:
                raise StorageError(f"{table}.{column} is not decomposed")
            self._histograms[key] = CodeHistogram.build(bwd)
        return self._histograms[key]

    def decomposition_of(self, table: str, column: str) -> BwdColumn | None:
        """The registered decomposition, or ``None`` if the column is plain."""
        return self._decomposed.get((table, column))

    def is_decomposed(self, table: str, column: str) -> bool:
        return (table, column) in self._decomposed

    def decomposed_columns(self) -> Iterator[tuple[str, str, BwdColumn]]:
        for (table, column), bwd in self._decomposed.items():
            yield table, column, bwd

    # ------------------------------------------------------------------
    # Delta segments + epochs (PR 9 streaming ingestion)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Plan-validity epoch.

        Bumps on every successful compaction and on DDL (``register`` /
        ``drop`` of a table, ``bwdecompose`` replacing a column's split);
        appends do *not* bump it.  Plan caches key on it to invalidate naturally.
        """
        return self._epoch

    def bump_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def append(self, table: str, rows: Mapping[str, Iterable]) -> int:
        """Land rows in ``table``'s delta segment; returns rows appended.

        The base relation and every registered decomposition are untouched:
        queries union base + delta until :func:`repro.ingest.compact_table`
        folds the delta into freshly packed segments.
        """
        from ..ingest.delta import DeltaStore

        rel = self.table(table)
        store = self._deltas.get(table)
        if store is None:
            store = self._deltas[table] = DeltaStore(rel.schema)
        return store.append(rows)

    def delta_store(self, table: str) -> "DeltaStore | None":
        """The table's delta segment, or ``None`` if it never had appends."""
        self.table(table)  # fail fast on unknown tables
        return self._deltas.get(table)

    def delta_rows(self, table: str) -> int:
        store = self._deltas.get(table)
        return store.row_count if store is not None else 0

    def tables_with_delta(self) -> list[str]:
        return [t for t, s in self._deltas.items() if s.row_count > 0]

    def total_rows(self, table: str) -> int:
        """Base + delta row count (what a bulk-loaded twin would hold)."""
        return len(self.table(table)) + self.delta_rows(table)

    def decompose_args_for(self, table: str) -> list[tuple[str, dict]]:
        """Recorded ``bwdecompose`` calls of a table, in call order."""
        return [
            (column, dict(args))
            for (t, column), args in self._decompose_args.items()
            if t == table
        ]

    def device_footprint(self) -> int:
        """Total device-resident bytes across all decomposed columns."""
        return sum(b.approx_nbytes for b in self._decomposed.values())

    def host_residual_footprint(self) -> int:
        """Total host-resident residual bytes."""
        return sum(b.residual_nbytes for b in self._decomposed.values())
