"""The sharded catalog: N per-shard catalogs under one global namespace.

Each shard owns a full simulated machine (its own device pool and cost
model — the "N devices" of the scale-out story) and a :class:`Catalog`
holding its slice of every partitioned relation.  A *replicated* table
(``partition=False``) registers the same relation object in every shard —
the placement required of a theta join's right side, which every fragment
probes in full.

Partitioning starts round-robin at load time.  When the first column of a
partitioned table is decomposed, the table is **repartitioned by code
range** using the global decomposition's sorted-code quantiles (the same
free metadata the cost-based predicate ordering reads): shard *s* holds
the rows whose approximation codes fall in its contiguous code band.  That
is what gives fragment pruning its teeth — a selection's relaxed code
range misses every shard but the ones its band overlaps, and those
fragments are skipped wholesale, no charges billed.

Per-shard decompositions are built from the shard's values under the
**global** decomposition plan, so a shard row's code equals its global
code and per-shard relaxed candidate sets partition the single-device
candidate set exactly — the alignment behind the merged-result
byte-identity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..device.machine import Machine
from ..errors import PlanError, ReproError, StorageError
from ..storage.catalog import Catalog
from ..storage.column import ColumnType
from ..storage.decompose import BwdColumn
from ..storage.relation import Relation, Schema


def _band_of(cuts: list[int], codes: np.ndarray) -> np.ndarray:
    """Band (shard) of each code: the number of cut points strictly below it.

    The cuts are codes themselves and are searched at the codes' dtype — a
    key of any other dtype promotes, i.e. copies, the whole needle array.
    """
    key = np.asarray(cuts, dtype=codes.dtype)
    return np.searchsorted(key, codes, side="left")


@dataclass(frozen=True)
class ShardStats:
    """Pruning facts of one shard's slice of a decomposed column."""

    code_lo: int
    code_hi: int
    value_lo: int
    value_hi: int


class Shard:
    """One simulated device: its catalog, machine and executors."""

    def __init__(self, index: int, machine: Machine) -> None:
        self.index = index
        self.machine = machine
        self.catalog = Catalog()
        # Executors are built lazily (they only need catalog + machine).
        from ..engine.ar_executor import ArExecutor
        from ..engine.bulk import ClassicExecutor

        self.ar = ArExecutor(self.catalog, self.machine)
        self.classic = ClassicExecutor(self.catalog, self.machine.cpu)

    def __repr__(self) -> str:
        return f"Shard({self.index}, tables={len(list(self.catalog.tables()))})"


class ShardedCatalog:
    """One logical catalog, physically split across ``n_shards`` machines."""

    def __init__(
        self,
        n_shards: int,
        *,
        machine_factory=Machine.paper_testbed,
    ) -> None:
        if n_shards < 1:
            raise PlanError("n_shards must be at least 1")
        self.n_shards = n_shards
        #: Planning-only view: full tables and the global decompositions.
        #: Nothing registered here is ever loaded onto a device.
        self.global_catalog = Catalog()
        self.shards = [Shard(i, machine_factory()) for i in range(n_shards)]
        #: Bills the explicit merge/ship step (the gather of fragment
        #: outputs) — the one machine every fragment's result lands on.
        self.coordinator = machine_factory()
        #: table -> per-shard ascending global row ids (partitioned only).
        self.row_maps: dict[str, list[np.ndarray]] = {}
        self.replicated: set[str] = set()
        #: (table, column) -> per-shard ShardStats (None = empty shard).
        self._stats: dict[tuple[str, str], list[ShardStats | None]] = {}
        #: table -> column the range partition follows (set on first
        #: decomposition of a partitioned table).
        self.partition_columns: dict[str, str] = {}
        #: table -> the code-band cut points behind ``row_maps`` (absent
        #: when the table kept its round-robin layout).  Appends route by
        #: these bands (PR 9).
        self.band_cuts: dict[str, list[int]] = {}
        #: table -> per-shard routed delta segments (observability: the
        #: union view every query evaluates lives on ``global_catalog``).
        self.shard_deltas: dict[str, list] = {}
        #: table -> the coordinator's catch-all delta (rows that cannot be
        #: banded: un-encodable under the recorded global plan, or the
        #: table has no band layout).  Rebalanced away at compaction.
        self.spill_deltas: dict[str, object] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema | Mapping[str, ColumnType],
        data: Mapping[str, Iterable],
        *,
        partition: bool = True,
    ) -> Relation:
        """Create a table on every shard.

        ``partition=True`` splits the rows round-robin (rebalanced to code
        ranges at first decomposition); ``partition=False`` replicates the
        same relation object on every shard — required for theta-join
        right sides, which every fragment probes in full.
        """
        if not isinstance(schema, Schema):
            schema = Schema.of(schema)
        relation = self.global_catalog.register(
            Relation.create(name, schema, data)
        )
        if not partition:
            self.replicated.add(name)
            for shard in self.shards:
                shard.catalog._tables[name] = relation
            return relation
        n = len(relation)
        maps = [
            np.arange(i, n, self.n_shards, dtype=np.int64)
            for i in range(self.n_shards)
        ]
        self.row_maps[name] = maps
        self._build_shard_relations(relation, maps)
        return relation

    def drop(self, table: str) -> None:
        """Drop ``table`` everywhere it lives.

        Every shard evicts its resident approximations of the table — a
        table created again under the name loads its own under the same
        labels — and forgets it; then the global catalog does (bumping the
        epoch), and so does every partitioning record kept for it.
        """
        self.global_catalog.table(table)  # refuse an unknown table up front
        for shard in self.shards:
            gpu = shard.machine.gpu
            for name, _, bwd in shard.catalog.decomposed_columns():
                if name == table and gpu.is_resident(bwd):
                    gpu.evict_column(bwd)
            shard.catalog.drop(table)
        self.global_catalog.drop(table)
        self.replicated.discard(table)
        for registry in (
            self.row_maps, self.partition_columns, self.band_cuts,
            self.shard_deltas, self.spill_deltas,
        ):
            registry.pop(table, None)
        for key in [k for k in self._stats if k[0] == table]:
            del self._stats[key]

    def _build_shard_relations(
        self, relation: Relation, maps: list[np.ndarray]
    ) -> None:
        """(Re)register each shard's slice of a partitioned relation."""
        columns = list(relation.schema.names)
        values = {c: relation.values(c) for c in columns}
        for shard, rows in zip(self.shards, maps):
            sliced = {c: values[c][rows] for c in columns}
            shard.catalog._tables[relation.name] = Relation.create(
                relation.name, relation.schema, sliced
            )

    # ------------------------------------------------------------------
    # Decomposition
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
        """Decompose ``table.column`` globally and on every shard.

        The global catalog plans the decomposition over the full column;
        each shard then encodes its slice under that *same* plan (codes
        align with the global run) and loads the result into its own
        device pool.  The first decomposition of a partitioned table
        triggers the range repartition.
        """
        global_bwd = self.global_catalog.bwdecompose(
            table, column, device_bits,
            residual_bits=residual_bits,
            prefix_compression=prefix_compression,
        )
        relation = self.global_catalog.table(table)
        partitioned = table in self.row_maps
        if partitioned and table not in self.partition_columns:
            self._repartition_by_code(table, column, global_bwd)
            self.partition_columns[table] = column
        plan = global_bwd.decomposition
        stats: list[ShardStats | None] = []
        if partitioned:
            values = relation.values(column)
            for shard, rows in zip(self.shards, self.row_maps[table]):
                shard_values = values[rows]
                previous = shard.catalog.decomposition_of(table, column)
                if previous is not None and shard.machine.gpu.is_resident(
                    previous
                ):
                    shard.machine.gpu.evict_column(previous)
                if shard_values.size == 0:
                    shard.catalog._decomposed.pop((table, column), None)
                    stats.append(None)
                    continue
                bwd = BwdColumn.from_values(shard_values, plan)
                shard.catalog.register_decomposition(table, column, bwd)
                shard.machine.gpu.load_column(f"{table}.{column}", bwd, None)
                codes = bwd.approx_codes()
                stats.append(ShardStats(
                    int(codes.min()), int(codes.max()),
                    int(shard_values.min()), int(shard_values.max()),
                ))
        elif table in self.replicated:
            # One shared decomposition object; every shard loads it (each
            # pool pays its own copy — replication is not free).
            for shard in self.shards:
                previous = shard.catalog.decomposition_of(table, column)
                if previous is not None and shard.machine.gpu.is_resident(
                    previous
                ):
                    shard.machine.gpu.evict_column(previous)
                shard.catalog.register_decomposition(table, column, global_bwd)
                shard.machine.gpu.load_column(
                    f"{table}.{column}", global_bwd, None
                )
            codes = global_bwd.approx_codes()
            values = relation.values(column)
            shared = ShardStats(
                int(codes.min()), int(codes.max()),
                int(values.min()), int(values.max()),
            )
            stats = [shared] * self.n_shards
        else:
            raise StorageError(f"no table {table!r}")
        self._stats[(table, column)] = stats
        return global_bwd

    def _repartition_by_code(
        self, table: str, column: str, global_bwd: BwdColumn
    ) -> None:
        """Rebalance a partitioned table into contiguous code bands.

        Cut points are the sorted-code quantiles of the global
        decomposition (free metadata, like the histograms the cost-based
        ordering uses).  Falls back to the round-robin layout when the
        quantiles collapse (one code dominating the column).
        """
        codes = global_bwd.approx_codes()
        sorted_codes = global_bwd.sorted_approx_codes()
        n = len(codes)
        cuts = [
            int(sorted_codes[(n * s) // self.n_shards])
            for s in range(1, self.n_shards)
        ]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            self.band_cuts.pop(table, None)
            return  # degenerate quantiles: keep round-robin
        self.band_cuts[table] = cuts
        # shard(c) = number of cut points strictly below c — rows whose
        # code equals a cut stay in the lower shard, keeping bands
        # contiguous: shard s holds codes in (cuts[s-1], cuts[s]].
        assignment = _band_of(cuts, codes)
        maps = [
            np.flatnonzero(assignment == s).astype(np.int64)
            for s in range(self.n_shards)
        ]
        self.row_maps[table] = maps
        self._build_shard_relations(self.global_catalog.table(table), maps)

    # ------------------------------------------------------------------
    # Streaming ingestion (PR 9)
    # ------------------------------------------------------------------
    def append(self, table: str, rows: Mapping[str, Iterable]) -> int:
        """Land rows in the global delta and route them to owning shards.

        The global catalog's delta store is the union view every query
        evaluates (arrival order — what compaction rebuilds from).  On top
        of that, each row is routed to the shard whose code band owns it:
        the partition column's values are encoded under the *recorded*
        global decomposition plan and banded through the same cut points
        the repartition used.  Rows that cannot be banded — no band layout,
        or values un-encodable under the recorded plan — spill to the
        coordinator's catch-all segment, which compaction rebalances away.
        Returns the number of rows appended.
        """
        n = self.global_catalog.append(table, rows)
        if n == 0:
            return 0
        store = self.global_catalog.delta_store(table)
        arrays = store.arrays()
        batch = {col: arr[-n:] for col, arr in arrays.items()}
        codes = self._band_codes(table, batch)
        if codes is None:
            self._spill_store(table).append(batch)
            return n
        assignment = _band_of(self.band_cuts[table], codes)
        stores = self._shard_stores(table)
        for s, shard_store in enumerate(stores):
            idx = np.flatnonzero(assignment == s)
            if idx.size:
                shard_store.append({c: batch[c][idx] for c in batch})
        return n

    def _band_codes(self, table: str, batch: Mapping) -> np.ndarray | None:
        """Approximation codes of a batch's partition values, or None when
        the batch cannot be banded (catch-all spill)."""
        column = self.partition_columns.get(table)
        if column is None or table not in self.band_cuts:
            return None
        bwd = self.global_catalog.decomposition_of(table, column)
        if bwd is None:
            return None
        try:
            encoded = BwdColumn.from_values(batch[column], bwd.decomposition)
        except (ValueError, OverflowError, ReproError):
            return None  # un-encodable under the recorded plan: spill
        return encoded.approx_codes()

    def _shard_stores(self, table: str) -> list:
        from ..ingest.delta import DeltaStore

        stores = self.shard_deltas.get(table)
        if stores is None:
            schema = self.global_catalog.table(table).schema
            stores = [DeltaStore(schema) for _ in self.shards]
            self.shard_deltas[table] = stores
        return stores

    def _spill_store(self, table: str):
        from ..ingest.delta import DeltaStore

        store = self.spill_deltas.get(table)
        if store is None:
            store = DeltaStore(self.global_catalog.table(table).schema)
            self.spill_deltas[table] = store
        return store

    def clear_routed_delta(self, table: str) -> None:
        """Drop the per-shard and spill copies (compaction commit step)."""
        for store in self.shard_deltas.get(table, []):
            store.clear()
        spill = self.spill_deltas.get(table)
        if spill is not None:
            spill.clear()

    def shard_delta_rows(self, table: str) -> list[int]:
        """Routed delta rows per shard (excludes the catch-all spill)."""
        stores = self.shard_deltas.get(table)
        if stores is None:
            return [0] * self.n_shards
        return [store.row_count for store in stores]

    def spill_delta_rows(self, table: str) -> int:
        store = self.spill_deltas.get(table)
        return 0 if store is None else store.row_count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table(self, name: str) -> Relation:
        """The *global* relation (full rows) — metadata and merges."""
        return self.global_catalog.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self.global_catalog

    def is_partitioned(self, name: str) -> bool:
        return name in self.row_maps

    def shard_stats(
        self, table: str, column: str
    ) -> list[ShardStats | None] | None:
        return self._stats.get((table, column))

    def shard_rows(self, table: str) -> list[int]:
        """Per-shard row counts of a partitioned (or replicated) table."""
        if table in self.row_maps:
            return [len(rows) for rows in self.row_maps[table]]
        n = len(self.global_catalog.table(table))
        return [n] * self.n_shards

    def device_footprint(self) -> int:
        """Device bytes across every shard's resident decompositions."""
        return sum(s.catalog.device_footprint() for s in self.shards)
