"""Compaction: fold a table's delta into its packed base segments.

Compaction replays the table's recorded ``bwdecompose`` calls (argument-
for-argument, in call order) over base+delta, so the resulting relation and
decompositions are *exactly* what a bulk load of the same rows would have
produced — the append-then-compact byte-identity property.

Rows appended inside a column's domain change none of its existing codes:
when the replayed plan is the column's current
:class:`~repro.storage.decompose.Decomposition` again — decided from the
delta's minimum and maximum alone
(:meth:`~repro.storage.decompose.Decomposition.plan_change`) — the column
is **extended** (:meth:`~repro.storage.decompose.BwdColumn.extended`):
packed streams re-packed from their last period boundary, resident decoded
views, sort permutation and sorted codes carried by concatenation and a
stable merge, the catalog's code histogram carried by counting the new
rows.  That is the common path and costs the delta plus one copy of what is
carried.  A delta that moves the base or widens the codes re-codes every
row, so that column is **rebuilt** from the concatenated values as a bulk
load would.  Why a column was rebuilt is left on the session
(``last_compaction``), from where the scheduler puts it on its
``ingest.compact`` span.

Everything is built off to the side first (copy-then-swap; the old column
is never written to); the commit — swap relation, register decompositions,
clear delta, bump the catalog epoch — happens only after every column is
ready.  A crash before the commit (exercised via :data:`fail_hook`) leaves
the old epoch, the old base and a still-queryable delta behind.

Like the bulk load it replays, compaction bills nothing on the query
timeline — billing it would break the byte-identity of post-compaction
reads.  View caches of the new column go through the same segment-granular
view budget (:mod:`repro.storage.decompose`); columns of *other* tables and
other columns' resident segments are untouched.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..storage.decompose import BwdColumn, plan_decomposition
from ..storage.histogram import CodeHistogram
from ..storage.relation import Relation

#: Test seam: called with the table name after the rebuild completes but
#: before anything is committed.  Fault tests raise here to model a crash
#: mid-compaction; the catalog must come through unchanged.
fail_hook: Callable[[str], None] | None = None


def compact_table(session, table: str) -> int:
    """Fold ``table``'s delta into its base; returns rows compacted.

    No-op (returns 0, epoch unchanged) when the table has no pending
    delta rows.
    """
    catalog = session.catalog
    store = catalog.delta_store(table)
    if store is None or store.row_count == 0:
        return 0
    base = catalog.table(table)
    delta = store.arrays()
    data = {
        col: np.concatenate([base.values(col), delta[col]])
        for col in base.schema.names
    }
    new_rel = Relation.create(table, base.schema, data)

    # Replay the recorded DDL over the union — the bulk-load twin's path,
    # short-cut to an extension wherever the plan comes out unchanged
    # (the registered plan is tight: ``Catalog.decompose`` and this
    # function both plan from the rows the column holds).
    built: list[tuple[str, BwdColumn, CodeHistogram | None]] = []
    rebuilt: dict[str, str] = {}  # column -> why it could not be extended
    for column, args in catalog.decompose_args_for(table):
        old = catalog.decomposition_of(table, column)
        change = old.decomposition.plan_change(delta[column])
        if change is None:
            bwd = old.extended(delta[column])
            histogram = catalog.cached_histogram(table, column)
            if histogram is not None:
                histogram = histogram.extended(bwd)
            built.append((column, bwd, histogram))
            continue
        rebuilt[column] = f"plan changed: {change}"
        values = new_rel.values(column)
        plan = plan_decomposition(
            values,
            device_bits=args["device_bits"],
            residual_bits=args["residual_bits"],
            storage_bits=new_rel.type_of(column).storage_bits,
            prefix_compression=args["prefix_compression"],
        )
        built.append((column, BwdColumn.from_values(values, plan), None))

    if fail_hook is not None:
        fail_hook(table)  # crash seam: nothing has been committed yet

    # Commit: swap relation, re-place decompositions, drop delta, bump.
    n = store.row_count
    catalog.replace_table(new_rel)
    gpu = session.machine.gpu
    for column, bwd, histogram in built:
        old = catalog.decomposition_of(table, column)
        if gpu.is_resident(old):
            gpu.evict_column(old)
        catalog.register_decomposition(table, column, bwd, histogram=histogram)
        gpu.load_column(f"{table}.{column}", bwd, None)
    store.clear()
    catalog.bump_epoch()
    session.last_compaction = rebuilt
    return n
