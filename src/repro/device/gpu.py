"""The simulated GPU: massively-parallel kernels over packed approximations.

Every kernel computes its real result with NumPy and charges modeled seconds
to the query timeline, using the calibrated GTX 680 bandwidth figures.  The
kernels mirror the OpenCL operators the paper generates just-in-time
(§V-C): relaxed selection scans, positional gathers (projection), hash
pre-grouping, min/max candidate reductions and interval arithmetic.

Residency is enforced: a kernel refuses to touch a column that has not been
loaded into the (capacity-checked) device memory pool, surfacing the 2 GB
limit the paper designs around instead of silently reading host memory.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DataNotResident
from ..storage.bitpack import clip_code_range, code_range_mask, packed_nbytes
from ..storage.decompose import BwdColumn
from ..util import unique_inverse
from .memory import MemoryPool
from .model import AccessPattern, DeviceSpec, GTX_680, OpClass
from .timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.candidates import CarvedHits

#: Bytes per materialized candidate id / group id in device memory.
_OID_BYTES = 8

#: Hash-grouping write-conflict model: massively parallel scattered writes
#: into a shared table contend more when there are fewer groups (paper
#: §VI-B: "performance improves with the number of groups due to fewer
#: write conflicts on the grouping table").
_CONFLICT_SCALE = 96.0

#: Workgroup width of the simulated scatter; determines the deterministic
#: output perturbation of non-order-preserving kernels.
_SCATTER_LANES = 61

#: Rows per block of the selection kernel.  A multiple of 64, so a block
#: starts on a word boundary of every packed stream (a column without a
#: decoded view is decoded block by block); its codes and masks stay
#: cache-resident (measured: PERFORMANCE.md, "engine/core — conjunction
#: kernel").
_SELECT_BLOCK_ROWS = 1 << 16

#: Surviving share of a block at or below which the remaining conjuncts
#: gather at the survivors instead of comparing the whole block (same
#: section of PERFORMANCE.md).
_SPARSE_SHARE = 1 / 8


def _clipped(conjuncts) -> list[tuple[np.integer, np.integer]]:
    """Each conjunct's code range as scalars of its column's code dtype."""
    return [
        clip_code_range(lo, hi, column.decomposition.approx_dtype)
        for column, _, lo, hi in conjuncts
    ]


def _scattered(ids: np.ndarray, rank: np.ndarray | None) -> np.ndarray:
    """The order :func:`scrambled_like_parallel_scatter` of a scan's hits
    leaves the rows ``ids`` in, once its probes have narrowed them.

    ``rank`` is each row's ascending rank among the hits (``None``: every
    hit survived): lane-major means ordered by ``(rank % lanes, rank //
    lanes)``, which a stable sort on the lane alone gives.
    """
    if rank is None:
        return scrambled_like_parallel_scatter(ids)
    lanes = (rank % _SCATTER_LANES).astype(np.uint8)
    return ids[np.argsort(lanes, kind="stable")]


def scrambled_like_parallel_scatter(positions: np.ndarray) -> np.ndarray:
    """Deterministically perturb output order like a parallel scatter would.

    Emulates unordered workgroup completion: results are emitted lane-major
    instead of row-major.  The permutation is deterministic (reproducible
    runs) yet non-monotonic for any output longer than one lane, which
    forces downstream refinement to use translucent rather than invisible
    joins — exactly the situation Algorithm 1 exists for.
    """
    n = positions.size
    if n <= 1:
        return positions
    # Stable argsort of ``arange(n) % lanes`` enumerates each lane's rows in
    # order — which is one strided slice of the input per lane: O(n), and
    # no index array to build and gather through.
    return np.concatenate(
        [positions[lane::_SCATTER_LANES] for lane in range(min(_SCATTER_LANES, n))]
    )


class SimulatedGPU:
    """GTX 680-calibrated kernel executor with memory accounting."""

    def __init__(
        self,
        spec: DeviceSpec = GTX_680,
        *,
        processing_reserve_fraction: float = 0.1,
    ) -> None:
        if not 0.0 <= processing_reserve_fraction < 1.0:
            raise ValueError("reserve fraction must be in [0, 1)")
        self.spec = spec
        self.pool = MemoryPool(spec.name, spec.memory_capacity)
        self._resident: dict[int, str] = {}
        if spec.memory_capacity is not None and processing_reserve_fraction > 0:
            reserve = int(spec.memory_capacity * processing_reserve_fraction)
            self.pool.allocate("(processing reserve)", reserve)

    # ------------------------------------------------------------------
    # Residency management
    # ------------------------------------------------------------------
    def load_column(
        self, label: str, column: BwdColumn, timeline: Timeline | None = None
    ) -> None:
        """Place a column's approximation stream into device memory.

        Charges a one-time PCI-style upload onto ``timeline`` when given
        (phase ``"load"``); persistent data is loaded once, not per query.
        """
        self.pool.allocate(label, column.approx_nbytes)
        self._resident[id(column)] = label
        if timeline is not None:
            seconds = column.approx_nbytes / 3.95e9
            timeline.record(
                self.spec.name, "bus", f"load:{label}", column.approx_nbytes,
                seconds, phase="load",
            )

    def evict_column(self, column: BwdColumn) -> None:
        label = self._resident.pop(id(column), None)
        if label is None:
            raise DataNotResident(f"{self.spec.name}: column not resident")
        self.pool.free(label)

    def is_resident(self, column: BwdColumn) -> bool:
        return id(column) in self._resident

    def _require_resident(self, column: BwdColumn) -> None:
        if id(column) not in self._resident:
            raise DataNotResident(
                f"{self.spec.name}: approximation not loaded; call load_column first"
            )

    # ------------------------------------------------------------------
    # Cost accounting helper
    # ------------------------------------------------------------------
    def _charge(
        self,
        timeline: Timeline,
        op: str,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        phase: str = "approximate",
        multiplier: float = 1.0,
        tuples: int = 0,
        op_class: OpClass = OpClass.SCAN,
    ) -> None:
        seconds = self.spec.transfer_seconds(nbytes, pattern)
        seconds += self.spec.tuple_seconds(op_class, tuples)
        seconds *= multiplier
        timeline.record(self.spec.name, "gpu", op, nbytes, seconds, phase)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def select_code_ranges(
        self,
        conjuncts: Sequence[tuple[BwdColumn, str, int, int]],
        timeline: Timeline,
        *,
        positions: np.ndarray | None = None,
        precomputed_hits: CarvedHits | None = None,
        scramble: bool = False,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Relaxed selection of a conjunction of ``(column, label, lo_code,
        hi_code)`` code ranges, as one pass (paper §IV-B).

        Without ``positions`` the first conjunct is the approximation of a
        selection — a sequential scan of its packed stream, billed as
        ``select.approx(label)`` — and the others probe its survivors
        (``select.approx.probe(label)``, random access).  The pass runs in
        blocks of :data:`_SELECT_BLOCK_ROWS`: a conjunct is one unsigned
        compare over the block while more than :data:`_SPARSE_SHARE` of it
        survives, and a gather at the survivors once fewer do.  With
        ``scramble`` the output order is that of a lane-major parallel
        scatter of the scan's hits ("can only maintain the input order at
        additional costs, which we want to avoid", §IV-A item 3) narrowed
        by the probes.  Ranks among the hits exist only for that scatter:
        without ``scramble`` the scan forms none and returns its survivors
        ascending.  ``precomputed_hits`` are the first conjunct's hits as a
        caller already carved them out of its sorted-code view (the serve
        layer's shared cooperative pass); only the NumPy scan is skipped.

        With ``positions`` every conjunct is a probe continuing from those
        candidates, in their order.

        Every conjunct bills what it would alone — the scan its stream plus
        its hits, a probe the ids it read plus those it kept — from counts,
        so the ledger cannot depend on how a block was evaluated.  Returns
        the surviving ids and, under ``positions``, their ascending indices
        into it (``None`` for a scan).
        """
        for column, *_ in conjuncts:
            self._require_resident(column)
        #: ids read / ids kept per conjunct, summed over blocks
        read, kept = [0] * len(conjuncts), [0] * len(conjuncts)
        index = None
        if positions is not None:
            index = self._probe_at(
                conjuncts, _clipped(conjuncts), 0, positions, read, kept
            )
            ids = positions[index]
        else:
            if precomputed_hits is None:
                ids, rank = self._select_blocks(
                    conjuncts, _clipped(conjuncts), read, kept, ranked=scramble
                )
            elif len(conjuncts) == 1:
                return self.select_carved(
                    conjuncts[0], timeline, precomputed_hits, scramble=scramble
                )(), None
            else:
                ids = precomputed_hits.ascending()
                kept[0] = ids.size
                rank = self._probe_at(
                    conjuncts, _clipped(conjuncts), 1, ids, read, kept
                )
                ids = ids[rank]
            if scramble:
                ids = _scattered(ids, rank)
        for k, (column, label, _, _) in enumerate(conjuncts):
            if k == 0 and positions is None:
                self._charge_scan(timeline, column, label, kept[0])
            else:
                self._charge(
                    timeline, f"select.approx.probe({label})",
                    (read[k] + kept[k]) * _OID_BYTES, AccessPattern.RANDOM,
                    tuples=read[k], op_class=OpClass.GATHER,
                )
        return ids, index

    def select_carved(
        self,
        conjunct: tuple[BwdColumn, str, int, int],
        timeline: Timeline,
        hits: CarvedHits,
        *,
        scramble: bool = False,
    ) -> Callable[[], np.ndarray]:
        """A lone relaxed scan whose hits are already carved: billed here,
        from their count, exactly as :meth:`select_code_ranges` bills it.

        Returns the thunk forming the ids that method returns — the hits
        ascending, lane-major scattered under ``scramble`` — so a caller
        that only counts candidates never sorts them.
        """
        column, label, _, _ = conjunct
        self._require_resident(column)
        self._charge_scan(timeline, column, label, hits.size)
        if not scramble:
            return hits.ascending
        return lambda: scrambled_like_parallel_scatter(hits.ascending())

    def _charge_scan(
        self, timeline: Timeline, column: BwdColumn, label: str, hits: int
    ) -> None:
        """A relaxed scan's bill: its packed stream in, its hits' ids out."""
        self._charge(
            timeline, f"select.approx({label})",
            column.approx_nbytes + hits * _OID_BYTES,
            tuples=column.length, op_class=OpClass.SCAN,
        )

    @staticmethod
    def _probe_at(conjuncts, bounds, first, positions, read, kept) -> np.ndarray:
        """Conjuncts ``first:`` tested at ``positions`` only, each at the
        survivors of the one before: the ascending indices into
        ``positions`` of the rows passing all of them."""
        index = np.arange(positions.size)
        for k in range(first, len(conjuncts)):
            codes = conjuncts[k][0].approx_at(positions)
            keep = np.flatnonzero(code_range_mask(codes, *bounds[k]))
            read[k] += positions.size
            kept[k] += keep.size
            positions, index = positions[keep], index[keep]
        return index

    @staticmethod
    def _select_blocks(conjuncts, bounds, read, kept, ranked):
        """The scan entry: ``(ascending survivors, their ranks among the
        first conjunct's hits)``.  Ranks exist only for the scatter: they
        are ``None`` unless ``ranked``, and for a lone conjunct, whose
        survivors are its hits."""
        lead = conjuncts[0][0]
        n = lead.length
        if any(column.length != n for column, *_ in conjuncts):
            raise ValueError("conjunct columns differ in length")
        # The scanned column's view is built and kept, as a scan always
        # did; a probed column is read through its view only if it has one.
        scanned = lead.approx_codes()
        if len(conjuncts) == 1:  # nothing to fuse: one compare, one pass
            ids = np.flatnonzero(code_range_mask(scanned, *bounds[0]))
            kept[0] = ids.size
            return ids, None

        def passing(k: int, start: int, stop: int) -> np.ndarray:
            column = conjuncts[k][0]
            codes = (
                scanned[start:stop] if column is lead
                else column.approx_block(start, stop)
            )
            return code_range_mask(codes, *bounds[k])

        ids, ranks = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for start in range(0, n, _SELECT_BLOCK_ROWS):
            stop = min(start + _SELECT_BLOCK_ROWS, n)
            mask = hits = passing(0, start, stop)
            alive = n_hits = int(np.count_nonzero(hits))
            k = 1
            while k < len(conjuncts) and alive > (stop - start) * _SPARSE_SHARE:
                mask = mask & passing(k, start, stop)
                read[k] += alive
                alive = int(np.count_nonzero(mask))
                kept[k] += alive
                k += 1
            if alive:
                local, index = np.flatnonzero(mask), slice(None)
                if k < len(conjuncts):
                    index = SimulatedGPU._probe_at(
                        conjuncts, bounds, k, local + start, read, kept
                    )
                    local = local[index]
                ids.append(local + start)
                if ranked:
                    # Rank among the block's hits — a survivor's index into
                    # them — behind the hits of the blocks before.
                    rank = (
                        np.arange(kept[0], kept[0] + alive) if mask is hits
                        else np.flatnonzero(mask[np.flatnonzero(hits)]) + kept[0]
                    )
                    ranks.append(rank[index])
            kept[0] += n_hits
        return np.concatenate(ids), np.concatenate(ranks) if ranked else None

    def gather_codes(
        self,
        column: BwdColumn,
        positions: np.ndarray,
        timeline: Timeline,
        op: str = "project.approx",
    ) -> np.ndarray:
        """Approximate projection: positional lookup of approximation codes.

        The invisible join of paper §IV-C, executed on the device.
        """
        out = self.codes_at(column, positions)
        self.charge_gather(column, positions.size, timeline, op)
        return out

    def codes_at(self, column: BwdColumn, positions: np.ndarray) -> np.ndarray:
        """:meth:`gather_codes` unbilled, for codes a bill paid for earlier."""
        self._require_resident(column)
        return column.approx_at(positions)

    def charge_gather(
        self, column: BwdColumn, count: int, timeline: Timeline, op: str
    ) -> None:
        """The bill of :meth:`gather_codes` at ``count`` positions, for a
        caller that holds the codes or gathers them when read (:meth:`codes_at`)."""
        self._require_resident(column)
        code_bytes = max(column.decomposition.approx_bits, 1) / 8.0
        self._charge(
            timeline, op, int(count * (code_bytes + _OID_BYTES)),
            AccessPattern.RANDOM, tuples=count, op_class=OpClass.GATHER,
        )

    def full_scan_codes(
        self,
        column: BwdColumn,
        timeline: Timeline,
        op: str = "scan.approx",
    ) -> np.ndarray:
        """Sequential unpack of the whole approximation stream."""
        self._require_resident(column)
        out = column.approx_codes()
        read = packed_nbytes(column.length, max(column.decomposition.approx_bits, 1))
        self._charge(timeline, op, read, tuples=column.length, op_class=OpClass.SCAN)
        return out

    def hash_group(
        self,
        codes: np.ndarray,
        timeline: Timeline,
        op: str = "group.approx",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hash-based pre-grouping of approximate values (paper §IV-E).

        Returns ``(group_ids, unique_codes)`` with group ids positionally
        aligned to the input.
        """
        unique_codes, group_ids = unique_inverse(codes)
        self.charge_hash_group(codes.size, unique_codes.size, timeline, op)
        return group_ids, unique_codes

    def charge_hash_group(
        self, n: int, groups: int, timeline: Timeline, op: str
    ) -> None:
        """The bill of :meth:`hash_group` over ``n`` rows falling into
        ``groups`` groups.  The conflict model charges extra time when few
        groups force many parallel writers onto the same table entries."""
        conflict_multiplier = 1.0 + _CONFLICT_SCALE / max(1, groups)
        self._charge(
            timeline, op, n * (_OID_BYTES + _OID_BYTES),
            AccessPattern.RANDOM, multiplier=conflict_multiplier,
            tuples=n, op_class=OpClass.HASH,
        )

    def reduce(
        self,
        n: int,
        timeline: Timeline,
        op: str = "agg.reduce.approx",
        value_bytes: int = 8,
    ) -> None:
        """Charge a parallel reduction over ``n`` values."""
        self._charge(timeline, op, n * value_bytes, tuples=n, op_class=OpClass.AGG)
