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

import numpy as np

from ..errors import DataNotResident
from ..storage.bitpack import clip_code_range, packed_nbytes
from ..storage.decompose import BwdColumn
from ..util import unique_inverse
from .memory import MemoryPool
from .model import AccessPattern, DeviceSpec, GTX_680, OpClass
from .timeline import Timeline

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
    def scan_code_range(
        self,
        column: BwdColumn,
        lo_code: int,
        hi_code: int,
        timeline: Timeline,
        op: str = "select.approx",
        scramble: bool = False,
        precomputed_hits: np.ndarray | None = None,
    ) -> np.ndarray:
        """Relaxed selection scan: positions with code in ``[lo_code, hi_code]``.

        This is the approximation of a selection (paper §IV-B): a full
        sequential scan of the packed approximation stream, massively
        parallelized over tuples in the real system.  With ``scramble``
        enabled the output order is (deterministically) perturbed, modeling
        that a massively parallel selection "can only maintain the input
        order at additional costs, which we want to avoid" (§IV-A item 3).

        ``precomputed_hits`` lets a caller that already evaluated the same
        predicate by other means (the serve layer's shared cooperative
        pass) supply the ascending hit positions; the kernel then skips the
        NumPy scan but charges *exactly* what the scan would have — the
        hits are the same set, so the charge is byte-identical by
        construction (the charge-neutrality invariant).
        """
        self._require_resident(column)
        if precomputed_hits is None:
            # Fused zero-unpack scan: the predicate is evaluated directly
            # against the column's memoized code view — no per-query O(n)
            # materialization of the packed stream, and both bounds at
            # the view's own width, so each compare reads 1–2 B/row.
            codes = column.approx_codes()
            lo, hi = clip_code_range(lo_code, hi_code, codes.dtype)
            hits = np.flatnonzero((codes >= lo) & (codes <= hi))
        else:
            hits = precomputed_hits
        read = packed_nbytes(column.length, max(column.decomposition.approx_bits, 1))
        self._charge(
            timeline, op, read + hits.size * _OID_BYTES,
            tuples=column.length, op_class=OpClass.SCAN,
        )
        if scramble:
            hits = scrambled_like_parallel_scatter(hits)
        return hits

    def refine_positions_code_range(
        self,
        column: BwdColumn,
        positions: np.ndarray,
        lo_code: int,
        hi_code: int,
        timeline: Timeline,
        op: str = "select.approx.probe",
        precomputed_codes: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Secondary relaxed selection restricted to candidate ``positions``.

        Used for conjunctions: later predicates probe only surviving
        candidates (random access into the packed stream).  Returns the
        positional boolean keep-mask aligned with ``positions`` plus the
        gathered codes — callers narrow with the mask and reuse the codes
        instead of re-intersecting id arrays and re-gathering.

        ``precomputed_codes`` (the column's codes at ``positions``, from a
        caller that already holds them) skips the NumPy gather only; the
        charge is a function of ``positions.size`` and the keep count, as
        with :meth:`scan_code_range`'s ``precomputed_hits``.
        """
        self._require_resident(column)
        if precomputed_codes is None:
            codes = column.approx_at(positions)
        else:
            codes = precomputed_codes
        lo, hi = clip_code_range(lo_code, hi_code, codes.dtype)
        keep = (codes >= lo) & (codes <= hi)
        read = positions.size * _OID_BYTES
        self._charge(
            timeline, op, read + int(keep.sum()) * _OID_BYTES,
            AccessPattern.RANDOM, tuples=positions.size, op_class=OpClass.GATHER,
        )
        return keep, codes

    def gather_codes(
        self,
        column: BwdColumn,
        positions: np.ndarray,
        timeline: Timeline,
        op: str = "project.approx",
        precomputed_codes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Approximate projection: positional lookup of approximation codes.

        The invisible join of paper §IV-C, executed on the device.
        ``precomputed_codes`` (from a caller that already holds the codes
        at ``positions``) skips the NumPy gather only; the charge is a
        function of ``positions.size``.
        """
        self._require_resident(column)
        out = (
            column.approx_at(positions)
            if precomputed_codes is None else precomputed_codes
        )
        code_bytes = max(column.decomposition.approx_bits, 1) / 8.0
        nbytes = int(positions.size * (code_bytes + _OID_BYTES))
        self._charge(
            timeline, op, nbytes, AccessPattern.RANDOM,
            tuples=positions.size, op_class=OpClass.GATHER,
        )
        return out

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
        aligned to the input.  The conflict model charges extra time when
        few groups force many parallel writers onto the same table entries.
        """
        unique_codes, group_ids = unique_inverse(codes)
        n = codes.size
        groups = max(1, unique_codes.size)
        conflict_multiplier = 1.0 + _CONFLICT_SCALE / groups
        self._charge(
            timeline, op, n * (_OID_BYTES + _OID_BYTES),
            AccessPattern.RANDOM, multiplier=conflict_multiplier,
            tuples=n, op_class=OpClass.HASH,
        )
        return group_ids, unique_codes

    def minmax_candidates(
        self,
        codes: np.ndarray,
        certain_mask: np.ndarray | None,
        timeline: Timeline,
        *,
        find_min: bool,
        slack_codes: int = 0,
        op: str = "agg.minmax.approx",
    ) -> np.ndarray:
        """Candidate positions for an approximate min/max (paper §IV-F).

        The true extremum must survive the approximation, so every position
        whose code *could* beat the best *certainly-qualifying* code is kept:
        for a minimum, codes ≤ best_certain_code + slack; symmetrically for
        a maximum.  ``certain_mask`` marks rows that qualify regardless of
        their residual bits; ``slack_codes`` widens the cut by the
        propagated selection error (Fig 6's false-minimum hazard).
        """
        codes = np.asarray(codes, dtype=np.int64)
        if certain_mask is not None and bool(certain_mask.any()):
            certain_codes = codes[certain_mask]
            bound = int(certain_codes.min() if find_min else certain_codes.max())
            if find_min:
                keep = codes <= bound + slack_codes
            else:
                keep = codes >= bound - slack_codes
        else:
            keep = np.ones(codes.size, dtype=bool)
        out = np.flatnonzero(keep)
        self._charge(
            timeline, op, codes.size * _OID_BYTES + out.size * _OID_BYTES,
            tuples=codes.size, op_class=OpClass.AGG,
        )
        return out

    def elementwise(
        self,
        lhs_bytes: int,
        rhs_bytes: int,
        out_count: int,
        timeline: Timeline,
        op: str = "arith.approx",
    ) -> None:
        """Charge an elementwise arithmetic kernel (values computed by caller)."""
        self._charge(
            timeline, op, lhs_bytes + rhs_bytes + out_count * _OID_BYTES,
            tuples=out_count, op_class=OpClass.ARITH,
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
