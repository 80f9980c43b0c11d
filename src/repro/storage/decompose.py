"""Bitwise decomposition & distribution (BWD) — paper §II-A.

A column of (storage-)integers is split at bit granularity:

* a global *prefix compression* base (the minimum value) is subtracted,
  removing the shared leading bits ("leading zeros are removed"),
* the offset codes are cut into *major* bits — the **approximation**, kept in
  fast device memory — and *minor* bits — the **residual**, kept in slow
  host memory.

``approx_code = (v - base) >> residual_bits`` and
``residual = (v - base) & (2**residual_bits - 1)``; bitwise concatenation
(paper Algorithm 2's ``+bw``) reconstructs the exact value.

The *resolution* (number of approximation bits) determines both the device
memory footprint and the approximation error: an approximation code covers a
bucket of ``2**residual_bits`` consecutive values.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import DecompositionError
from ..util import bits_for_range, mask
from .bitpack import (
    append_codes,
    code_dtype,
    gather_codes,
    pack_codes,
    packed_nbytes,
    unpack_codes,
    unpack_codes_range,
)


@dataclass(frozen=True)
class Decomposition:
    """The shape of one column's bitwise split.

    Attributes
    ----------
    base:
        Prefix-compression base (frame of reference); the column minimum.
    total_bits:
        Effective code width after base removal (leading zeros dropped).
    residual_bits:
        Minor bits kept on the host.  ``0`` means the column is entirely
        device-resident at full precision.
    storage_bits:
        The declared storage width the user's ``bwdecompose(col, n)`` call
        referred to (e.g. 32 for an ``int`` column).
    """

    base: int
    total_bits: int
    residual_bits: int
    storage_bits: int = 32

    def __post_init__(self) -> None:
        if self.total_bits < 1 or self.total_bits > 64:
            raise DecompositionError(
                f"total_bits must be 1..64, got {self.total_bits}"
            )
        if not 0 <= self.residual_bits <= self.total_bits:
            raise DecompositionError(
                f"residual_bits must be 0..total_bits, got {self.residual_bits}"
            )

    @property
    def approx_bits(self) -> int:
        """Resolution of the approximation (major bits)."""
        return self.total_bits - self.residual_bits

    @property
    def bucket(self) -> int:
        """Values per approximation code: ``2**residual_bits``."""
        return 1 << self.residual_bits

    @property
    def max_code(self) -> int:
        """Largest representable approximation code."""
        if self.approx_bits == 0:
            return 0
        return mask(self.approx_bits)

    @property
    def max_error(self) -> int:
        """Worst-case gap between a value and its approximation."""
        return self.bucket - 1

    # ------------------------------------------------------------------
    # Scalar/array code conversions (the heart of predicate relaxation)
    # ------------------------------------------------------------------
    def approx_code_of(self, value: int) -> int:
        """Approximation code of an arbitrary in-domain value (floor)."""
        return (int(value) - self.base) >> self.residual_bits

    def value_floor(self, code: int) -> int:
        """Smallest exact value covered by approximation ``code``."""
        return self.base + (int(code) << self.residual_bits)

    def value_ceil(self, code: int) -> int:
        """Largest exact value covered by approximation ``code``."""
        return self.value_floor(code) + self.max_error

    def plan_change(self, values: np.ndarray) -> str | None:
        """Which side of this domain ``values`` leave, if any.

        ``"base"`` when a value falls below the base, ``"width"`` when one
        needs more than ``total_bits`` above it, ``None`` when every value
        has a code here (:meth:`split` accepts exactly those) — decided
        from the minimum and maximum of ``values`` alone.

        For the decomposition :func:`plan_decomposition` chose for a
        column's current rows (``base`` their minimum, ``total_bits``
        tight — what :meth:`Catalog.decompose` and compaction register)
        this is also what appending ``values`` would change in the plan:
        replayed under the same arguments over the rows followed by
        ``values``, it comes out as this decomposition again exactly on
        ``None``.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.size == 0:
            return None
        if int(values.min()) < self.base:
            return "base"
        if bits_for_range(int(values.max()) - self.base) > self.total_bits:
            return "width"
        return None

    @property
    def approx_dtype(self) -> np.dtype:
        """Dtype of approximation codes: the narrowest that holds them."""
        return code_dtype(max(self.approx_bits, 1))

    @property
    def residual_dtype(self) -> np.dtype:
        """Dtype of residuals: the narrowest that holds them."""
        return code_dtype(max(self.residual_bits, 1))

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized value → (approx_code, residual), each at code width."""
        values = np.asarray(values, dtype=np.int64)
        if self.plan_change(values) is not None:
            raise DecompositionError("value outside the decomposition's domain")
        offsets = values - self.base
        approx = (offsets >> self.residual_bits).astype(self.approx_dtype)
        # The narrowing cast keeps the low bits; mask what is left of them.
        residual = offsets.astype(self.residual_dtype)
        residual &= residual.dtype.type(mask(self.residual_bits))
        return approx, residual

    def combine(self, approx: np.ndarray, residual: np.ndarray | None) -> np.ndarray:
        """Bitwise concatenation ``approx +bw residual`` back to exact values."""
        approx = np.asarray(approx, dtype=np.int64)
        out = approx << self.residual_bits
        if self.residual_bits:
            if residual is None:
                raise DecompositionError("residual required to reconstruct values")
            out = out | np.asarray(residual, dtype=np.int64)
        return out + self.base

    def approx_lower_bounds(self, approx: np.ndarray) -> np.ndarray:
        """Per-row smallest exact value compatible with each approx code.

        The codes are widened once, into the result; shift and base are
        applied there in place, and skipped when they are zero.
        """
        out = np.array(approx, dtype=np.int64)
        if self.residual_bits:
            out <<= self.residual_bits
        if self.base:
            out += self.base
        return out

    def approx_upper_bounds(self, approx: np.ndarray) -> np.ndarray:
        """Per-row largest exact value compatible with each approx code."""
        return self.approx_lower_bounds(approx) + self.max_error


def plan_decomposition(
    values: np.ndarray,
    *,
    device_bits: int | None = None,
    residual_bits: int | None = None,
    storage_bits: int = 32,
    prefix_compression: bool = True,
) -> Decomposition:
    """Choose a :class:`Decomposition` for concrete column data.

    ``device_bits`` follows the paper's user API: ``bwdecompose(A, 24)``
    keeps 24 of the declared ``storage_bits`` on the device, the remaining
    ``storage_bits - device_bits`` become host-resident residual bits.
    Alternatively the residual width can be pinned directly with
    ``residual_bits``.  With ``prefix_compression`` disabled the base is 0
    and leading zeros are kept (the ablation case).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise DecompositionError("cannot plan a decomposition for an empty column")
    lo = int(values.min())
    hi = int(values.max())
    if not prefix_compression:
        if lo < 0:
            raise DecompositionError(
                "prefix compression is required for negative values"
            )
        base = 0
        total = max(bits_for_range(hi), 1)
    else:
        base = lo
        total = bits_for_range(hi - lo)

    if residual_bits is None:
        if device_bits is None:
            raise DecompositionError("specify device_bits or residual_bits")
        if device_bits < 1:
            raise DecompositionError(f"device_bits must be >= 1, got {device_bits}")
        residual_bits = max(0, storage_bits - device_bits)
    residual_bits = min(residual_bits, total)
    return Decomposition(
        base=base,
        total_bits=total,
        residual_bits=residual_bits,
        storage_bits=storage_bits,
    )


def _frozen(codes: np.ndarray) -> np.ndarray:
    """Mark a cached code array read-only so no caller can corrupt it."""
    codes.flags.writeable = False
    return codes


#: Rows per eviction segment of a decoded view.  A multiple of 64, so every
#: segment boundary is word-aligned in the packed stream for *any* code
#: width (codes-per-period = 64/gcd(bits, 64) divides 64) and evicted
#: segments can be re-decoded from a self-contained word slice.
VIEW_SEGMENT_ROWS = 1 << 16


class _PartialView:
    """A decoded view with evicted holes: one array (or ``None``) per segment.

    Holding slices of the original full array would pin its whole buffer
    alive, so surviving segments are *copies*; the memory of evicted
    segments is genuinely released.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: list) -> None:
        self.parts = parts

    @property
    def resident(self) -> int:
        return sum(1 for p in self.parts if p is not None)


class _ViewBudget:
    """Optional LRU byte budget over every column's decoded code views.

    Decoded views hold every code at its dtype's width next to the packed
    streams (see PERFORMANCE.md); memory-constrained runs can cap them with
    :func:`set_view_budget` and trade rebuild cost back in.  Unbounded by
    default — the knob then costs one registry insert per view segment and
    nothing per access.  Purely host-side simulation state: modeled
    :class:`Timeline` charges never depend on whether a view was cached
    (the code-cache invariant).

    **Eviction is segment-granular** (PR 5) for the decoded code streams:
    a view is registered as ``ceil(rows / segment_rows)`` independently
    evictable entries, so budget pressure drops only as many bytes as it
    needs instead of whole columns — a batch scanning many columns no
    longer thrashes the cache, and a partially evicted view rebuilds only
    its missing segments from the packed stream.  Views without a
    per-segment rebuild (sort permutations, the sorted-code view) stay
    whole-view entries.  Arrays already handed to callers remain valid
    (they are plain read-only ndarrays).
    """

    def __init__(self) -> None:
        self.limit: int | None = None
        self.segment_rows = VIEW_SEGMENT_ROWS
        self.used = 0
        #: Lifetime budget-driven eviction accounting (PR 10 metrics).
        self.evictions = 0
        self.evicted_bytes = 0
        # (id(column), attr, seg) -> (weakref, attr, seg, nbytes);
        # insertion order = LRU.
        self._entries: OrderedDict[tuple[int, str, int], tuple] = OrderedDict()
        # Secondary index: (id(column), attr) -> resident segment keys, so
        # per-view operations (touch on every cache hit, the whole-view
        # checks in _evict) stay O(own segments) instead of scanning the
        # full registry.
        self._by_view: dict[tuple[int, str], set] = {}

    # ------------------------------------------------------------------
    def configure(
        self, limit: int | None, segment_rows: int | None = None
    ) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"view budget must be non-negative, got {limit}")
        if segment_rows is not None and segment_rows != self.segment_rows:
            if segment_rows < 64 or segment_rows % 64:
                raise ValueError(
                    "segment_rows must be a positive multiple of 64, got "
                    f"{segment_rows}"
                )
            # Entry keys encode the old segment grid: flush rather than
            # translate (reconfiguration is a test/tuning operation).
            self._flush()
            self.segment_rows = segment_rows
        self.limit = limit
        self._evict()

    def segments_of(self, n_rows: int) -> list[tuple[int, int]]:
        """The ``[start, stop)`` row ranges of a view's eviction segments."""
        step = self.segment_rows
        if n_rows <= step:
            return [(0, n_rows)]
        return [(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]

    # ------------------------------------------------------------------
    def note(self, column: "BwdColumn", attr: str, view: np.ndarray) -> None:
        """Register a freshly materialized full view (most-recently-used)."""
        cid = id(column)
        if attr in column.SEGMENTED_VIEWS:
            ranges = self.segments_of(len(view))
        else:
            ranges = [(0, len(view))]
        itemsize = view.itemsize
        for seg, (a, b) in enumerate(ranges):
            key = (cid, attr, seg)
            if key not in self._entries:
                ref = weakref.ref(column, lambda _r, key=key: self._forget(key))
                nbytes = (b - a) * itemsize
                self._entries[key] = (ref, attr, seg, nbytes)
                self._by_view.setdefault((cid, attr), set()).add(seg)
                self.used += nbytes
            self._entries.move_to_end(key)
        self._evict()

    def touch(self, column: "BwdColumn", attr: str) -> None:
        """Refresh a view's recency on a cache hit (no-op when unbounded)."""
        if self.limit is None:
            return
        cid = id(column)
        for seg in sorted(self._by_view.get((cid, attr), ())):
            self._entries.move_to_end((cid, attr, seg))

    # ------------------------------------------------------------------
    def _forget(self, key: tuple[int, str, int]) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used -= entry[3]
            self._unindex(key)

    def _unindex(self, key: tuple[int, str, int]) -> None:
        cid, attr, seg = key
        segs = self._by_view.get((cid, attr))
        if segs is not None:
            segs.discard(seg)
            if not segs:
                del self._by_view[(cid, attr)]

    def _view_keys(self, cid: int, attr: str) -> list[tuple[int, str, int]]:
        return [
            (cid, attr, seg) for seg in sorted(self._by_view.get((cid, attr), ()))
        ]

    def _drop_entries(self, keys: list[tuple[int, str, int]]) -> None:
        for k in keys:
            _, _, _, nbytes = self._entries.pop(k)
            self.used -= nbytes
            self._unindex(k)

    def _flush(self) -> None:
        """Drop every cached view entirely (segment grid is changing)."""
        for ref, attr, _seg, _nbytes in list(self._entries.values()):
            column = ref()
            if column is not None:
                setattr(column, attr, None)
        self._entries.clear()
        self._by_view.clear()
        self.used = 0

    def _evict(self) -> None:
        if self.limit is None:
            return
        used_before = self.used
        while self.used > self.limit and self._entries:
            self.evictions += 1
            (cid, attr, seg), (ref, _, _, nbytes) = next(
                iter(self._entries.items())
            )
            column = ref()
            if column is None:
                self._drop_entries([(cid, attr, seg)])
                continue
            view_keys = self._view_keys(cid, attr)
            view_bytes = sum(self._entries[k][3] for k in view_keys)
            needed = self.used - self.limit
            if (
                needed >= view_bytes
                or len(view_keys) == 1
                or attr not in column.SEGMENTED_VIEWS
            ):
                # The whole view must go anyway (or cannot be split):
                # drop it without the segment-copy conversion.
                self._drop_entries(view_keys)
                setattr(column, attr, None)
                continue
            self._evict_segment(column, attr, seg)
            self._drop_entries([(cid, attr, seg)])
        self.evicted_bytes += max(used_before - self.used, 0)

    def _evict_segment(self, column: "BwdColumn", attr: str, seg: int) -> None:
        """Release one segment of a view, keeping the others resident."""
        view = getattr(column, attr)
        if isinstance(view, np.ndarray):
            ranges = self.segments_of(len(view))
            parts: list = [
                _frozen(view[a:b].copy()) for a, b in ranges
            ]
            view = _PartialView(parts)
            setattr(column, attr, view)
        view.parts[seg] = None


_VIEW_BUDGET = _ViewBudget()


def set_view_budget(
    nbytes: int | None, *, segment_rows: int | None = None
) -> None:
    """Cap the total bytes of cached decoded code views (None = unbounded).

    With a budget, least-recently-used view *segments* are dropped first
    (``segment_rows`` rows each, default :data:`VIEW_SEGMENT_ROWS`); a
    budget of 0 keeps every column permanently cold (views rebuild on each
    use).  The default is unbounded — the PR-1 behavior.  Passing
    ``segment_rows`` changes the eviction granularity and flushes every
    cached view (the entry grid changes shape).
    """
    _VIEW_BUDGET.configure(nbytes, segment_rows)


def view_budget() -> int | None:
    """The current decoded-view byte budget (None = unbounded)."""
    return _VIEW_BUDGET.limit


def view_segment_rows() -> int:
    """Rows per independently evictable view segment."""
    return _VIEW_BUDGET.segment_rows


def view_cache_bytes() -> int:
    """Total bytes of decoded views currently held across live columns."""
    return _VIEW_BUDGET.used


def view_eviction_stats() -> tuple[int, int]:
    """Lifetime ``(eviction events, bytes released)`` under the budget."""
    return _VIEW_BUDGET.evictions, _VIEW_BUDGET.evicted_bytes


class BwdColumn:
    """A bitwise-decomposed column: packed approximation + packed residual.

    The approximation stream is intended for device (GPU) memory, the
    residual stream for host memory; actual placement/accounting is done by
    the device layer, which registers the buffers with the respective
    :class:`~repro.device.memory.MemoryPool`.

    Columns are immutable after construction, so the decoded code streams
    are memoized: the first full unpack (or the decode that happened anyway
    at construction) is kept as a read-only *code view* and every later
    scan, gather or reconstruction reuses it instead of re-materializing
    O(n) codes per predicate.  The caches are a pure wall-clock
    optimization — modeled :class:`~repro.device.timeline.Timeline` charges
    are computed by the device layer from stream sizes and are unaffected.
    """

    __slots__ = (
        "decomposition", "length", "_approx_words", "_residual_words",
        "_approx_cache", "_residual_cache",
        "_perm_approx_cache", "_perm_exact_cache", "_sorted_codes_cache",
        "_code_offsets_cache", "_sorted_values_cache", "__weakref__",
    )

    #: Cache attributes with a per-segment rebuild (the decoded code
    #: streams): the view budget may evict them segment-granularly.  Sort
    #: permutations, the sorted codes and values and the code offsets are
    #: global functions of the whole column and stay whole-view entries.
    SEGMENTED_VIEWS = ("_approx_cache", "_residual_cache")

    def __init__(
        self,
        decomposition: Decomposition,
        length: int,
        approx_words: np.ndarray,
        residual_words: np.ndarray | None,
    ) -> None:
        self.decomposition = decomposition
        self.length = length
        self._approx_words = approx_words
        self._residual_words = residual_words
        self._approx_cache: np.ndarray | _PartialView | None = None
        self._residual_cache: np.ndarray | _PartialView | None = None
        self._perm_approx_cache: np.ndarray | None = None
        self._perm_exact_cache: np.ndarray | None = None
        self._sorted_codes_cache: np.ndarray | None = None
        self._code_offsets_cache: np.ndarray | None = None
        self._sorted_values_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: np.ndarray, decomposition: Decomposition) -> "BwdColumn":
        approx, residual = decomposition.split(values)
        approx_words = pack_codes(
            approx, max(decomposition.approx_bits, 1)
        )
        residual_words = (
            pack_codes(residual, decomposition.residual_bits)
            if decomposition.residual_bits
            else None
        )
        col = cls(decomposition, len(values), approx_words, residual_words)
        # The split already decoded both streams — seed the code views for
        # free instead of unpacking them again on first use.
        col._seed("_approx_cache", approx)
        if decomposition.residual_bits:
            col._seed("_residual_cache", residual)
        return col

    def extended(self, values: np.ndarray) -> "BwdColumn":
        """A new column: this column's rows followed by ``values``.

        Equal to ``from_values`` over the concatenation under this column's
        decomposition (``values`` must lie in its domain, see
        :meth:`Decomposition.plan_change`) — packed words, decoded views,
        sort permutations and sorted codes alike — at the cost of the
        appended rows plus one copy of what is carried: the packed streams
        are re-packed from their last period boundary only, fully resident
        decoded views are concatenated with the split of ``values``, and a
        resident sort permutation takes the new rows by a stable merge into
        its sorted keys — the resident sorted codes for ``"lo"`` (merged
        alongside), the values gathered in sorted order for ``"exact"``.
        Views that are absent or partially evicted here, and a ``"lo"``
        permutation without its sorted codes, stay absent there and rebuild
        lazily.  This column is left as it was.
        """
        dec = self.decomposition
        approx, residual = dec.split(values)
        n = self.length
        col = type(self)(
            dec, n + len(approx),
            append_codes(self._approx_words, max(dec.approx_bits, 1), n, approx),
            append_codes(self._residual_words, dec.residual_bits, n, residual)
            if dec.residual_bits else None,
        )
        # Captured first: registering a view below may evict any of these
        # from this column's slots, but never invalidates a held array.
        decoded = (
            ("_approx_cache", self._approx_cache, approx),
            ("_residual_cache", self._residual_cache, residual),
        )
        perm_lo, sorted_lo = self._perm_approx_cache, self._sorted_codes_cache
        perm_exact = self._perm_exact_cache

        def merge(attr, perm, ordered, keys):
            # Old rows precede the new ones among equal keys, so inserting
            # the stably sorted new rows after their equals is the stable
            # argsort of the concatenation.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            at = np.searchsorted(ordered, keys, side="right")
            col._seed(attr, np.insert(perm, at, n + order))
            return at, keys

        for attr, view, tail in decoded:
            if isinstance(view, np.ndarray):
                col._seed(attr, np.concatenate([view, tail]))
        if perm_lo is not None and sorted_lo is not None:
            at, keys = merge("_perm_approx_cache", perm_lo, sorted_lo, approx)
            col._seed("_sorted_codes_cache", np.insert(sorted_lo, at, keys))
        if perm_exact is not None:
            merge(
                "_perm_exact_cache", perm_exact, self.reconstruct(perm_exact),
                np.asarray(values, dtype=np.int64),
            )
        return col

    # ------------------------------------------------------------------
    @property
    def approx_nbytes(self) -> int:
        """Device-resident footprint of the approximation."""
        return packed_nbytes(self.length, max(self.decomposition.approx_bits, 1))

    @property
    def residual_nbytes(self) -> int:
        """Host-resident footprint of the residual."""
        if self.decomposition.residual_bits == 0:
            return 0
        return packed_nbytes(self.length, self.decomposition.residual_bits)

    @property
    def is_distributed(self) -> bool:
        """True when part of the column lives on the host (residual > 0)."""
        return self.decomposition.residual_bits > 0

    # ------------------------------------------------------------------
    def _seed(self, attr: str, view: np.ndarray) -> np.ndarray:
        """Install a freshly built full view: read-only, budget-registered."""
        setattr(self, attr, _frozen(view))
        _VIEW_BUDGET.note(self, attr, view)
        return view

    def _decoded(self, attr: str, words: np.ndarray, bits: int) -> np.ndarray:
        """The memoized decoded view of one packed stream (read-only).

        Held — and, after eviction, decoded again — at ``code_dtype(bits)``:
        a view costs its codes' width per row, not a machine word.
        """
        view = getattr(self, attr)
        if isinstance(view, np.ndarray):
            _VIEW_BUDGET.touch(self, attr)
            return view
        dtype = code_dtype(bits)
        if view is None:
            return self._seed(attr, unpack_codes(words, bits, self.length, dtype))
        # Partially evicted: keep resident segments, re-decode only the
        # holes — the payoff of segment-granular eviction.  ``view`` stays
        # valid even if rebuilding evicts more of it (eviction only nulls
        # ``parts`` entries, which this loop decodes anyway).
        full = np.empty(self.length, dtype=dtype)
        for seg, (a, b) in enumerate(_VIEW_BUDGET.segments_of(self.length)):
            part = view.parts[seg]
            full[a:b] = (
                part if part is not None
                else unpack_codes_range(words, bits, a, b, dtype)
            )
        return self._seed(attr, full)

    def approx_codes(self) -> np.ndarray:
        """Decoded approximation stream (read-only, memoized).

        Codes are compared and indexed at their own width
        (:attr:`Decomposition.approx_dtype`, bounds through
        :func:`~repro.storage.bitpack.clip_code_range`); arithmetic widens
        to ``int64`` first, once, where values are formed.
        """
        return self._decoded(
            "_approx_cache", self._approx_words,
            max(self.decomposition.approx_bits, 1),
        )

    def approx_block(self, start: int, stop: int) -> np.ndarray:
        """Approximation codes ``[start, stop)`` (``start`` a multiple of
        64) for a blocked pass: a slice of the decoded view when all of it
        is resident, else decoded from the packed stream into a fresh
        array — no view is built, registered or touched."""
        if isinstance(self._approx_cache, np.ndarray):
            return self._approx_cache[start:stop]
        dec = self.decomposition
        return unpack_codes_range(
            self._approx_words, max(dec.approx_bits, 1), start, stop,
            dec.approx_dtype,
        )

    def approx_at(self, positions: np.ndarray) -> np.ndarray:
        """Random-access approximation codes (device-side gather)."""
        if isinstance(self._approx_cache, np.ndarray):
            _VIEW_BUDGET.touch(self, "_approx_cache")
            return self._warm_gather(self._approx_cache, positions)
        return gather_codes(
            self._approx_words,
            max(self.decomposition.approx_bits, 1),
            self.length,
            positions,
            self.decomposition.approx_dtype,
        )

    def residuals(self) -> np.ndarray:
        """Decoded residual stream (read-only, memoized)."""
        dec = self.decomposition
        if dec.residual_bits == 0:
            return np.zeros(self.length, dtype=dec.residual_dtype)
        return self._decoded(
            "_residual_cache", self._residual_words, dec.residual_bits
        )

    #: Valid ``bound`` arguments of :meth:`sort_permutation`.
    SORT_BOUNDS = ("lo", "hi", "exact")

    def sort_permutation(self, bound: str = "lo") -> np.ndarray:
        """Memoized stable argsort of one of the column's value streams.

        ``bound`` names the sort key: ``"lo"``/``"hi"`` are the per-row
        approximate interval bounds — every interval spans the same
        ``max_error``, so the two stable orders coincide and share one
        cached permutation (both equal the stable order of the approx
        codes) — and ``"exact"`` is the reconstructed full-precision
        values, the key of the run-narrowing theta refinement.

        Sorting a side of a join is O(n log n); columns are immutable, so
        repeated joins against the same (dimension) column reuse the
        permutation instead of re-sorting per call.  Cached exactly like
        the decoded code views: read-only, registered with the LRU view
        budget, rebuilt from the streams after eviction.  Purely host-side
        simulation state — modeled charges never depend on it.
        """
        if bound in ("lo", "hi"):
            attr = "_perm_approx_cache"
        elif bound == "exact":
            attr = "_perm_exact_cache"
        else:
            raise ValueError(
                f"unknown sort bound {bound!r}; pick one of {self.SORT_BOUNDS}"
            )
        view: np.ndarray | None = getattr(self, attr)
        if view is None:
            key = (
                self.approx_codes()
                if attr == "_perm_approx_cache"
                else self.reconstruct()
            )
            view = self._seed(
                attr, np.argsort(key, kind="stable").astype(np.int64, copy=False)
            )
        else:
            _VIEW_BUDGET.touch(self, attr)
        return view

    def sorted_approx_codes(self) -> np.ndarray:
        """The approximation codes in stable-sorted order (memoized).

        The shared binary-search key of the serve layer's cooperative
        carve: ``sorted_approx_codes() ==
        approx_codes()[sort_permutation("lo")]``, so a code-range
        predicate maps to one ``searchsorted`` pair instead of an O(n)
        scan — with needles of this key's dtype
        (:func:`~repro.storage.bitpack.clip_code_range`); any other needle
        promotes, i.e. copies, the whole key per search.  Cached like the
        sort permutations: whole-view, registered with the LRU view budget,
        rebuilt after eviction.  Purely host-side simulation state —
        modeled charges never depend on it.
        """
        view = self._sorted_codes_cache
        if view is None:
            view = self._seed(
                "_sorted_codes_cache",
                self.approx_codes()[self.sort_permutation("lo")],
            )
        else:
            _VIEW_BUDGET.touch(self, "_sorted_codes_cache")
        return view

    def code_offsets(self) -> np.ndarray:
        """Where each approximation code's rows begin in the code-sorted
        order (memoized): ``code_offsets()[k]`` rows carry a code below
        ``k``, for ``k`` in ``0 .. max_code + 1`` (int64).

        The rank of code ``k`` among :meth:`sorted_approx_codes` without a
        search, and — by ``np.diff`` — how many rows carry each code.  One
        entry per code, so meant for columns with no more codes than rows.
        Cached like the sorted codes: whole-view, budget-registered,
        counted once from the decoded codes after eviction.
        """
        view = self._code_offsets_cache
        if view is None:
            counts = np.bincount(
                self.approx_codes(), minlength=self.decomposition.max_code + 1
            )
            view = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=view[1:])
            view = self._seed("_code_offsets_cache", view)
        else:
            _VIEW_BUDGET.touch(self, "_code_offsets_cache")
        return view

    def sorted_values(self) -> np.ndarray:
        """The reconstructed exact values in ascending order (memoized).

        ``sorted_values() == reconstruct()[sort_permutation("exact")]``:
        what a theta refinement counts its exact pairs in, with no
        permutation built or read.  Cached like the sorted codes.
        """
        view = self._sorted_values_cache
        if view is None:
            view = self.reconstruct()
            view.sort()
            view = self._seed("_sorted_values_cache", view)
        else:
            _VIEW_BUDGET.touch(self, "_sorted_values_cache")
        return view

    def residual_at(self, positions: np.ndarray) -> np.ndarray:
        """Random-access residuals (host-side gather; the refine hot path)."""
        dec = self.decomposition
        if dec.residual_bits == 0:
            return np.zeros(len(np.asarray(positions)), dtype=dec.residual_dtype)
        if isinstance(self._residual_cache, np.ndarray):
            _VIEW_BUDGET.touch(self, "_residual_cache")
            return self._warm_gather(self._residual_cache, positions)
        return gather_codes(
            self._residual_words, dec.residual_bits, self.length, positions,
            dec.residual_dtype,
        )

    @staticmethod
    def _warm_gather(view: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """``view`` at ``positions``, refused like the packed-stream gather
        refuses them: a negative position is tested here, one past the end
        by ``np.take`` itself."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and int(positions.min()) < 0:
            raise IndexError("gather position out of range")
        try:
            return np.take(view, positions)
        except IndexError:
            raise IndexError("gather position out of range") from None

    def reconstruct(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Exact values via bitwise concatenation, for all rows or a subset."""
        if positions is None:
            return self.decomposition.combine(self.approx_codes(), self.residuals())
        return self.decomposition.combine(
            self.approx_at(positions), self.residual_at(positions)
        )


def decompose_values(
    values: np.ndarray,
    *,
    device_bits: int | None = None,
    residual_bits: int | None = None,
    storage_bits: int = 32,
    prefix_compression: bool = True,
) -> BwdColumn:
    """Convenience: plan a decomposition for ``values`` and apply it."""
    plan = plan_decomposition(
        values,
        device_bits=device_bits,
        residual_bits=residual_bits,
        storage_bits=storage_bits,
        prefix_compression=prefix_compression,
    )
    return BwdColumn.from_values(np.asarray(values, dtype=np.int64), plan)
