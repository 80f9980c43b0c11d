"""Code views at code width (PR 15).

Every cached code stream — decoded approximation / residual views and the
sorted codes — is held at ``code_dtype(bits)``, the smallest unsigned dtype
its width fits, and equals the ``uint64`` reference decode of the packed
stream: after ``from_values``, after whole-view and segment eviction +
rebuild, after ``extended()``, and through ``approx_at`` / ``residual_at``
on both the view and the packed-stream path.  The view budget accounts
``rows × itemsize``.
"""

import itertools

import numpy as np
import pytest

from repro.errors import BitWidthError
from repro.core.relax import EMPTY_CODE_RANGE
from repro.storage.bitpack import (
    clip_code_range,
    code_dtype,
    code_range_mask,
    gather_codes,
    pack_codes,
    unpack_codes,
    unpack_codes_range,
)
from repro.storage.decompose import (
    BwdColumn,
    Decomposition,
    _PartialView,
    set_view_budget,
    view_cache_bytes,
)

WIDTHS = range(1, 65)
N, SEG = 200, 64


@pytest.fixture(autouse=True)
def restore_budget():
    yield
    set_view_budget(None)


def values_of(width: int, n: int = N, seed: int = 0) -> np.ndarray:
    """``n`` values spanning the whole ``width``-bit domain over base 0
    (63 bits at most: the values themselves are int64)."""
    top = (1 << min(width, 63)) - 1
    values = np.random.default_rng(seed + width).integers(
        0, top, n, dtype=np.int64, endpoint=True
    )
    values[:2] = (0, top)
    return values


def reference(col: BwdColumn) -> tuple[np.ndarray, np.ndarray]:
    """The ``uint64`` decode of both packed streams — the pre-PR-15 views."""
    dec = col.decomposition
    approx = unpack_codes(col._approx_words, max(dec.approx_bits, 1), col.length)
    residual = (
        unpack_codes(col._residual_words, dec.residual_bits, col.length)
        if dec.residual_bits else np.zeros(col.length, dtype=np.uint64)
    )
    assert approx.dtype == residual.dtype == np.uint64
    return approx, residual


def assert_views_at_code_width(col: BwdColumn) -> None:
    dec = col.decomposition
    approx, residual = reference(col)
    for got, want, bits in (
        (col.approx_codes(), approx, max(dec.approx_bits, 1)),
        (col.residuals(), residual, max(dec.residual_bits, 1)),
        (col.sorted_approx_codes(), np.sort(approx), max(dec.approx_bits, 1)),
    ):
        assert got.dtype == code_dtype(bits)
        assert np.array_equal(got, want)


class TestCodeDtype:
    def test_smallest_unsigned_dtype_per_width(self):
        for bits in WIDTHS:
            dtype = code_dtype(bits)
            assert dtype.kind == "u"
            assert 8 * dtype.itemsize >= bits
            assert dtype.itemsize == 1 or 4 * dtype.itemsize < bits
        assert [code_dtype(b) for b in (8, 9, 16, 17, 32, 33)] == [
            np.uint8, np.uint16, np.uint16, np.uint32, np.uint32, np.uint64,
        ]

    def test_rejects_invalid_widths(self):
        for bits in (0, 65):
            with pytest.raises(BitWidthError):
                code_dtype(bits)


class TestKernelsWriteTheAskedDtype:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_unpack_range_gather_equal_the_uint64_reference(self, bits):
        n = 1000  # several periods and a sub-period tail for every width
        codes = np.random.default_rng(bits).integers(
            0, (1 << bits) - 1, n, dtype=np.uint64, endpoint=True
        )
        codes[:2] = (0, (1 << bits) - 1)
        words = pack_codes(codes, bits)
        positions = np.random.default_rng(1).integers(0, n, 300)
        wide = unpack_codes(words, bits, n)
        assert wide.dtype == np.uint64 and np.array_equal(wide, codes)
        for dtype in {code_dtype(bits), np.dtype(np.uint64)}:
            out = unpack_codes(words, bits, n, dtype)
            assert out.dtype == dtype and np.array_equal(out, codes)
            part = unpack_codes_range(words, bits, 128, 777, dtype)
            assert part.dtype == dtype and np.array_equal(part, codes[128:777])
            picked = gather_codes(words, bits, n, positions, dtype)
            assert picked.dtype == dtype
            assert np.array_equal(picked, codes[positions])
            assert unpack_codes(words, bits, 0, dtype).dtype == dtype
            assert gather_codes(words, bits, n, positions[:0], dtype).dtype == dtype

    @pytest.mark.parametrize("bits,dtype", [
        (9, np.uint8), (17, np.uint16), (33, np.uint32), (12, np.int16),
        (12, np.float64),
    ])
    def test_a_dtype_that_cannot_hold_the_codes_is_rejected(self, bits, dtype):
        words = pack_codes(np.arange(8, dtype=np.uint64), bits)
        with pytest.raises(BitWidthError):
            unpack_codes(words, bits, 8, dtype)
        with pytest.raises(BitWidthError):
            unpack_codes_range(words, bits, 0, 8, dtype)
        with pytest.raises(BitWidthError):
            gather_codes(words, bits, 8, np.array([0]), dtype)


class TestViewsAtCodeWidth:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_residual_split(self, width):
        set_view_budget(None, segment_rows=SEG)
        values = values_of(width)
        positions = np.random.default_rng(2).integers(0, N, 50)
        for residual_bits in range(width + 1):
            dec = Decomposition(0, width, residual_bits, storage_bits=64)
            base = view_cache_bytes()
            col = BwdColumn.from_values(values, dec)
            approx, residual = reference(col)

            # seeded by from_values, accounted at rows × itemsize
            assert isinstance(col._approx_cache, np.ndarray)
            assert_views_at_code_width(col)
            held = [col._approx_cache, col._perm_approx_cache,
                    col._sorted_codes_cache]
            if residual_bits:
                held.append(col._residual_cache)
            assert view_cache_bytes() - base == sum(
                N * view.itemsize for view in held
            )
            assert col._approx_cache.itemsize == dec.approx_dtype.itemsize
            assert col._perm_approx_cache.dtype == np.int64

            # random access: through the view ...
            for got, want, dtype in (
                (col.approx_at(positions), approx, dec.approx_dtype),
                (col.residual_at(positions), residual, dec.residual_dtype),
            ):
                assert got.dtype == dtype
                assert np.array_equal(got, want[positions])

            # whole-view eviction: rebuilt narrow, straight from the words
            set_view_budget(0, segment_rows=SEG)
            assert col._approx_cache is None and col._residual_cache is None
            # ... and through the packed stream, same dtype
            for got, want, dtype in (
                (col.approx_at(positions), approx, dec.approx_dtype),
                (col.residual_at(positions), residual, dec.residual_dtype),
            ):
                assert got.dtype == dtype
                assert np.array_equal(got, want[positions])
            set_view_budget(None, segment_rows=SEG)
            assert_views_at_code_width(col)

            # segment eviction (the oldest entry is the approximation
            # view's first segment): survivors keep their dtype, and only
            # the hole is re-decoded, narrow
            set_view_budget(
                view_cache_bytes() - SEG * dec.approx_dtype.itemsize,
                segment_rows=SEG,
            )
            view = col._approx_cache
            assert isinstance(view, _PartialView) and view.resident == 3
            assert all(
                part is None or part.dtype == dec.approx_dtype
                for part in view.parts
            )
            set_view_budget(None, segment_rows=SEG)
            assert_views_at_code_width(col)
            assert np.array_equal(col.reconstruct(), values)
            assert np.array_equal(col.reconstruct(positions), values[positions])
            del col

    @pytest.mark.parametrize("width", WIDTHS)
    def test_extended_with_every_combination_of_warm_views(self, width):
        values, delta = values_of(width, 150), values_of(width, 70, seed=7)
        for residual_bits in sorted({0, 1, width // 2, width - 1, width}):
            if not 0 <= residual_bits <= width:
                continue
            dec = Decomposition(0, width, residual_bits, storage_bits=64)
            want = BwdColumn.from_values(np.concatenate([values, delta]), dec)
            for warm in itertools.product((False, True), repeat=3):
                old = BwdColumn.from_values(values, dec)
                if warm[0]:
                    old.sort_permutation("lo")
                if warm[1]:
                    old.sorted_approx_codes()
                if warm[2]:
                    old.sort_permutation("exact")
                got = old.extended(delta)
                # carried as they were held: nothing widened on the way
                assert got._approx_cache.dtype == dec.approx_dtype
                if residual_bits:
                    assert got._residual_cache.dtype == dec.residual_dtype
                if got._sorted_codes_cache is not None:
                    assert got._sorted_codes_cache.dtype == dec.approx_dtype
                for perm in (got._perm_approx_cache, got._perm_exact_cache):
                    assert perm is None or perm.dtype == np.int64
                assert_views_at_code_width(got)
                for bound in ("lo", "exact"):
                    assert np.array_equal(
                        got.sort_permutation(bound), want.sort_permutation(bound)
                    )
                assert np.array_equal(got.reconstruct(), want.reconstruct())

    def test_holes_are_decoded_into_the_view_dtype(self, monkeypatch):
        """A partial view's rebuild asks the range kernel for the view's own
        dtype — no uint64 intermediate is decoded and then narrowed."""
        from repro.storage import decompose

        set_view_budget(None, segment_rows=SEG)
        col = BwdColumn.from_values(
            values_of(12, 512), Decomposition(0, 12, 3, storage_bits=64)
        )
        asked = []

        def spy(words, bits, start, stop, dtype=np.uint64):
            asked.append(np.dtype(dtype))
            return unpack_codes_range(words, bits, start, stop, dtype)

        monkeypatch.setattr(decompose, "unpack_codes_range", spy)
        set_view_budget(view_cache_bytes() - 2 * SEG * 2, segment_rows=SEG)
        set_view_budget(None, segment_rows=SEG)
        col.approx_codes(), col.residuals()
        assert asked and set(asked) <= {np.dtype(np.uint16), np.dtype(np.uint8)}


class TestClipCodeRange:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_clipped_bounds_select_the_same_codes(self, dtype):
        top = int(np.iinfo(dtype).max)
        codes = np.array([0, 1, 2, top - 1, top], dtype=dtype)
        wide = codes.astype(object)  # exact Python-int comparison
        for lo, hi in [
            (0, top), (-5, 1), (1, top + 9), (-1, -1), (top + 1, top + 2),
            (1, 0), (3, 2), (top, top), (0, 0), (-(1 << 70), 1 << 70),
        ]:
            a, b = clip_code_range(lo, hi, dtype)
            assert a.dtype == b.dtype == dtype
            want = np.array([lo <= int(c) <= hi for c in wide])
            assert np.array_equal((codes >= a) & (codes <= b), want), (lo, hi)
            # ... and cut the same span out of the sorted key
            start = np.searchsorted(codes, a, side="left")
            stop = np.searchsorted(codes, b, side="right")
            assert max(stop - start, 0) == want.sum(), (lo, hi)


class TestCodeRangeMask:
    """The one-compare range test ``codes - lo <= hi - lo`` against the
    two-compare reference, over the lattice where the subtraction wraps:
    widths either side of 8/16/32, codes at both ends of the dtype, bounds
    at and beyond both ends, single-code ranges, and the empty range — on
    which an unguarded kernel selects every row (``0 - 1`` wraps to the
    dtype's maximum, and everything is ``<=`` that)."""

    WIDTHS = (1, 7, 8, 9, 15, 16, 17, 31, 32)

    @staticmethod
    def _codes(bits, dtype):
        top, cap = (1 << bits) - 1, int(np.iinfo(dtype).max)
        rng = np.random.default_rng(bits)
        edge = [0, 1, top // 2, max(top - 1, 0), top, cap]
        return np.concatenate([
            np.array(edge, dtype=dtype),
            rng.integers(0, top, 64, endpoint=True).astype(dtype),
        ])

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_equals_the_two_compare_reference(self, bits):
        dtype = code_dtype(bits)
        top, cap = (1 << bits) - 1, int(np.iinfo(dtype).max)
        codes = self._codes(bits, dtype)
        points = sorted({0, 1, top // 2, max(top - 1, 0), top, cap - 1, cap})
        ranges = list(itertools.product(points, points))  # incl. lo == hi, lo > hi
        ranges += [
            (-7, top // 2), (-1, -1), (-(1 << 70), 1 << 70), (top // 2, cap + 9),
            (cap + 1, cap + 5), (0, cap), EMPTY_CODE_RANGE,
        ]
        for lo_code, hi_code in ranges:
            lo, hi = clip_code_range(lo_code, hi_code, dtype)
            want = (codes >= lo) & (codes <= hi)
            exact = np.array([lo_code <= int(c) <= hi_code for c in codes])
            assert np.array_equal(want, exact), (lo_code, hi_code)
            got = code_range_mask(codes, lo, hi)
            assert got.dtype == bool and np.array_equal(got, want), (lo_code, hi_code)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_the_empty_range_selects_nothing(self, bits):
        dtype = code_dtype(bits)
        codes = self._codes(bits, dtype)
        lo, hi = clip_code_range(*EMPTY_CODE_RANGE, dtype)
        assert (lo, hi) == (1, 0)
        assert not code_range_mask(codes, lo, hi).any()
        # the unguarded compare is the bug this pins: ``hi - lo`` wraps to
        # the dtype's maximum and the test keeps every row
        wrapped = np.subtract(np.array([hi]), np.array([lo]))[0]
        assert wrapped == np.iinfo(dtype).max
        assert np.less_equal(codes - lo, wrapped).all()

    def test_signed_codes_are_refused(self):
        with pytest.raises(BitWidthError, match="unsigned"):
            code_range_mask(np.arange(4), 1, 2)
