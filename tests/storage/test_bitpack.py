"""Unit and property tests for dense k-bit code packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitWidthError
from repro.storage import bitpack
from repro.storage.bitpack import (
    append_codes,
    code_dtype,
    gather_codes,
    pack_codes,
    packed_nbytes,
    unpack_codes,
)


class TestPackedNbytes:
    def test_exact_word_fit(self):
        assert packed_nbytes(8, 8) == 8

    def test_partial_word_rounds_up(self):
        assert packed_nbytes(1, 1) == 8
        assert packed_nbytes(3, 24) == 16

    def test_zero_count(self):
        assert packed_nbytes(0, 13) == 0

    def test_full_width(self):
        assert packed_nbytes(5, 64) == 40

    def test_rejects_bad_bits(self):
        with pytest.raises(BitWidthError):
            packed_nbytes(4, 0)
        with pytest.raises(BitWidthError):
            packed_nbytes(4, 65)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            packed_nbytes(-1, 8)


class TestPackUnpackRoundtrip:
    @pytest.mark.parametrize("bits", [1, 2, 3, 7, 8, 12, 13, 24, 31, 32, 33, 63, 64])
    def test_roundtrip_random(self, bits):
        rng = np.random.default_rng(bits)
        hi = (1 << bits) - 1
        codes = rng.integers(0, hi, size=257, endpoint=True, dtype=np.uint64)
        packed = pack_codes(codes, bits)
        assert np.array_equal(unpack_codes(packed, bits, len(codes)), codes)

    def test_roundtrip_empty(self):
        packed = pack_codes(np.empty(0, dtype=np.uint64), 9)
        assert packed.size == 0
        assert unpack_codes(packed, 9, 0).size == 0

    def test_single_max_code(self):
        codes = np.array([(1 << 24) - 1], dtype=np.uint64)
        packed = pack_codes(codes, 24)
        assert np.array_equal(unpack_codes(packed, 24, 1), codes)

    def test_packing_is_dense(self):
        codes = np.arange(100, dtype=np.uint64) % 8
        assert pack_codes(codes, 3).nbytes == packed_nbytes(100, 3)

    def test_accepts_signed_nonnegative(self):
        codes = np.array([0, 1, 5], dtype=np.int64)
        assert np.array_equal(
            unpack_codes(pack_codes(codes, 3), 3, 3), codes.astype(np.uint64)
        )

    def test_rejects_negative_codes(self):
        with pytest.raises(BitWidthError):
            pack_codes(np.array([-1], dtype=np.int64), 8)

    def test_rejects_overflowing_codes(self):
        with pytest.raises(BitWidthError):
            pack_codes(np.array([8], dtype=np.uint64), 3)

    def test_rejects_2d_input(self):
        with pytest.raises(BitWidthError):
            pack_codes(np.zeros((2, 2), dtype=np.uint64), 4)

    def test_rejects_float_codes(self):
        with pytest.raises(BitWidthError):
            pack_codes(np.array([1.0, 2.0]), 4)

    def test_unpack_rejects_short_stream(self):
        with pytest.raises(BitWidthError):
            unpack_codes(np.zeros(1, dtype=np.uint64), 33, 3)


class TestAppendCodes:
    """``append_codes`` must equal ``pack_codes`` of the whole stream."""

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_matches_pack_of_concatenation(self, bits):
        rng = np.random.default_rng(bits * 107)
        hi = (1 << bits) - 1
        # Base lengths on and off the period grid (codes-per-period <= 64).
        for count in (0, 1, 63, 64, 65, 131, 192):
            for added in (0, 1, 5, 129):
                old = rng.integers(0, hi, size=count, endpoint=True, dtype=np.uint64)
                new = rng.integers(0, hi, size=added, endpoint=True, dtype=np.uint64)
                words = pack_codes(old, bits)
                before = words.copy()
                got = append_codes(words, bits, count, new)
                whole = pack_codes(np.concatenate([old, new]), bits)
                assert np.array_equal(got, whole), (bits, count, added)
                assert np.array_equal(words, before), "input stream was written to"

    def test_ignores_words_past_the_stream(self):
        """A stream stored in a longer buffer appends from ``count``."""
        old = np.arange(10, dtype=np.uint64)
        words = np.concatenate([pack_codes(old, 12), np.full(3, 2**64 - 1, np.uint64)])
        got = append_codes(words, 12, 10, np.array([7, 8], dtype=np.uint64))
        assert np.array_equal(
            got, pack_codes(np.concatenate([old, [7, 8]]).astype(np.uint64), 12)
        )

    def test_accepts_signed_nonnegative(self):
        words = pack_codes(np.array([1, 2, 3]), 5)
        got = append_codes(words, 5, 3, np.array([4, 5], dtype=np.int32))
        assert np.array_equal(unpack_codes(got, 5, 5), [1, 2, 3, 4, 5])

    def test_rejects_what_pack_codes_rejects(self):
        words = pack_codes(np.array([1, 2, 3]), 5)
        with pytest.raises(BitWidthError):
            append_codes(words, 5, 3, np.array([-1]))
        with pytest.raises(BitWidthError):
            append_codes(words, 5, 3, np.array([32]))
        with pytest.raises(BitWidthError):
            append_codes(words, 5, 3, np.array([0.5]))

    def test_rejects_short_stream_and_negative_count(self):
        words = pack_codes(np.arange(4), 16)
        with pytest.raises(BitWidthError):
            append_codes(words, 16, 9, np.array([1]))
        with pytest.raises(ValueError):
            append_codes(words, 16, -1, np.array([1]))


class TestGather:
    def test_gather_matches_unpack(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 1 << 13, size=500, dtype=np.uint64)
        packed = pack_codes(codes, 13)
        pos = rng.integers(0, 500, size=64)
        assert np.array_equal(gather_codes(packed, 13, 500, pos), codes[pos])

    def test_gather_empty_positions(self):
        packed = pack_codes(np.arange(4, dtype=np.uint64), 4)
        assert gather_codes(packed, 4, 4, np.empty(0, dtype=np.int64)).size == 0

    def test_gather_out_of_range(self):
        packed = pack_codes(np.arange(4, dtype=np.uint64), 4)
        with pytest.raises(IndexError):
            gather_codes(packed, 4, 4, np.array([4]))
        with pytest.raises(IndexError):
            gather_codes(packed, 4, 4, np.array([-1]))

    def test_gather_preserves_duplicates_and_order(self):
        codes = np.array([10, 20, 30, 40], dtype=np.uint64)
        packed = pack_codes(codes, 8)
        got = gather_codes(packed, 8, 4, np.array([3, 0, 3]))
        assert np.array_equal(got, [40, 10, 40])


def gather_by(path, *args):
    """``gather_codes`` with one of its two kernels forced: ``"span"``
    decodes the covered span and indexes it, ``"positions"`` reads each
    position — the density constant is all that picks between them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            bitpack, "_DENSE_SPAN_PER_POSITION", (1 << 30) if path == "span" else 0
        )
        return gather_codes(*args)


#: Position sets over a stream of ``_GATHER_COUNT`` codes — 70 past a
#: multiple of 64, so the stream ends inside a partial period of every
#: width.
_GATHER_COUNT = 64 * 5 + 70
_GATHER_POSITIONS = {
    "empty": [],
    "single": [133],
    "first": [0],
    "last": [_GATHER_COUNT - 1],
    "unsorted": [200, 7, 131, 64, 389, 65],
    "duplicated": [300, 300, 71, 300, 71],
    "start off the 64-grid": list(range(67, 190)),
    "ends in the last partial period": list(range(322, _GATHER_COUNT)),
    "whole stream, reversed": list(range(_GATHER_COUNT - 1, -1, -1)),
}


class TestGatherKernelsAgree:
    """The span kernel and the per-position kernel are one function: equal
    values, equal dtype, the same ``IndexError`` — at every width."""

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_every_width_over_the_position_lattice(self, bits):
        rng = np.random.default_rng(bits * 107)
        codes = rng.integers(
            0, (1 << bits) - 1, size=_GATHER_COUNT, endpoint=True, dtype=np.uint64
        )
        words = naive_pack(codes, bits)
        for dtype in (code_dtype(bits), np.dtype(np.uint64)):
            for name, positions in _GATHER_POSITIONS.items():
                positions = np.array(positions, dtype=np.int64)
                args = (words, bits, _GATHER_COUNT, positions, dtype)
                span, each = gather_by("span", *args), gather_by("positions", *args)
                assert span.dtype == each.dtype == dtype, name
                assert np.array_equal(span, each), name
                assert np.array_equal(span, codes[positions]), name
            for bad in (-1, _GATHER_COUNT):
                positions = np.array([5, bad, 9])
                for path in ("span", "positions"):
                    with pytest.raises(IndexError, match="gather position out of range"):
                        gather_by(path, words, bits, _GATHER_COUNT, positions, dtype)

    @settings(max_examples=80, deadline=None)
    @given(
        bits=st.integers(min_value=1, max_value=64),
        count=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_property_any_positions_any_density(self, bits, count, seed, data):
        """Whatever the default constant picks is what both kernels give."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(
            0, (1 << bits) - 1, size=count, endpoint=True, dtype=np.uint64
        )
        words = pack_codes(codes, bits)
        first = data.draw(st.integers(0, count - 1))
        positions = np.array(data.draw(
            st.lists(st.integers(first, count - 1), min_size=0, max_size=60)
        ), dtype=np.int64)
        dtype = data.draw(st.sampled_from([code_dtype(bits), np.dtype(np.uint64)]))
        args = (words, bits, count, positions, dtype)
        got = gather_codes(*args)
        for path in ("span", "positions"):
            forced = gather_by(path, *args)
            assert forced.dtype == got.dtype == dtype
            assert np.array_equal(forced, got)
        assert np.array_equal(got, codes[positions])


def naive_pack(codes, bits):
    """Per-code reference packer: one Python loop, no vectorization."""
    n_words = (len(codes) * bits + 63) // 64
    words = [0] * n_words
    word_mask = (1 << 64) - 1
    for i, code in enumerate(codes):
        word, offset = divmod(i * bits, 64)
        words[word] |= (int(code) << offset) & word_mask
        if offset + bits > 64:
            words[word + 1] |= int(code) >> (64 - offset)
    return np.array(words, dtype=np.uint64)


class TestAgainstNaiveReference:
    """The vectorized kernels must produce the reference stream bit-for-bit.

    Covers every width 1–64: the word-aligned fast paths (widths dividing
    64), widths whose codes straddle word boundaries, and the full-word
    case.
    """

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_pack_stream_layout_matches_reference(self, bits):
        rng = np.random.default_rng(bits * 101)
        hi = (1 << bits) - 1
        codes = rng.integers(0, hi, size=131, endpoint=True, dtype=np.uint64)
        assert np.array_equal(pack_codes(codes, bits), naive_pack(codes, bits))

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_unpack_and_gather_from_reference_stream(self, bits):
        rng = np.random.default_rng(bits * 103)
        hi = (1 << bits) - 1
        codes = rng.integers(0, hi, size=131, endpoint=True, dtype=np.uint64)
        words = naive_pack(codes, bits)
        assert np.array_equal(unpack_codes(words, bits, len(codes)), codes)
        pos = rng.integers(0, len(codes), size=40)
        assert np.array_equal(gather_codes(words, bits, len(codes), pos), codes[pos])

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 16, 32, 64])
    def test_aligned_fast_path_partial_final_word(self, bits):
        """Counts that do not fill the last word exercise the lane padding."""
        per_word = 64 // bits
        for count in (1, per_word - 1 or 1, per_word + 1, 3 * per_word - 1):
            rng = np.random.default_rng(bits * 7 + count)
            codes = rng.integers(
                0, (1 << bits) - 1, size=count, endpoint=True, dtype=np.uint64
            )
            packed = pack_codes(codes, bits)
            assert np.array_equal(packed, naive_pack(codes, bits))
            assert np.array_equal(unpack_codes(packed, bits, count), codes)

    @pytest.mark.parametrize("bits", [3, 12, 24, 33, 63])
    def test_word_straddling_codes(self, bits):
        """All-ones codes make every straddle visible in both halves."""
        codes = np.full(130, (1 << bits) - 1, dtype=np.uint64)
        packed = pack_codes(codes, bits)
        assert np.array_equal(packed, naive_pack(codes, bits))
        assert np.array_equal(unpack_codes(packed, bits, 130), codes)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_property_pack_stream_matches_naive_reference(bits, data):
    """Fuzz the exact packed-stream layout against the per-code reference."""
    hi = (1 << bits) - 1
    codes = data.draw(
        st.lists(st.integers(min_value=0, max_value=hi), min_size=1, max_size=70)
    )
    arr = np.array(codes, dtype=np.uint64)
    assert np.array_equal(pack_codes(arr, bits), naive_pack(arr, bits))


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_property_pack_unpack_identity(bits, data):
    """Round-trip identity for arbitrary widths and code streams."""
    hi = (1 << bits) - 1
    codes = data.draw(
        st.lists(st.integers(min_value=0, max_value=hi), min_size=0, max_size=70)
    )
    arr = np.array(codes, dtype=np.uint64)
    assert np.array_equal(unpack_codes(pack_codes(arr, bits), bits, len(arr)), arr)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=63),
    n=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_gather_agrees_with_full_unpack(bits, n, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, size=n, dtype=np.uint64)
    packed = pack_codes(codes, bits)
    pos = rng.integers(0, n, size=min(n, 17))
    assert np.array_equal(
        gather_codes(packed, bits, n, pos),
        unpack_codes(packed, bits, n)[pos],
    )


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_property_append_equals_pack_of_whole(bits, data):
    """Appending in any number of steps lands on the one-shot stream."""
    hi = (1 << bits) - 1
    chunks = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=hi), min_size=0, max_size=70),
        min_size=1, max_size=4,
    ))
    words, count = np.empty(0, dtype=np.uint64), 0
    for chunk in chunks:
        words = append_codes(words, bits, count, np.array(chunk, dtype=np.uint64))
        count += len(chunk)
    whole = np.array([c for chunk in chunks for c in chunk], dtype=np.uint64)
    assert np.array_equal(words, naive_pack(whole, bits))
