"""Dense bit-packing of k-bit codes into 64-bit words.

The approximation and residual partitions of a bitwise-decomposed column
(paper §II-A) hold codes of arbitrary width (e.g. 24 approximation bits, 8
residual bits).  Storing them one-per-machine-word would waste the very
memory the paper tries to conserve, so codes are packed back to back into a
``uint64`` array: code ``i`` occupies bits ``[i*k, (i+1)*k)`` of the stream.

Both directions are fully vectorized.  Widths that divide the word size
(1, 2, 4, 8, 16, 32, 64) take a *word-aligned* fast path: no code ever
straddles a word boundary, so packing and unpacking reduce to pure
reshape/shift arithmetic with zero spill handling.

Arbitrary widths go through the *block-aligned* path: the stream layout
repeats every ``lcm(bits, 64)`` bits — a **period** of ``lcm // 64`` words
holding ``lcm // bits`` codes, where both the word grid and the code grid
realign.  The bit offset, word index and straddle behaviour of code ``i``
therefore depend only on the lane ``i mod codes_per_period``, so full
periods are processed as a 2-D (periods × lanes) problem with one small
precomputed lane table: no per-code index arrays (the old path built three
O(n) arrays of bit positions, word indices and offsets per call).  Straddle
spills use a masked second scatter/gather on the spilling lanes only, and
the pack side ORs lanes into words with a segment reduction
(``bitwise_or.reduceat`` along the lane axis) instead of the unbuffered —
and notoriously slow — ``np.bitwise_or.at``.  The sub-period tail (fewer
than ``codes_per_period`` codes) falls back to per-code index math on at
most 63 codes.

The decode kernels (``unpack_codes``, ``unpack_codes_range``,
``gather_codes``) take the output dtype: ``uint64`` by default, or any
unsigned type the width fits (:func:`code_dtype` names the smallest), which
the last pass over the 64-bit lanes stores directly.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BitWidthError
from ..util import check_bits, mask

_WORD_BITS = 64

#: ``gather_codes`` decodes the span its positions cover, instead of reading
#: each position, when the span holds at most this many codes per position:
#: the measured crossover of the two kernels lies between 12 % and 30 %
#: density for widths 4–32 (PERFORMANCE.md, "storage + core — dense
#: candidate sets").
_DENSE_SPAN_PER_POSITION = 3


def _is_aligned(bits: int) -> bool:
    """True when codes of this width never straddle a word boundary."""
    return _WORD_BITS % bits == 0


def _lane_table(bits: int) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-width block layout: one period of the repeating stream pattern.

    Returns ``(period_words, codes_per_period, word_of_lane, offset_of_lane,
    spill_lanes, word_starts)`` where ``word_starts[w]`` is the first lane
    whose low bits land in period word ``w`` (every period word contains at
    least one code start when ``bits < 64``, since a code shorter than a
    word cannot cover one entirely).
    """
    table = _LANE_TABLES.get(bits)
    if table is None:
        lcm = bits * _WORD_BITS // math.gcd(bits, _WORD_BITS)
        codes_per_period = lcm // bits
        bit_pos = np.arange(codes_per_period, dtype=np.uint64) * np.uint64(bits)
        word_of_lane = (bit_pos >> np.uint64(6)).astype(np.int64)
        offset_of_lane = bit_pos & np.uint64(_WORD_BITS - 1)
        spill_lanes = np.flatnonzero(
            offset_of_lane + np.uint64(bits) > np.uint64(_WORD_BITS)
        )
        word_starts = np.flatnonzero(
            np.r_[True, word_of_lane[1:] != word_of_lane[:-1]]
        )
        table = (
            lcm // _WORD_BITS, codes_per_period,
            word_of_lane, offset_of_lane, spill_lanes, word_starts,
        )
        _LANE_TABLES[bits] = table
    return table


_LANE_TABLES: dict[int, tuple] = {}


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes needed to store ``count`` codes of ``bits`` bits each.

    >>> packed_nbytes(8, 8)
    8
    >>> packed_nbytes(3, 24)
    16
    """
    check_bits(bits)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    total_bits = count * bits
    words = (total_bits + _WORD_BITS - 1) // _WORD_BITS
    return words * 8


def code_dtype(bits: int) -> np.dtype:
    """The smallest unsigned dtype that holds every ``bits``-bit code.

    >>> code_dtype(12)
    dtype('uint16')
    """
    check_bits(bits)
    return np.dtype(f"u{next(b for b in (1, 2, 4, 8) if bits <= 8 * b)}")


def clip_code_range(lo: int, hi: int, dtype) -> tuple[np.integer, np.integer]:
    """The code range ``[lo, hi]`` as a pair of ``dtype`` scalars.

    What a code array of that dtype is compared and binary-searched
    against: a Python-int or wider bound would promote — copy — the whole
    array per call.  Bounds outside the dtype are clipped to it, which
    selects the same codes; a range holding no code of the dtype comes back
    as ``(1, 0)``, empty under comparison and ``searchsorted`` alike.
    """
    info = np.iinfo(dtype)
    lo, hi = max(int(lo), info.min), min(int(hi), info.max)
    if lo > hi:
        lo, hi = 1, 0
    return info.dtype.type(lo), info.dtype.type(hi)


def code_range_mask(codes: np.ndarray, lo: np.integer, hi: np.integer) -> np.ndarray:
    """``(codes >= lo) & (codes <= hi)`` as one unsigned compare.

    ``codes - lo <= hi - lo`` in the codes' own unsigned dtype: a code
    below ``lo`` wraps above every in-range difference.  ``lo`` and ``hi``
    are :func:`clip_code_range`'s pair for that dtype.  The empty range
    ``(1, 0)`` is answered without the subtraction — there ``hi - lo``
    itself wraps to the dtype's maximum and would select every row.
    """
    if codes.dtype.kind != "u":
        raise BitWidthError(f"codes must be unsigned, got dtype {codes.dtype}")
    if lo > hi:
        return np.zeros(codes.shape, dtype=bool)
    return codes - lo <= hi - lo


def _out_dtype(bits: int, dtype) -> np.dtype:
    """Validate a decode target: unsigned and at least ``bits`` wide."""
    dtype = np.dtype(dtype)
    if dtype.kind != "u" or dtype.itemsize < code_dtype(bits).itemsize:
        raise BitWidthError(f"{dtype} cannot hold {bits}-bit codes")
    return dtype


def _lane_shifts(bits: int) -> np.ndarray:
    """Bit offsets of the ``64 // bits`` code lanes inside one word."""
    per_word = _WORD_BITS // bits
    return (np.arange(per_word, dtype=np.uint64) * np.uint64(bits))


def _checked_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """``codes`` as a 1-D ``uint64`` array, every value fitting ``bits`` bits."""
    check_bits(bits)
    codes = np.ascontiguousarray(codes)
    if codes.ndim != 1:
        raise BitWidthError(f"codes must be 1-D, got shape {codes.shape}")
    if codes.shape[0] == 0:
        return np.empty(0, dtype=np.uint64)
    if codes.dtype.kind not in "iu":
        raise BitWidthError(f"codes must be integers, got dtype {codes.dtype}")
    if codes.dtype.kind == "i" and int(codes.min(initial=0)) < 0:
        raise BitWidthError("codes must be non-negative; decompose biases first")
    as_u64 = codes.astype(np.uint64, copy=False)
    if bits < _WORD_BITS and bool((as_u64 > np.uint64(mask(bits))).any()):
        raise BitWidthError(f"a code does not fit in {bits} bits")
    return as_u64


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack non-negative integer ``codes`` into a dense ``uint64`` stream.

    ``codes`` may be any integer dtype; every value must fit in ``bits``
    bits.  Returns the packed word array (possibly empty).
    """
    as_u64 = _checked_codes(codes, bits)
    n = as_u64.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64)

    n_words = packed_nbytes(n, bits) // 8

    if _is_aligned(bits):
        # Word-aligned fast path: lay the codes out as an (n_words, lanes)
        # matrix, shift each lane into place and OR-reduce the rows.
        per_word = _WORD_BITS // bits
        lanes = np.zeros(n_words * per_word, dtype=np.uint64)
        lanes[:n] = as_u64
        shifted = lanes.reshape(n_words, per_word) << _lane_shifts(bits)
        return np.bitwise_or.reduce(shifted, axis=1)

    words = np.zeros(n_words, dtype=np.uint64)

    # Block-aligned path: full lcm(bits, 64)-bit periods as a 2-D
    # (periods × lanes) problem, indexed by the per-width lane table only.
    period_words, cpb, word_of_lane, offset_of_lane, spill_lanes, word_starts = \
        _lane_table(bits)
    full = n // cpb
    if full:
        lanes = as_u64[: full * cpb].reshape(full, cpb)
        low = lanes << offset_of_lane[None, :]
        # Lanes starting in the same period word are adjacent: OR each run
        # with one segment reduction along the lane axis.
        blocks = np.bitwise_or.reduceat(low, word_starts, axis=1)
        if spill_lanes.size:
            # A spilling lane's high bits land at the bottom of the next
            # period word; at most one lane spills per word boundary, so
            # the targets are unique.  The last lane of a period ends
            # exactly on the period boundary and never spills.
            hi = lanes[:, spill_lanes] >> (
                np.uint64(_WORD_BITS) - offset_of_lane[spill_lanes]
            )
            blocks[:, word_of_lane[spill_lanes] + 1] |= hi
        words[: full * period_words] = blocks.reshape(-1)
    tail = n - full * cpb
    if tail:
        # Sub-period remainder (< codes_per_period ≤ 64 codes): per-code
        # index math on the word-aligned trailing slice.
        _pack_tail(words[full * period_words:], as_u64[full * cpb:], bits)
    return words


def _pack_tail(words: np.ndarray, codes: np.ndarray, bits: int) -> None:
    """Pack fewer than one period of codes into a zeroed word slice."""
    bit_pos = np.arange(len(codes), dtype=np.uint64) * np.uint64(bits)
    word_idx = (bit_pos >> np.uint64(6)).astype(np.int64)
    offset = bit_pos & np.uint64(_WORD_BITS - 1)
    # ``word_idx`` is non-decreasing, so the scatter-OR is a segment
    # reduction: OR each run of codes targeting the same word, then store
    # one value per distinct word.
    contrib = codes << offset
    starts = np.flatnonzero(np.r_[True, word_idx[1:] != word_idx[:-1]])
    words[word_idx[starts]] = np.bitwise_or.reduceat(contrib, starts)
    # Codes straddling a word boundary spill their high bits into the next
    # word.  ``offset`` is non-zero for every spilling code, so the shift
    # count ``64 - offset`` stays within [1, 63]; each boundary is straddled
    # by at most one code, so the spill targets are unique.
    spills = (offset + np.uint64(bits)) > np.uint64(_WORD_BITS)
    if bool(spills.any()):
        hi = codes[spills] >> (np.uint64(_WORD_BITS) - offset[spills])
        words[word_idx[spills] + 1] |= hi


def append_codes(
    words: np.ndarray, bits: int, count: int, codes: np.ndarray
) -> np.ndarray:
    """The packed stream of ``count`` codes extended by ``codes``.

    Equal to ``pack_codes(concatenate([unpack_codes(words, bits, count),
    codes]), bits)`` while re-packing only from the last period boundary:
    the word and code grids realign every ``lcm(bits, 64)`` bits, so the
    words before it are copied as they are and at most 63 carried codes are
    decoded and packed again in front of the new ones.  ``words`` is not
    written to.
    """
    new = _checked_codes(codes, bits)
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.nbytes < packed_nbytes(count, bits):  # rejects count < 0 itself
        raise BitWidthError(
            f"packed stream too short: {words.nbytes} bytes for "
            f"{count} codes of {bits} bits"
        )
    period_words, codes_per_period = _lane_table(bits)[:2]
    periods = count // codes_per_period
    kept = periods * period_words
    carried = unpack_codes(words[kept:], bits, count - periods * codes_per_period)
    tail = pack_codes(np.concatenate([carried, new]), bits)
    return np.concatenate([words[:kept], tail])


def unpack_codes(
    words: np.ndarray, bits: int, count: int, dtype=np.uint64
) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns ``count`` codes as ``dtype``.

    ``dtype`` is any unsigned type at least ``bits`` wide (see
    :func:`code_dtype`); the codes are written into it directly — the last
    pass over the 64-bit lanes stores narrow, no wide copy of the output is
    ever made.
    """
    check_bits(bits)
    dtype = _out_dtype(bits, dtype)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=dtype)
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.nbytes < packed_nbytes(count, bits):
        raise BitWidthError(
            f"packed stream too short: {words.nbytes} bytes for "
            f"{count} codes of {bits} bits"
        )
    code_mask = np.uint64(mask(bits))

    if _is_aligned(bits):
        # Word-aligned fast path: broadcast every word against its lane
        # shifts — no spills, no scatter.  The store truncates each lane to
        # the output width; only a narrower code still needs its mask.
        per_word = _WORD_BITS // bits
        n_words = packed_nbytes(count, bits) // 8
        out = np.empty(n_words * per_word, dtype=dtype)
        np.right_shift(
            words[:n_words, None], _lane_shifts(bits)[None, :],
            out=out.reshape(n_words, per_word), casting="unsafe",
        )
        if bits < 8 * dtype.itemsize:
            out &= dtype.type(code_mask)
        return out[:count]

    # Block-aligned path mirroring ``pack_codes``: full periods via the
    # lane table, the sub-period tail via per-code index math.
    period_words, cpb, word_of_lane, offset_of_lane, spill_lanes, _ = \
        _lane_table(bits)
    full = count // cpb
    out = np.empty(count, dtype=dtype)
    if full:
        blocks = words[: full * period_words].reshape(full, period_words)
        lanes = blocks[:, word_of_lane]
        np.right_shift(lanes, offset_of_lane[None, :], out=lanes)
        if spill_lanes.size:
            lanes[:, spill_lanes] |= blocks[:, word_of_lane[spill_lanes] + 1] << (
                np.uint64(_WORD_BITS) - offset_of_lane[spill_lanes]
            )
        np.bitwise_and(
            lanes, code_mask, out=out[: full * cpb].reshape(full, cpb),
            casting="unsafe",
        )
    tail = count - full * cpb
    if tail:
        out[full * cpb:] = (
            _unpack_tail(words[full * period_words:], bits, tail) & code_mask
        )
    return out


def unpack_codes_range(
    words: np.ndarray, bits: int, start: int, stop: int, dtype=np.uint64
) -> np.ndarray:
    """Decode codes ``[start, stop)`` of a packed stream.

    Equivalent to ``unpack_codes(words, bits, total)[start:stop]`` while
    touching only the words the range occupies — the rebuild primitive of
    segment-granular view eviction.  ``start * bits`` must land on a word
    boundary so the range decodes as a self-contained stream; any multiple
    of 64 codes qualifies for every width (codes-per-period
    ``64 / gcd(bits, 64)`` divides 64).
    """
    check_bits(bits)
    if not 0 <= start <= stop:
        raise ValueError(f"invalid code range [{start}, {stop})")
    if (start * bits) % _WORD_BITS:
        raise BitWidthError(
            f"range start {start} is not word-aligned for width {bits}"
        )
    words = np.ascontiguousarray(words, dtype=np.uint64)
    first_word = (start * bits) // _WORD_BITS
    return unpack_codes(words[first_word:], bits, stop - start, dtype)


def _unpack_tail(words: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Unpack fewer than one period of codes from a word-aligned slice."""
    bit_pos = np.arange(count, dtype=np.uint64) * np.uint64(bits)
    word_idx = (bit_pos >> np.uint64(6)).astype(np.int64)
    offset = bit_pos & np.uint64(_WORD_BITS - 1)
    out = words[word_idx] >> offset
    spills = (offset + np.uint64(bits)) > np.uint64(_WORD_BITS)
    if bool(spills.any()):
        hi = words[word_idx[spills] + 1] << (np.uint64(_WORD_BITS) - offset[spills])
        out[spills] |= hi
    return out


def gather_codes(
    words: np.ndarray, bits: int, count: int, positions: np.ndarray,
    dtype=np.uint64,
) -> np.ndarray:
    """Random-access read of codes at ``positions`` from a packed stream.

    Equivalent to ``unpack_codes(words, bits, count, dtype)[positions]`` but
    touches only the requested words — this is what a positional
    (invisible-join) lookup on a packed column does.  Positions that cover
    their span densely (a candidate set of most of a column, in any order)
    decode that span once and index it instead.
    """
    check_bits(bits)
    dtype = _out_dtype(bits, dtype)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    if positions.size == 0:
        return np.empty(0, dtype=dtype)
    first, last = int(positions.min()), int(positions.max())
    if first < 0 or last >= count:
        raise IndexError("gather position out of range")
    words = np.ascontiguousarray(words, dtype=np.uint64)

    start = first - first % 64  # word-aligned for every width
    if last + 1 - start <= _DENSE_SPAN_PER_POSITION * positions.size:
        span = unpack_codes_range(words, bits, start, last + 1, dtype)
        return span[positions - start if start else positions]

    aligned = _is_aligned(bits)
    if aligned:
        # Word-aligned fast path: position → (word, lane) by division only.
        per_word = _WORD_BITS // bits
        word_idx = positions // per_word
        offset = (positions % per_word).astype(np.uint64) * np.uint64(bits)
    else:
        bit_pos = positions.astype(np.uint64) * np.uint64(bits)
        word_idx = (bit_pos >> np.uint64(6)).astype(np.int64)
        offset = bit_pos & np.uint64(_WORD_BITS - 1)
    lanes = words[word_idx]
    lanes >>= offset
    if not aligned:
        spills = (offset + np.uint64(bits)) > np.uint64(_WORD_BITS)
        if bool(spills.any()):
            lanes[spills] |= words[word_idx[spills] + 1] << (
                np.uint64(_WORD_BITS) - offset[spills]
            )
    out = np.empty(len(positions), dtype=dtype)
    np.bitwise_and(lanes, np.uint64(mask(bits)), out=out, casting="unsafe")
    return out
