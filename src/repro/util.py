"""Small shared helpers: bit math, formatting, deterministic RNG."""

from __future__ import annotations

import numpy as np

from .errors import BitWidthError

#: Largest code width we pack; matches a machine word.
MAX_BITS = 64


def bits_for_range(span: int) -> int:
    """Number of bits needed to represent values ``0 .. span`` inclusive.

    >>> bits_for_range(0)
    1
    >>> bits_for_range(1)
    1
    >>> bits_for_range(255)
    8
    >>> bits_for_range(256)
    9
    """
    if span < 0:
        raise BitWidthError(f"span must be non-negative, got {span}")
    return max(1, int(span).bit_length())


def check_bits(bits: int, *, lo: int = 1, hi: int = MAX_BITS) -> int:
    """Validate a bit width, returning it unchanged."""
    if not isinstance(bits, (int, np.integer)):
        raise BitWidthError(f"bit width must be an int, got {type(bits).__name__}")
    if not lo <= bits <= hi:
        raise BitWidthError(f"bit width must be in [{lo}, {hi}], got {bits}")
    return int(bits)


def mask(bits: int) -> int:
    """All-ones mask of ``bits`` bits (``mask(3) == 0b111``)."""
    check_bits(bits, lo=0)
    return (1 << bits) - 1


def format_bytes(n: int) -> str:
    """Human-readable byte count (``format_bytes(2048) == '2.0 KiB'``)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    """Human-readable duration with ms/µs granularity."""
    if s >= 1.0:
        return f"{s:.3f} s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f} ms"
    return f"{s * 1e6:.1f} µs"


def rng(seed: int | None) -> np.random.Generator:
    """Deterministic NumPy generator; ``None`` means nondeterministic."""
    return np.random.default_rng(seed)


def as_index_array(values: np.ndarray | list[int]) -> np.ndarray:
    """Coerce to a contiguous int64 index array (oids)."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"index array must be 1-D, got shape {arr.shape}")
    return arr


def unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` over integer keys, sort-free
    when it can be.

    Group numbering everywhere is "rank among the sorted distinct keys".
    When the keys span no more values than there are keys — dictionary
    codes, dates and composite group ids always do — that rank is a running
    count over a presence table, O(n + span); sparse keys are sorted,
    O(n log n).  The switch reads only the keys, and both sides return the
    same ``(sorted uniques, int64 inverse)``.  Unsigned keys are read at
    their own width; any other dtype is taken as int64.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind != "u":
        keys = keys.astype(np.int64, copy=False)
    if keys.size == 0:
        return keys, np.empty(0, dtype=np.int64)
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1  # Python ints: a 2**64 span cannot wrap
    if span > keys.size:
        uniques, inverse = np.unique(keys, return_inverse=True)
        return uniques, inverse.astype(np.int64, copy=False)
    offsets = np.subtract(
        keys, lo, out=np.empty(keys.shape, dtype=np.int64), casting="unsafe"
    )
    present = np.bincount(offsets, minlength=span) > 0
    uniques = np.flatnonzero(present).astype(keys.dtype) + lo
    if uniques.size == span:  # every value occurs: offsets are the ranks
        return uniques, offsets
    return uniques, (np.cumsum(present) - 1)[offsets]
