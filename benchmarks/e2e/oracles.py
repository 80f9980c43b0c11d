"""NumPy reference answers for every operation the benchmark issues.

The program's own invariants (``ar`` == ``classic``, byte-identical
ledgers) are self-consistency checks.  These references are computed from
the *generated arrays* — never from anything the program returned — so a
bug that moves both execution modes together still fails the run.

Every ``check_*`` function raises :class:`Mismatch` when the answer is
wrong and otherwise returns the number of exactly qualifying rows (or
pairs), which the ``core.refine_survival_ratio`` collector divides by the
program's candidate count.
"""

from __future__ import annotations

from datetime import date

import numpy as np

_EPOCH = date(1970, 1, 1).toordinal()


class Mismatch(AssertionError):
    """The program's answer differs from the reference."""


def iso_day(day: int) -> str:
    """ISO text of a day number (days since 1970-01-01)."""
    return date.fromordinal(int(day) + _EPOCH).isoformat()


def day_of(year: int, month: int = 1) -> int:
    return date(year, month, 1).toordinal() - _EPOCH


def _expect(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: program {got!r} != reference {want!r}")


def _scalar(answer: dict, name: str) -> int:
    col = answer[name]
    if len(col) != 1:
        raise Mismatch(f"{name}: expected one row, got {len(col)}")
    return int(col[0])


class SortedColumn:
    """A value column sorted once, with prefix sums, for window lookups."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.int64)
        self.order = np.argsort(values, kind="stable")
        self.sorted = values[self.order]
        self.prefix = np.concatenate(([0], np.cumsum(self.sorted)))

    def window(self, lo: int, hi: int) -> tuple[int, int]:
        """Slice bounds of the rows with ``lo <= value <= hi``."""
        return (
            int(np.searchsorted(self.sorted, lo, side="left")),
            int(np.searchsorted(self.sorted, hi, side="right")),
        )

    def count_sum(self, lo: int, hi: int) -> tuple[int, int]:
        a, b = self.window(lo, hi)
        return b - a, int(self.prefix[b] - self.prefix[a])


def band_pairs(left: np.ndarray, right_sorted: np.ndarray, d: int) -> int:
    """Pairs with ``|l - r| <= d`` by a sorted sweep over ``right``."""
    hi = np.searchsorted(right_sorted, left + d, side="right")
    lo = np.searchsorted(right_sorted, left - d, side="left")
    return int((hi - lo).sum())


# ----------------------------------------------------------------------
# serve.* / shard.* (windows over one integer column)
# ----------------------------------------------------------------------
def check_window_count(answer, base: SortedColumn, appended, lo, hi) -> int:
    """``count(*) where value between lo and hi`` over base + visible delta."""
    n, _ = base.count_sum(lo, hi)
    if len(appended):
        n += int(((appended >= lo) & (appended <= hi)).sum())
    _expect("n", _scalar(answer, "n"), n)
    return n


def check_window_sum_count(answer, base: SortedColumn, lo, hi) -> int:
    n, s = base.count_sum(lo, hi)
    _expect("n", _scalar(answer, "n"), n)
    _expect("s", _scalar(answer, "s"), s)
    return n


def check_window_groups(answer, base: SortedColumn, bucket, lo, hi) -> int:
    """``group by bucket`` of count and sum over a value window."""
    a, b = base.window(lo, hi)
    keys = bucket[base.order[a:b]]
    counts = np.bincount(keys)
    # window sums stay far below 2**53, so float64 weights are exact
    sums = np.bincount(keys, weights=base.sorted[a:b]).astype(np.int64)
    want = {
        int(k): (int(counts[k]), int(sums[k])) for k in np.flatnonzero(counts)
    }
    got = {
        int(k): (int(n), int(s))
        for k, n, s in zip(answer["bucket"], answer["n"], answer["s"])
    }
    _expect("groups", got, want)
    return b - a


def check_window_band(answer, base: SortedColumn, pivots_sorted, lo, hi, d) -> int:
    """Band-join pair count of the window's rows against sorted pivots."""
    a, b = base.window(lo, hi)
    n = band_pairs(base.sorted[a:b], pivots_sorted, d)
    _expect("n", _scalar(answer, "n"), n)
    return n


# ----------------------------------------------------------------------
# solo.* (TPC-H shaped)
# ----------------------------------------------------------------------
def check_band(answer, left, right_sorted, d) -> int:
    n = band_pairs(left, right_sorted, d)
    _expect("n", _scalar(answer, "n"), n)
    return n


def _q6_reference(li, day_lo, day_hi, disc_lo, disc_hi, qty_below):
    mask = (
        (li["shipdate"] >= day_lo) & (li["shipdate"] < day_hi)
        & (li["discount"] >= disc_lo) & (li["discount"] <= disc_hi)
        & (li["quantity"] < qty_below)
    )
    revenue = int((li["extendedprice"][mask] * li["discount"][mask]).sum())
    return int(mask.sum()), revenue


def check_q6(answer, li, *args) -> int:
    rows, revenue = _q6_reference(li, *args)
    _expect("revenue", _scalar(answer, "revenue"), revenue)
    return rows


def check_q6_interval(bounds, li, *args) -> int:
    """``approximate`` mode: the strict interval must contain the truth."""
    rows, revenue = _q6_reference(li, *args)
    interval = bounds.get("revenue")
    if interval is None or not (interval.lo <= revenue <= interval.hi):
        raise Mismatch(f"revenue: {interval!r} does not contain {revenue}")
    return rows


def check_q14(answer, li, promo_parts, day_lo, day_hi) -> int:
    mask = (li["shipdate"] >= day_lo) & (li["shipdate"] < day_hi)
    price = li["extendedprice"][mask] * (100 - li["discount"][mask])
    promo = promo_parts[li["partkey"][mask]]
    _expect("total_revenue", _scalar(answer, "total_revenue"), int(price.sum()))
    _expect(
        "promo_revenue", _scalar(answer, "promo_revenue"),
        int(price[promo].sum()),
    )
    return int(mask.sum())


def check_selection(answer, li, day_lo, day_hi, qty_lo, qty_hi) -> int:
    mask = (
        (li["shipdate"] >= day_lo) & (li["shipdate"] <= day_hi)
        & (li["quantity"] >= qty_lo) & (li["quantity"] <= qty_hi)
    )
    _expect("n", _scalar(answer, "n"), int(mask.sum()))
    _expect("s", _scalar(answer, "s"), int(li["extendedprice"][mask].sum()))
    return int(mask.sum())


def check_q1(answer, li, cutoff_day) -> int:
    mask = li["shipdate"] <= cutoff_day
    key = li["returnflag"][mask] * 2 + li["linestatus"][mask]
    qty = li["quantity"][mask]
    ext = li["extendedprice"][mask]
    disc = li["discount"][mask]
    disc_price = ext * (100 - disc)
    charge = disc_price * (100 + li["tax"][mask])
    want = {}
    for k in np.unique(key):
        g = key == k
        n = int(g.sum())
        sums = [int(c[g].sum()) for c in (qty, ext, disc_price, charge)]
        avgs = [int(c[g].sum()) / n for c in (qty, ext, disc)]
        want[(int(k) // 2, int(k) % 2)] = (sums, avgs, n)
    got = {}
    for i, (rf, ls) in enumerate(zip(answer["returnflag"], answer["linestatus"])):
        sums = [
            int(answer[c][i]) for c in
            ("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge")
        ]
        avgs = [float(answer[c][i]) for c in ("avg_qty", "avg_price", "avg_disc")]
        got[(int(rf), int(ls))] = (sums, avgs, int(answer["count_order"][i]))
    _expect("groups", sorted(got), sorted(want))
    for group, (sums, avgs, n) in want.items():
        g_sums, g_avgs, g_n = got[group]
        _expect(f"sums{group}", g_sums, sums)
        _expect(f"count{group}", g_n, n)
        if not np.allclose(g_avgs, avgs, rtol=1e-12, atol=0.0):
            raise Mismatch(f"avgs{group}: program {g_avgs} != reference {avgs}")
    return int(mask.sum())


def check_twin(answer: dict, twin: dict, keys: tuple[str, ...]) -> None:
    """``ar`` and ``classic`` must return equal columns (rows sorted by keys)."""
    _expect("columns", sorted(answer), sorted(twin))

    def ordered(columns):
        if not keys:
            return columns
        order = np.lexsort(tuple(columns[k] for k in reversed(keys)))
        return {name: np.asarray(col)[order] for name, col in columns.items()}

    a, b = ordered(answer), ordered(twin)
    for name in a:
        if not np.array_equal(a[name], b[name]):
            raise Mismatch(f"{name}: ar {a[name]!r} != classic {b[name]!r}")
