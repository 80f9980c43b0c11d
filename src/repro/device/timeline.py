"""Per-query timelines: the modeled-cost ledger.

Every kernel, bulk operator and bus transfer appends a :class:`Span`.  A
query's timeline then yields exactly the numbers the paper's stacked bar
charts report: seconds spent on the GPU, on the CPU and on the PCI-E bus
(Figs 9, 10), and the approximate-phase subtotal (the "Approximate" series
of Fig 8).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from ..util import format_seconds


class Span(NamedTuple):
    """One modeled unit of work (built when a ledger is read: a tuple, so
    that reading one costs what a tuple costs)."""

    device: str  # device name, e.g. "GTX 680"
    kind: str  # "gpu" | "cpu" | "bus"
    op: str  # operator label, e.g. "select.approx"
    nbytes: int
    seconds: float
    phase: str = "approximate"  # "approximate" | "refine" | "load"


@lru_cache(maxsize=1024)
def _labels(device: str, kind: str, op: str, phase: str) -> tuple[str, str, str, str]:
    """The one tuple every ledger charging this operator on this device
    refers to.  Callers format ``op`` per charge
    (``f"select.approx({label})"``); a ledger that kept its own four
    strings per span would be most of what a kept ``Result`` retains."""
    return device, kind, op, phase


class Timeline:
    """Ordered collection of spans with per-device aggregation.

    ``scale`` multiplies every recorded span's seconds — the fault layer's
    straggler model: a slowed device performs the same work, every charge
    stretched by the same factor.  The default ``1.0`` leaves seconds
    bit-for-bit untouched, preserving the byte-identity invariants.

    The ledger is held by column — per span one shared label tuple and two
    unboxed numbers — because callers keep a ``Result``, and with it this,
    for every query they ran; :class:`Span` objects are built when read.
    """

    __slots__ = ("scale", "_heads", "_nbytes", "_seconds")

    def __init__(self, *, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("timeline scale must be positive")
        self.scale = scale
        self._heads: list[tuple[str, str, str, str]] = []
        self._nbytes = array("q")
        self._seconds = array("d")

    # ------------------------------------------------------------------
    def record(
        self,
        device: str,
        kind: str,
        op: str,
        nbytes: int,
        seconds: float,
        phase: str = "approximate",
    ) -> None:
        if seconds < 0 or nbytes < 0:
            raise ValueError("spans must have non-negative cost")
        if self.scale != 1.0:
            seconds = seconds * self.scale
        self._nbytes.append(nbytes)
        self._seconds.append(seconds)
        self._heads.append(_labels(device, kind, op, phase))

    def extend(self, other: "Timeline") -> None:
        self._heads += other._heads
        self._nbytes += other._nbytes
        self._seconds += other._seconds

    # ------------------------------------------------------------------
    def span_tuples(self) -> list[tuple]:
        """The spans as plain comparable tuples.

        The byte-identity currency of the charge-neutrality tests: two
        executions are modeled-equal iff their span tuple lists compare
        equal (same operators, bytes, seconds and phases, in order).
        """
        return [
            (device, kind, op, nbytes, seconds, phase)
            for (device, kind, op, phase), nbytes, seconds
            in zip(self._heads, self._nbytes, self._seconds)
        ]

    @property
    def spans(self) -> list[Span]:
        return [
            Span(device, kind, op, nbytes, seconds, phase)
            for (device, kind, op, phase), nbytes, seconds
            in zip(self._heads, self._nbytes, self._seconds)
        ]

    def __len__(self) -> int:
        return len(self._heads)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def spans_equal(self, other: "Timeline") -> bool:
        """True when both ledgers are span-for-span byte-identical."""
        return self.span_tuples() == other.span_tuples()

    # ------------------------------------------------------------------
    # Aggregations used by the figures
    # ------------------------------------------------------------------
    def total_seconds(self, *, phases: Iterable[str] | None = None) -> float:
        """Sum of all span durations (serial execution model)."""
        if phases is None:
            return sum(self._seconds)
        phases = set(phases)
        return sum(
            seconds for head, seconds in zip(self._heads, self._seconds)
            if head[3] in phases
        )

    def seconds_by_kind(self, *, phases: Iterable[str] | None = None) -> dict[str, float]:
        """GPU/CPU/PCI breakdown — the stacked bars of Figs 9 and 10."""
        phases = None if phases is None else set(phases)
        out: dict[str, float] = {}
        for (_, kind, _, phase), seconds in zip(self._heads, self._seconds):
            if phases is not None and phase not in phases:
                continue
            out[kind] = out.get(kind, 0.0) + seconds
        return out

    def approximate_seconds(self) -> float:
        """Duration of the approximation subplan (Fig 8's red series)."""
        return self.total_seconds(phases=("approximate",))

    def refine_seconds(self) -> float:
        return self.total_seconds(phases=("refine",))

    def bytes_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_, kind, _, _), nbytes in zip(self._heads, self._nbytes):
            out[kind] = out.get(kind, 0) + nbytes
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Readable multi-line report (for EXPLAIN ANALYZE-style output)."""
        lines = ["timeline:"]
        for s in self.spans:
            lines.append(
                f"  [{s.kind:>3}] {s.device:<18} {s.op:<28} "
                f"{s.phase:<11} {format_seconds(s.seconds)}"
            )
        for kind, secs in sorted(self.seconds_by_kind().items()):
            lines.append(f"  total {kind}: {format_seconds(secs)}")
        lines.append(f"  total: {format_seconds(self.total_seconds())}")
        return "\n".join(lines)
