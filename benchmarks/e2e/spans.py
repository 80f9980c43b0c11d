"""The benchmark's own span recorder, timed from outside the program.

Every call the benchmark makes across a layer boundary is wrapped in a
span ``{name, start, end, parent, op_id}`` kept in memory and written out
when the pass ends.  The program's public ``repro.obs.trace.Tracer`` runs
beside it; its spans (``plan``, ``execute.ar``, ``batch.form``,
``query#N``, ``shard.merge``, ...) are grafted under the benchmark span
that was open while they ran.  Both use ``time.perf_counter``, so the two
clocks line up without translation.

A span's *self time* is its duration minus the part its children cover.
"""

from __future__ import annotations

import re
from time import perf_counter

#: Span-name prefix -> layer (a ``src/repro`` module).  First match wins.
#: The root ``op``/``wave`` span belongs to the harness: its self time is
#: what the benchmark spent between the calls it wrapped.
LAYER_OF = (
    ("sql.", "sql"),
    ("plan", "opt"),
    ("execute.", "engine"),
    ("query", "engine"),
    ("result.read", "engine"),
    ("serve.", "serve"),
    ("batch.form", "serve"),
    ("exec", "serve"),
    ("ingest.", "ingest"),
    ("shard.", "shard"),
    ("attempt", "shard"),
    ("hedge.", "faults"),
    ("fault.", "faults"),
    ("op", "harness"),
    ("wave", "harness"),
)

_NAME_SUFFIX = re.compile(r"[#: ].*$")


def layer_of(name: str, solo: bool) -> str:
    if name == "exec" and solo:
        return "engine"  # Session.query, not the scheduler's result loop
    for prefix, layer in LAYER_OF:
        if name.startswith(prefix):
            return layer
    return "other"


class Recorder:
    """Append-only span store; indices are span ids."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int | None] = []
        self.op_id: list[str] = []
        self.source: list[str] = []
        #: the program's own span arguments (``cached``, ``rows``, ...)
        self.args: list[dict] = []
        #: ``(exec span, first tracer root, one past the last)`` — which
        #: finished ``Tracer.traces`` belong to which ``exec`` span.
        self.exec_traces: list[tuple[int, int, int]] = []

    def begin(self, name: str, parent: int | None, op_id: str) -> int:
        self.name.append(name)
        self.parent.append(parent)
        self.op_id.append(op_id)
        self.source.append("bench")
        self.args.append({})
        self.end.append(0.0)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def finish(self, span: int) -> None:
        self.end[span] = perf_counter()

    def __len__(self) -> int:
        return len(self.name)

    # ------------------------------------------------------------------
    def _add(self, name, start, end, parent, op_id, args) -> int:
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op_id.append(op_id)
        self.source.append("tracer")
        self.args.append(args)
        return len(self.start) - 1

    def graft(self, traces: list, seq_ids: dict[int, str]) -> int:
        """Attach the program's finished traces under their ``exec`` spans.

        Inside one root the program's spans nest by time (the engine is
        single-threaded), so a span's parent is the innermost earlier span
        that still contains it.  The synthetic ``modeled.*`` tracks carry
        modeled seconds, not wall timestamps, and are skipped.  ``seq_ids``
        maps a scheduler sequence number to the benchmark's query id so a
        ``query#N`` span shares the id of the query it ran.  Returns the
        number of program spans grafted.
        """
        grafted = 0
        for exec_span, lo, hi in self.exec_traces:
            for qt in traces[lo:hi]:
                root = self._add(
                    _NAME_SUFFIX.sub("", qt.name), qt.epoch,
                    qt.epoch + qt.wall_seconds, exec_span,
                    self.op_id[exec_span], {},
                )
                grafted += 1
                stack = [root]
                wall = [s for s in qt.spans if not s.track.startswith("modeled.")]
                for s in sorted(wall, key=lambda s: (s.start, -s.dur)):
                    start = qt.epoch + s.start
                    end = start + s.dur
                    while len(stack) > 1 and self.end[stack[-1]] < end:
                        stack.pop()
                    op_id = self.op_id[stack[-1]]
                    if s.name.startswith("query#"):
                        op_id = seq_ids.get(int(s.name[6:]), op_id)
                    stack.append(self._add(
                        _NAME_SUFFIX.sub("", s.name), start, end,
                        stack[-1], op_id, s.args,
                    ))
                    grafted += 1
        return grafted

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        covered = [0.0] * len(self)
        for i, parent in enumerate(self.parent):
            if parent is not None:
                covered[parent] += self.end[i] - self.start[i]
        return [
            max(0.0, self.end[i] - self.start[i] - covered[i])
            for i in range(len(self))
        ]

    def spans_named(self, *names: str) -> list[int]:
        return [i for i in range(len(self)) if self.name[i] in names]

    def durations(self, *names: str) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.spans_named(*names)]

    def layer_self_seconds(self, solo: bool) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, t in enumerate(self.self_times()):
            layer = layer_of(self.name[i], solo)
            out[layer] = out.get(layer, 0.0) + t
        return out

    def root_seconds(self) -> float:
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self)) if self.parent[i] is None
        )

    def problems(self) -> list[str]:
        """Structural faults: dangling parents, children outliving parents."""
        out = []
        for i, parent in enumerate(self.parent):
            if parent is None:
                continue
            if not 0 <= parent < len(self):
                out.append(f"span {i} ({self.name[i]}): parent {parent} missing")
            elif (
                self.start[i] < self.start[parent] - 1e-9
                or self.end[i] > self.end[parent] + 1e-9
            ):
                out.append(
                    f"span {i} ({self.name[i]}) escapes its parent "
                    f"{parent} ({self.name[parent]})"
                )
        return out

    def to_json(self, solo: bool) -> list[dict]:
        t0 = self.start[0] if self.start else 0.0
        self_times = self.self_times()
        return [
            {
                "id": i, "name": self.name[i],
                "layer": layer_of(self.name[i], solo),
                "start": self.start[i] - t0, "end": self.end[i] - t0,
                "self": self_times[i], "parent": self.parent[i],
                "op_id": self.op_id[i], "source": self.source[i],
            }
            for i in range(len(self))
        ]
