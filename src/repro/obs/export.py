"""Trace exporters: Chrome-trace-event JSON and a terminal renderer.

The JSON follows the Chrome trace-event format (the Perfetto legacy
loader understands it natively): one *process* per trace per clock
domain — ``pid 2k`` holds the wall-clock tracks of trace *k* (query,
scheduler, one track per shard, ingest), ``pid 2k+1`` holds the modeled
tracks laid out by :meth:`QueryTrace.add_timeline` — so the real
execution and the paper's sequential device occupancy sit side by side
in the UI.  Retry chains and hedges are linked with flow events
(``ph: s``/``f``); breaker transitions, hedge decisions and watermark
crossings render as instants.

All timestamps are microseconds relative to each trace's epoch.
"""

from __future__ import annotations

import json

#: Tracks produced by :meth:`QueryTrace.add_timeline` live in the
#: modeled clock domain; everything else is wall clock.
_MODELED_TRACK_PREFIX = "modeled."


def _is_modeled_track(track: str) -> bool:
    return track.startswith(_MODELED_TRACK_PREFIX)


def chrome_trace_events(traces) -> list[dict]:
    """Flatten finished :class:`QueryTrace`\\ s into trace-event dicts."""
    events: list[dict] = []
    for k, qt in enumerate(traces):
        wall_pid = 2 * k
        modeled_pid = 2 * k + 1
        events.append({
            "ph": "M", "name": "process_name", "pid": wall_pid, "tid": 0,
            "args": {"name": f"{qt.name} [wall]"},
        })
        tids: dict[str, int] = {}

        def tid_for(track: str) -> int:
            if track not in tids:
                pid = modeled_pid if _is_modeled_track(track) else wall_pid
                tid = len(tids)
                tids[track] = tid
                events.append({
                    "ph": "M", "name": "thread_name",
                    "pid": pid, "tid": tid, "args": {"name": track},
                })
                events.append({
                    "ph": "M", "name": "thread_sort_index",
                    "pid": pid, "tid": tid,
                    "args": {"sort_index": tid},
                })
            return tids[track]

        emitted_modeled_meta = False
        for rec in qt.spans:
            modeled_track = _is_modeled_track(rec.track)
            if modeled_track and not emitted_modeled_meta:
                events.append({
                    "ph": "M", "name": "process_name",
                    "pid": modeled_pid, "tid": 0,
                    "args": {"name": f"{qt.name} [modeled]"},
                })
                emitted_modeled_meta = True
            pid = modeled_pid if modeled_track else wall_pid
            tid = tid_for(rec.track)
            args = dict(rec.args)
            args["wall_ms"] = round(rec.dur * 1e3, 6)
            if rec.modeled is not None:
                args["modeled_ms"] = round(rec.modeled * 1e3, 6)
            ts = rec.start * 1e6
            events.append({
                "ph": "X", "name": rec.name, "cat": "span",
                "pid": pid, "tid": tid,
                "ts": ts, "dur": max(rec.dur * 1e6, 0.001),
                "args": args,
            })
            if rec.flow_out is not None:
                events.append({
                    "ph": "s", "name": "flow", "cat": "flow",
                    "id": f"{qt.trace_id}.{rec.flow_out}",
                    "pid": pid, "tid": tid,
                    "ts": ts + max(rec.dur * 1e6, 0.001),
                })
            if rec.flow_in is not None:
                events.append({
                    "ph": "f", "bp": "e", "name": "flow", "cat": "flow",
                    "id": f"{qt.trace_id}.{rec.flow_in}",
                    "pid": pid, "tid": tid, "ts": ts,
                })
        for inst in qt.instants:
            pid = (
                modeled_pid if _is_modeled_track(inst.track) else wall_pid
            )
            events.append({
                "ph": "i", "s": "t", "name": inst.name, "cat": "instant",
                "pid": pid, "tid": tid_for(inst.track),
                "ts": inst.at * 1e6, "args": dict(inst.args),
            })
    return events


def export_chrome_trace(traces, path) -> int:
    """Write traces as one Chrome-trace JSON file; returns event count."""
    events = chrome_trace_events(traces)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"traces": len(list(traces))},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(events)


# ----------------------------------------------------------------------
def render_trace(qt) -> str:
    """A terminal tree of one trace: wall and modeled ms side by side."""
    lines = [
        f"trace #{qt.trace_id} {qt.name!r}  "
        f"wall={qt.wall_seconds * 1e3:.3f} ms"
    ]
    tracks: dict[str, list] = {}
    for rec in qt.spans:
        tracks.setdefault(rec.track, []).append(rec)
    instants: dict[str, list] = {}
    for inst in qt.instants:
        instants.setdefault(inst.track, []).append(inst)
    for track in tracks:
        lines.append(f"  [{track}]")
        for rec in tracks[track]:
            pad = "    " + "  " * rec.depth
            modeled = (
                f"  modeled={rec.modeled * 1e3:.3f} ms"
                if rec.modeled is not None else ""
            )
            extra = ""
            interesting = {
                k: v for k, v in rec.args.items()
                if k in ("error", "attempt", "shard", "hedge", "phase",
                         "cached", "queries", "rows", "path", "rebuilt")
            }
            if interesting:
                extra = "  " + ", ".join(
                    f"{k}={v}" for k, v in interesting.items()
                )
            lines.append(
                f"{pad}{rec.name}  wall={rec.dur * 1e3:.3f} ms"
                f"{modeled}{extra}"
            )
        for inst in instants.pop(track, []):
            args = ", ".join(f"{k}={v}" for k, v in inst.args.items())
            lines.append(
                f"    * {inst.name} @ {inst.at * 1e3:.3f} ms"
                + (f"  ({args})" if args else "")
            )
    for track, rest in instants.items():
        lines.append(f"  [{track}]")
        for inst in rest:
            args = ", ".join(f"{k}={v}" for k, v in inst.args.items())
            lines.append(
                f"    * {inst.name} @ {inst.at * 1e3:.3f} ms"
                + (f"  ({args})" if args else "")
            )
    return "\n".join(lines)
