"""Chrome trace-event export and the ASCII trace viewer.

One viewer for everything: recorded span trees (``repro plan --trace
out.json``), fleet simulation timelines (``repro fleet --trace-out``)
and daemon event rings all export to the Chrome trace-event JSON
format, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

The emitted document is the standard ``{"traceEvents": [...]}`` object
form.  Spans become ``"X"`` (complete) events with ``ts`` / ``dur`` in
integer microseconds from the earliest record in the document (fleet
timelines: from simulated time zero); point-in-time records
(structured events, fleet re-plans, cap changes, drift wakes) become
``"i"`` (instant) events.  Span attributes
and the trace id ride in ``args`` so they are searchable in the viewer.

:func:`format_trace` is the terminal fallback (``repro trace view``):
an indented ASCII tree with durations, built from the same JSON file,
for when no browser is at hand.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from .trace import Span

#: Chrome trace timestamps are microseconds.
_US = 1_000_000.0


def _us(seconds: float) -> int:
    """Seconds -> integer microseconds.

    Each span's end is rounded from its own end time rather than by
    adding a rounded duration, so spans that abut in seconds abut
    exactly in the document and the viewer never reads a sub-µs
    overlap as nesting.
    """
    return round(seconds * _US)


def _tid_mapper():
    """Map arbitrary thread/track names to small stable integer tids."""
    tids: Dict[str, int] = {}

    def tid_for(name: str) -> int:
        if name not in tids:
            tids[name] = len(tids) + 1
        return tids[name]

    return tids, tid_for


def spans_to_chrome(spans: Sequence[Span], events: Iterable[dict] = ()
                    ) -> dict:
    """Spans (+ optional structured events) as a Chrome trace document.

    Accepts :class:`~repro.obs.trace.Span` objects or their
    ``to_dict()`` form, so traces round-trip through JSON.
    """
    trace_events: List[dict] = []
    tids, tid_for = _tid_mapper()
    records = [span_.to_dict() if isinstance(span_, Span) else dict(span_)
               for span_ in spans]
    events = [dict(event) for event in events]
    # Trace-relative: epoch seconds as float µs (~1.8e15) have an ULP
    # of ~0.25 µs, enough to make back-to-back spans overlap.
    base_s = min([record["start_s"] for record in records]
                 + [float(event.get("ts", 0.0)) for event in events],
                 default=0.0)
    for record in records:
        start_s = record["start_s"] - base_s
        end_s = (record["start_s"]
                 + max(record.get("duration_s", 0.0), 0.0)) - base_s
        args = dict(record.get("attrs") or {})
        args["trace_id"] = record.get("trace_id")
        if record.get("span_id"):
            args["span_id"] = record["span_id"]
        if record.get("parent_id"):
            args["parent_id"] = record["parent_id"]
        trace_events.append({
            "name": record["name"],
            "ph": "X",
            "ts": _us(start_s),
            "dur": _us(end_s) - _us(start_s),
            "pid": 1,
            "tid": tid_for(record.get("thread") or "main"),
            "cat": "span",
            "args": {k: v for k, v in args.items() if v is not None},
        })
    for event in events:
        ts = float(event.pop("ts", 0.0)) - base_s
        kind = event.pop("kind", "event")
        trace_events.append({
            "name": kind,
            "ph": "i",
            "ts": _us(ts),
            "pid": 1,
            "tid": tid_for("events"),
            "cat": "event",
            "s": "t",
            "args": {k: v for k, v in event.items() if v is not None},
        })
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": name}}
        for name, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms"}


def fleet_timeline_to_chrome(timeline: Sequence[dict]) -> dict:
    """A :class:`FleetSimulator` timeline as a Chrome trace document.

    Timeline entries are the dicts the simulator appends when run with
    ``record_timeline=True``: ``{"kind": "job", "job": ..., "start_s":
    ..., "end_s": ...}`` become per-job ``"X"`` tracks; everything else
    (re-plans, cap changes, drift wakes, straggler onsets) becomes an
    ``"i"`` instant on a shared control track.
    """
    trace_events: List[dict] = []
    tids, tid_for = _tid_mapper()
    for entry in timeline:
        entry = dict(entry)
        kind = entry.pop("kind", "event")
        if kind == "job":
            start_s = float(entry.pop("start_s", 0.0))
            end_s = float(entry.pop("end_s", start_s))
            job = str(entry.pop("job", "job"))
            trace_events.append({
                "name": job,
                "ph": "X",
                "ts": _us(start_s),
                "dur": max(_us(end_s) - _us(start_s), 0),
                "pid": 1,
                "tid": tid_for(f"job:{job}"),
                "cat": "job",
                "args": {k: v for k, v in entry.items() if v is not None},
            })
        else:
            ts = float(entry.pop("t_s", entry.pop("ts", 0.0)))
            trace_events.append({
                "name": kind,
                "ph": "i",
                "ts": _us(ts),
                "pid": 1,
                "tid": tid_for("fleet"),
                "cat": "fleet",
                "s": "t",
                "args": {k: v for k, v in entry.items() if v is not None},
            })
    metadata = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
         "args": {"name": name}}
        for name, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms"}


def save_chrome_trace(path: str, spans: Sequence[Span],
                      events: Iterable[dict] = ()) -> dict:
    """Write :func:`spans_to_chrome` output to ``path``; returns it."""
    document = spans_to_chrome(spans, events)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=2, sort_keys=True, default=str)
        fp.write("\n")
    return document


def load_chrome_trace(path: str) -> dict:
    """Read a Chrome trace document written by this module (or anyone)."""
    with open(path, "r", encoding="utf-8") as fp:
        document = json.load(fp)
    if isinstance(document, list):  # array form is also legal
        document = {"traceEvents": document}
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a Chrome trace-event document")
    return document


def _fmt_dur(duration_us: float) -> str:
    if duration_us >= 1e6:
        return f"{duration_us / 1e6:.3f}s"
    if duration_us >= 1e3:
        return f"{duration_us / 1e3:.2f}ms"
    return f"{duration_us:.0f}us"


def format_trace(document: dict, width: int = 72) -> str:
    """ASCII tree summary of a Chrome trace document.

    Nesting is reconstructed per track by timestamp containment (a
    span is a child of the nearest span that encloses it), which holds
    for traces produced by :mod:`repro.obs.trace` since children open
    and close inside their parent.
    """
    complete = [e for e in document.get("traceEvents", [])
                if e.get("ph") == "X"]
    instants = [e for e in document.get("traceEvents", [])
                if e.get("ph") == "i"]
    names = {}
    for e in document.get("traceEvents", []):
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e.get("tid")] = e.get("args", {}).get("name", "")
    if not complete and not instants:
        return "(empty trace)"

    lines: List[str] = []
    base_ts = min(float(e.get("ts", 0.0))
                  for e in complete + instants)
    by_tid: Dict[object, List[dict]] = {}
    for e in complete:
        by_tid.setdefault(e.get("tid"), []).append(e)

    for tid in sorted(by_tid, key=lambda t: str(t)):
        track = sorted(by_tid[tid],
                       key=lambda e: (float(e.get("ts", 0.0)),
                                      -float(e.get("dur", 0.0))))
        label = names.get(tid) or f"tid {tid}"
        lines.append(f"[{label}]")
        stack: List[dict] = []  # enclosing spans, outermost first
        for e in track:
            ts = float(e.get("ts", 0.0))
            while stack:
                top = stack[-1]
                top_end = (float(top.get("ts", 0.0))
                           + float(top.get("dur", 0.0)))
                if ts < top_end:
                    break
                stack.pop()
            depth = len(stack)
            offset = _fmt_dur(ts - base_ts)
            name = str(e.get("name", "?"))
            dur = _fmt_dur(float(e.get("dur", 0.0)))
            pad = "  " * depth
            head = f"  {pad}{name}"
            tail = f"{dur}  @+{offset}"
            gap = max(width - len(head) - len(tail), 2)
            lines.append(head + " " * gap + tail)
            stack.append(e)
        lines.append("")

    if instants:
        lines.append("[instants]")
        for e in sorted(instants, key=lambda e: float(e.get("ts", 0.0))):
            offset = _fmt_dur(float(e.get("ts", 0.0)) - base_ts)
            args = e.get("args") or {}
            detail = " ".join(f"{k}={args[k]}" for k in sorted(args)
                              if k not in ("trace_id",))
            lines.append(f"  @+{offset}  {e.get('name', '?')}"
                         + (f"  {detail}" if detail else ""))
        lines.append("")

    trace_ids = sorted({
        str((e.get("args") or {}).get("trace_id"))
        for e in complete + instants
        if (e.get("args") or {}).get("trace_id") is not None
    })
    if trace_ids:
        lines.append("trace ids: " + ", ".join(trace_ids))
    return "\n".join(lines).rstrip()
