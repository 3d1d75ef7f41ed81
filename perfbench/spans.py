"""Span recording, self-time arithmetic and Chrome trace export.

A span records a name, a start, an end, its parent span and the trace
id of the request it belongs to.  Times are trace-relative *integer*
microseconds read from ``time.monotonic_ns`` against an origin shared
by every process of a run (the daemon receives the origin from the
benchmark; on Linux the monotonic clock is system-wide).  Integers keep
abutting spans exact -- ``a.end_us == b.start_us`` -- so back-to-back
siblings never look nested, as they can with float epoch microseconds
(ULP ~0.25 us at 1.8e15).

A span's *self time* is its duration minus the part of its interval
that its child spans cover; a layer's share of a workload is the sum
of its spans' self times over the sum of the request (root) spans.
The root ``request`` span's own self time is the part no probe
attributes to a layer: the workload's *unattributed* share.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Name of the per-request root span (and its layer's reporting name).
ROOT = "request"
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    name: str
    trace: str
    span_id: str
    parent: Optional[str]
    start_us: int
    end_us: int
    thread: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return {"name": self.name, "trace": self.trace, "id": self.span_id,
                "parent": self.parent, "start_us": self.start_us,
                "end_us": self.end_us, "thread": self.thread,
                "attrs": self.attrs}

    @classmethod
    def from_dict(cls, row: dict) -> "Span":
        return cls(row["name"], row["trace"], row["id"], row["parent"],
                   row["start_us"], row["end_us"], row["thread"],
                   row.get("attrs") or {})


class _Null:
    """The context a probe gets outside any request: records nothing."""

    def __enter__(self):
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL = _Null()


class _Open:
    __slots__ = ("_recorder", "_span", "_stack")

    def __init__(self, recorder: "Recorder", span: Span, stack: list):
        self._recorder = recorder
        self._span = span
        self._stack = stack

    def __enter__(self) -> Span:
        self._stack.append(self._span)
        self._span.start_us = self._recorder.now_us()
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._span.end_us = self._recorder.now_us()
        self._stack.pop()
        self._recorder.spans.append(self._span)
        return False


class Recorder:
    """Keeps finished spans in memory; one open-span stack per thread.

    ``prefix`` makes span ids unique across the processes of one run
    (``b`` for the benchmark process, ``d`` for the daemon).
    """

    def __init__(self, origin_ns: int, prefix: str = "b") -> None:
        self.origin_ns = origin_ns
        self.prefix = prefix
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def now_us(self) -> int:
        return (time.monotonic_ns() - self.origin_ns) // 1000

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, trace: Optional[str] = None, **attrs):
        """A context manager recording one span (yields it, or ``None``).

        The span is a child of this thread's innermost open span.  With
        no span open and no ``trace`` given there is no request to
        charge the work to (set-up, background threads), so nothing is
        recorded and the context yields ``None``.
        """
        stack = self._stack()
        if stack:
            trace, parent = stack[-1].trace, stack[-1].span_id
        elif trace is None:
            return _NULL
        else:
            parent = None
        span = Span(name, str(trace), f"{self.prefix}{next(self._ids)}",
                    parent, 0, 0, threading.current_thread().name, attrs)
        return _Open(self, span, stack)

    def annotate(self, key: str, amount: float) -> None:
        """Add ``amount`` to attribute ``key`` of the innermost open span."""
        stack = self._stack()
        if stack:
            attrs = stack[-1].attrs
            attrs[key] = attrs.get(key, 0) + amount


# ---------------------------------------------------------------------------
# Arithmetic over finished spans
# ---------------------------------------------------------------------------


def covered_us(start: int, end: int,
               intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Span id -> self time in us (duration minus child coverage)."""
    children: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_us, span.end_us))
    return {span.span_id: span.duration_us - covered_us(
                span.start_us, span.end_us, children[span.span_id])
            for span in spans}


def layer_of(name: str) -> str:
    """The layer a span name reports under (``core`` splits one level)."""
    parts = name.split(".")
    if parts[0] == ROOT:
        return UNATTRIBUTED
    if parts[0] == "core":
        return ".".join(parts[:2])
    return parts[0]


def layer_shares(spans: Sequence[Span]) -> Dict[str, float]:
    """Layer -> share of the total request time spent in its own code."""
    total = sum(s.duration_us for s in spans if s.parent is None)
    shares: Dict[str, float] = defaultdict(float)
    if total <= 0:
        return shares
    own = self_times(spans)
    for span in spans:
        shares[layer_of(span.name)] += own[span.span_id] / total
    return shares


def join_remote(local: Sequence[Span], remote: Sequence[Span],
                via: str) -> List[Span]:
    """Graft another process's spans under the local ``via`` spans.

    Remote roots become children of the local span named ``via`` that
    carries the same trace id (the id travels in the
    ``X-Repro-Trace-Id`` header).  Remote spans of traces the local
    side did not record -- set-up calls, say -- are dropped.
    """
    anchors = {s.trace: s.span_id for s in local if s.name == via}
    joined = list(local)
    for span in remote:
        if span.trace not in anchors:
            continue
        if span.parent is None:
            span = Span(span.name, span.trace, span.span_id,
                        anchors[span.trace], span.start_us, span.end_us,
                        span.thread, span.attrs)
        joined.append(span)
    return joined


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def dump_spans(path: str, spans: Sequence[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump([s.to_dict() for s in spans], fp)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fp:
        return [Span.from_dict(row) for row in json.load(fp)]


PROCESS_NAMES = {"b": "benchmark", "d": "repro serve"}


def to_chrome(spans: Sequence[Span]) -> dict:
    """Chrome trace-event document (loads in Perfetto)."""
    pids = {prefix: pid for pid, prefix in enumerate(PROCESS_NAMES, 1)}
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": PROCESS_NAMES[prefix]}}
        for prefix, pid in pids.items()
    ]
    tids: Dict[Tuple[int, str], int] = {}
    for span in sorted(spans, key=lambda s: (s.start_us, -s.end_us)):
        pid = pids.get(span.span_id[0], 0)
        tid = tids.setdefault((pid, span.thread), len(tids) + 1)
        args = {"trace_id": span.trace, "span_id": span.span_id,
                "parent": span.parent}
        args.update(span.attrs)
        events.append({"name": span.name, "ph": "X", "ts": span.start_us,
                       "dur": span.duration_us, "pid": pid, "tid": tid,
                       "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
