"""Hierarchical tracing.

A :class:`Tracer` records *spans*: named, nested, monotonic-timed
intervals around units of work (an advisor phase, a baseline run, a fleet
sweep).  Spans form per-thread trees -- the span opened last on a thread
is the parent of any span opened underneath it -- and are exported as
Chrome ``trace_event`` objects loadable in ``chrome://tracing`` /
Perfetto.

The module keeps one process-wide tracer (:func:`get_tracer`); the
``with trace("advisor.merge"):`` context manager records into whichever
tracer is current, so library code never needs a tracer argument threaded
through it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace",
    "load_chrome_trace",
]


@dataclass
class Span:
    """One timed interval in a trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    thread_id: int
    start: float                    # monotonic seconds (perf_counter)
    end: Optional[float] = None     # monotonic seconds; None while open
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed monotonic seconds (so-far, while the span is open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, end - self.start)

    def set(self, **attrs: Any) -> "Span":
        """Attach key/value attributes to the span."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Thread-safe hierarchical span recorder.

    Args:
        max_spans: retention cap; spans finished beyond the cap are
            dropped (counted in ``dropped``) so long-running processes
            cannot grow without bound.
    """

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._next_id = 0
        self._finished: list[Span] = []
        self._local = threading.local()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(self, name: str, **attrs: Any) -> Span:
        """Open a span manually; pair with :meth:`end_span`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            thread_id=threading.get_ident(),
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif any(s is span for s in stack):
            # Mismatched nesting: unwind through the span.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
                return
            self._finished.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("advisor.ranking") as s: ...``"""
        span = self.start_span(name, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- inspection -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """All finished spans, in finish order."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self.spans() if s.name == name]

    def summary(self) -> dict[str, dict]:
        """Aggregate finished spans by name.

        Numeric span attributes are summed -- an advisor phase recording
        ``optimizer_calls`` per span therefore yields per-phase call
        totals here.
        """
        agg: dict[str, dict] = {}
        for span in self.spans():
            entry = agg.setdefault(
                span.name,
                {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0, "attrs": {}},
            )
            duration = span.duration
            entry["count"] += 1
            entry["total_seconds"] += duration
            entry["max_seconds"] = max(entry["max_seconds"], duration)
            for key, value in span.attrs.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        return agg

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0
        self._local = threading.local()

    # -- export ---------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON (load in chrome://tracing/Perfetto).

        Every finished span becomes one complete ("X") event; timestamps
        are microseconds relative to the earliest span so traces align at
        t=0 regardless of process start time.
        """
        spans = self.spans()
        origin = min((s.start for s in spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread_id,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
            for span in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=2)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class ChromeSpan:
    """One event parsed back from a Chrome trace_event payload."""

    name: str
    ts_us: float
    dur_us: float
    tid: int
    args: dict


def load_chrome_trace(payload: dict | list) -> list[ChromeSpan]:
    """Parse a Chrome trace_event payload back into span records.

    Accepts both the object form (``{"traceEvents": [...]}``) and the
    bare-array form; only complete ("X") events are returned.
    """
    events = payload.get("traceEvents", []) if isinstance(payload, dict) else payload
    out = []
    for event in events:
        if event.get("ph") != "X":
            continue
        out.append(
            ChromeSpan(
                name=event.get("name", ""),
                ts_us=float(event.get("ts", 0.0)),
                dur_us=float(event.get("dur", 0.0)),
                tid=int(event.get("tid", 0)),
                args=dict(event.get("args", {})),
            )
        )
    return out


# -- process-wide tracer -----------------------------------------------------

_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer library code records into."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (tests, per-run isolation)."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def trace(name: str, **attrs: Any) -> Iterator[Span]:
    """Record a span on the process-wide tracer."""
    with get_tracer().span(name, **attrs) as span:
        yield span
