"""Structured event/tracing layer: nestable spans, events, pluggable sinks.

Usage::

    from repro.obs import tracer, JsonlSink

    tr = tracer()
    tr.add_sink(JsonlSink("out.jsonl"))
    with tr.span("cegis.iteration", iter=3):
        tr.event("cegis.counterexample", candidate="cwnd(t)=1")

Records are flat dicts with a ``type`` discriminator:

* ``{"type": "span", "name", "id", "parent", "depth", "ts", "dur",
  "lvl", "attrs"}`` — emitted when the span *closes* (so a JSONL trace
  is ordered by span end time; ``ts`` is the wall-clock start,
  ``dur`` the perf-counter duration in seconds);
* ``{"type": "event", "name", "span", "ts", "lvl", "msg"?, "attrs"}`` —
  emitted immediately, attributed to the innermost open span;
* ``{"type": "metrics", "ts", "snapshot"}`` — a metrics-registry
  snapshot (see :mod:`repro.obs.metrics`);
* ``{"type": "meta", ...}`` — free-form run metadata (argv, version).

Attribute values must be JSON-serializable; anything else is stringified
by the JSONL sink.  When no sinks are attached, :meth:`Tracer.span`
returns a shared no-op context manager and :meth:`Tracer.event` returns
before touching its arguments, keeping disabled-tracing overhead to one
attribute check per call site.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import uuid
from typing import Optional, TextIO

#: severity levels (a strict subset of the stdlib logging scale)
DEBUG, INFO, WARN = 10, 20, 30

LEVELS = {"debug": DEBUG, "info": INFO, "warn": WARN}


class Sink:
    """Receives every record the tracer emits; filters by ``level``."""

    level: int = DEBUG

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default is a no-op
        pass


class JsonlSink(Sink):
    """Writes one JSON object per line to a file (or file-like object)."""

    def __init__(self, path_or_file, level: int = DEBUG):
        self.level = level
        if hasattr(path_or_file, "write"):
            self._file: TextIO = path_or_file
            self._owns = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns = True

    def emit(self, record: dict) -> None:
        if record.get("lvl", INFO) < self.level:
            return
        self._file.write(json.dumps(record, default=str) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()


class ConsoleSink(Sink):
    """Human-readable live renderer (``--log-level``).

    Events carrying a ``msg`` are printed verbatim; other events are
    rendered as ``[name] k=v ...``.  Span-close lines (indented by
    nesting depth, with durations) appear only at ``DEBUG``.
    """

    def __init__(self, stream: Optional[TextIO] = None, level: int = INFO):
        self.level = level
        self._stream = stream

    @property
    def stream(self) -> TextIO:
        # resolved lazily so pytest's capsys redirection is honoured
        return self._stream if self._stream is not None else sys.stdout

    def emit(self, record: dict) -> None:
        if record.get("lvl", INFO) < self.level:
            return
        kind = record.get("type")
        if kind == "event":
            msg = record.get("msg")
            if msg is None:
                attrs = record.get("attrs") or {}
                msg = f"[{record['name']}]" + "".join(
                    f" {k}={v}" for k, v in attrs.items()
                )
            print(msg, file=self.stream)
        elif kind == "span" and self.level <= DEBUG:
            indent = "  " * record.get("depth", 0)
            print(
                f"{indent}~ {record['name']} {record['dur'] * 1000:.2f}ms",
                file=self.stream,
            )


class Span:
    """An open span; use as a context manager.  Created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "depth", "level",
                 "attrs", "ts", "_t0", "dur", "_dur_override")

    def __init__(self, tracer: "Tracer", name: str, level: int, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.level = level
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.ts = 0.0
        self._t0 = 0.0
        self.dur = 0.0
        self._dur_override: Optional[float] = None

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered while the span is running."""
        self.attrs.update(attrs)
        return self

    def set_duration(self, seconds: float) -> "Span":
        """Record an externally measured duration instead of the span's
        own clock (used when the caller keeps its own accounting and the
        two must agree exactly, e.g. ``CegisStats`` phase times)."""
        self._dur_override = seconds
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur = (
            self._dur_override
            if self._dur_override is not None
            else time.perf_counter() - self._t0
        )
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._close(self)
        return False


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def set_duration(self, seconds: float) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Routes spans and events to the attached sinks.

    ``enabled`` is the fast path every instrumented call site checks:
    with no sinks it is False and span/event calls cost one attribute
    read.  The span stack is thread-local, so concurrent solver threads
    nest their own spans correctly while sharing sinks.
    """

    def __init__(self):
        self._sinks: list[Sink] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.enabled = False
        #: stable identifier of this tracer's stream; carried across
        #: process boundaries by the worker telemetry relay so child
        #: frames can be matched to the run that spawned them
        self.trace_id = uuid.uuid4().hex[:16]

    # -- sink management ------------------------------------------------------

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def remove_sink(self, sink: Sink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        self.enabled = bool(self._sinks)

    # -- span / event API -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def allocate_ids(self, n: int) -> int:
        """Reserve ``n`` consecutive span ids; returns the first.

        Used by the telemetry relay to re-number spans shipped back from
        worker processes without colliding with locally opened spans.
        """
        with self._lock:
            first = self._next_id + 1
            self._next_id += n
        return first

    def span(self, name: str, level: int = INFO, **attrs):
        """Open a nestable span; returns a context manager."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, level, attrs)

    def event(self, name: str, level: int = INFO, msg: Optional[str] = None, **attrs) -> None:
        """Emit a point-in-time event attributed to the innermost span."""
        if not self.enabled:
            return
        record = {
            "type": "event",
            "name": name,
            "span": self.current_span_id(),
            "ts": time.time(),
            "lvl": level,
            "attrs": attrs,
        }
        if msg is not None:
            record["msg"] = msg
        self._emit(record)

    def emit_metrics(self, snapshot: dict, level: int = INFO) -> None:
        """Emit a metrics-registry snapshot record."""
        if not self.enabled:
            return
        self._emit({"type": "metrics", "ts": time.time(), "lvl": level,
                    "snapshot": snapshot})

    def meta(self, **fields) -> None:
        """Emit free-form run metadata (argv, version, config...)."""
        if not self.enabled:
            return
        self._emit({"type": "meta", "ts": time.time(), "lvl": INFO, **fields})

    # -- internals ------------------------------------------------------------

    def _open(self, span: Span) -> None:
        with self._lock:
            self._next_id += 1
            span.span_id = self._next_id
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        self._emit({
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "ts": span.ts,
            "dur": span.dur,
            "lvl": span.level,
            "attrs": span.attrs,
        })

    def _emit(self, record: dict) -> None:
        for sink in self._sinks:
            sink.emit(record)


_GLOBAL_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global tracer shared by all instrumented layers."""
    return _GLOBAL_TRACER
