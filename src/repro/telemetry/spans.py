"""Span-based tracing and the process-wide telemetry handle.

A *span* wraps one phase of the pipeline::

    with telemetry.span("analyze.replay", metric="rms"):
        ...

and records, on exit, a JSONL line with the span's name, id, parent id
(spans nest per thread), start offset from the run epoch, wall and CPU
seconds, attributes, and whether the body raised.  Span bodies are
never altered: exceptions propagate, and the profile computation a span
surrounds cannot observe the span — the differential tests hold the
telemetry layer to bit-identical profile output either way.

The module also owns the **current telemetry** of the process.  It
defaults to :data:`NULL`, whose spans are one shared no-op context
manager and whose metrics are shared no-op singletons — enabling the
instrumentation points sprinkled through the profiler, farm and CLI to
stay in place at effectively zero cost.  ``configure()`` swaps in a
live :class:`Telemetry`; the ``session()`` context manager scopes one
(the CLI's ``--telemetry DIR`` uses it).

**Distributed traces.**  Span ids are small per-process integers —
enough for nesting inside one log, useless for joining the client and
server halves of one service request recorded into *different* logs by
*different* processes.  A *trace context* adds the cross-process
layer: inside ``with telemetry.trace(trace_id, parent_uid):`` every
span additionally carries a globally meaningful identity —
``trace`` (the 16-hex trace id), ``uid``
(``<pid>.<instance>-<span_id>``, unique per host even when several
telemetry runs share one process) and ``parent_uid`` (the uid of the
enclosing span, *or the remote parent* the context was seeded with).  ``trace_carrier()``
exports the current position as a small dict the service puts in every
``repro-wire/1`` header; the receiving process seeds its own
``trace()`` scope from it, and ``repro trace`` later joins the logs on
``trace``/``uid``/``parent_uid``.  ``emit_span()`` records a span
*after the fact* from explicit timings — for phases measured outside a
``with`` block (frame decode, queue wait).  With no active trace
context, span records are byte-identical to what they always were.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, List, Optional

from .jsonl import JsonlSink, resolve_log_path
from .registry import MetricsRegistry, NullRegistry

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "new_trace_id",
    "configure",
    "disable",
    "current",
    "session",
    "span",
    "event",
    "counter",
    "gauge",
    "histogram",
    "trace",
    "trace_carrier",
    "emit_span",
]


def new_trace_id() -> str:
    """A fresh 16-hex trace id (random, collision-safe across hosts)."""
    return os.urandom(8).hex()


_instance_lock = threading.Lock()
_instance_count = 0


def _next_instance() -> int:
    """Distinct number per Telemetry of this process (uid namespace)."""
    global _instance_count
    with _instance_lock:
        _instance_count += 1
        return _instance_count


class _TraceScope:
    """One activation of a trace context on one thread (re-entrant)."""

    __slots__ = ("_telemetry", "trace_id", "parent_uid", "uid_stack")

    def __init__(self, telemetry: "Telemetry", trace_id: Optional[str],
                 parent_uid: Optional[str]):
        self._telemetry = telemetry
        self.trace_id = trace_id or new_trace_id()
        self.parent_uid = parent_uid
        self.uid_stack: List[str] = []

    def __enter__(self) -> "_TraceScope":
        self._telemetry._trace_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._telemetry._trace_stack()
        if stack and stack[-1] is self:
            stack.pop()


class _Span:
    """Context manager for one span of one :class:`Telemetry`."""

    __slots__ = ("_telemetry", "name", "attrs", "span_id", "parent",
                 "trace_id", "uid", "parent_uid", "_wall0", "_cpu0", "_start")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict):
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent: Optional[int] = None
        self.trace_id: Optional[str] = None
        self.uid: Optional[str] = None
        self.parent_uid: Optional[str] = None

    def set(self, **attrs) -> "_Span":
        """Attach attributes discovered while the span body runs."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        telemetry = self._telemetry
        self.span_id = telemetry._next_id()
        stack = telemetry._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.span_id)
        scope = telemetry._trace_top()
        if scope is not None:
            self.trace_id = scope.trace_id
            self.uid = telemetry._make_uid(self.span_id)
            self.parent_uid = (scope.uid_stack[-1] if scope.uid_stack
                               else scope.parent_uid)
            scope.uid_stack.append(self.uid)
        self._start = time.time() - telemetry.epoch
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        telemetry = self._telemetry
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = telemetry._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent,
            "start": round(self._start, 6),
            "wall": round(wall, 6),
            "cpu": round(cpu, 6),
            "ok": exc_type is None,
        }
        if self.uid is not None:
            scope = telemetry._trace_top()
            if scope is not None and scope.uid_stack \
                    and scope.uid_stack[-1] == self.uid:
                scope.uid_stack.pop()
            record["trace"] = self.trace_id
            record["uid"] = self.uid
            if self.parent_uid is not None:
                record["parent_uid"] = self.parent_uid
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        telemetry.emit(record)
        # every span also feeds the wall-time histogram, so metric data
        # alone can answer "where did the time go" without the span log
        telemetry.registry.histogram("span.wall_ms", span=self.name).observe(
            wall * 1000.0)


class Telemetry:
    """A live telemetry run: one registry plus an optional JSONL sink."""

    enabled = True

    def __init__(self, path: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = JsonlSink(resolve_log_path(path)) if path else None
        self.epoch = time.time()
        # span ids are small per-instance integers; the uid prefix keeps
        # them host-unique even when one process runs several telemetries
        # (the pid alone is not enough for e.g. in-process server tests)
        self._uid_prefix = f"{os.getpid():x}.{_next_instance():x}"
        self._id_lock = threading.Lock()
        self._last_id = 0
        self._local = threading.local()
        self._closed = False
        self.emit({
            "type": "meta", "version": 1, "epoch": round(self.epoch, 3),
            "pid": os.getpid(),
        })

    # -- span plumbing ------------------------------------------------------

    def _next_id(self) -> int:
        with self._id_lock:
            self._last_id += 1
            return self._last_id

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- trace-context plumbing ---------------------------------------------

    def _trace_stack(self) -> List[_TraceScope]:
        stack = getattr(self._local, "trace_stack", None)
        if stack is None:
            stack = self._local.trace_stack = []
        return stack

    def _trace_top(self) -> Optional[_TraceScope]:
        stack = getattr(self._local, "trace_stack", None)
        return stack[-1] if stack else None

    def _make_uid(self, span_id: int) -> str:
        return f"{self._uid_prefix}-{span_id:x}"

    def trace(self, trace_id: Optional[str] = None,
              parent_uid: Optional[str] = None) -> _TraceScope:
        """Activate a trace context on this thread (``with`` target).

        Without arguments a fresh trace id is minted (the client side);
        with the ``id``/``parent`` of a received carrier the local
        spans continue the remote trace (the server side).
        """
        return _TraceScope(self, trace_id, parent_uid)

    def trace_carrier(self) -> Optional[Dict]:
        """The current trace position as a wire-able ``{id, parent}`` dict.

        ``None`` when no trace context is active on this thread — the
        caller attaches nothing and the request travels untraced.
        """
        scope = self._trace_top()
        if scope is None:
            return None
        parent = scope.uid_stack[-1] if scope.uid_stack else scope.parent_uid
        carrier: Dict = {"id": scope.trace_id}
        if parent is not None:
            carrier["parent"] = parent
        return carrier

    def emit_span(
        self,
        name: str,
        start_time: float,
        wall: float,
        cpu: float = 0.0,
        trace_id: Optional[str] = None,
        parent_uid: Optional[str] = None,
        ok: bool = True,
        **attrs,
    ) -> Optional[str]:
        """Record a span measured outside a ``with`` block; returns its uid.

        ``start_time`` is absolute (``time.time()``); the record stores
        it relative to the run epoch like every live span.  Trace
        identity defaults to the active trace context (explicit
        ``trace_id``/``parent_uid`` override it — the retroactive
        linkage the service uses for frame decode and queue wait).
        """
        span_id = self._next_id()
        record = {
            "type": "span",
            "name": name,
            "id": span_id,
            "parent": None,
            "start": round(start_time - self.epoch, 6),
            "wall": round(max(0.0, wall), 6),
            "cpu": round(max(0.0, cpu), 6),
            "ok": ok,
        }
        uid: Optional[str] = None
        scope = self._trace_top()
        if trace_id is None and scope is not None:
            trace_id = scope.trace_id
            if parent_uid is None:
                parent_uid = (scope.uid_stack[-1] if scope.uid_stack
                              else scope.parent_uid)
        if trace_id is not None:
            uid = self._make_uid(span_id)
            record["trace"] = trace_id
            record["uid"] = uid
            if parent_uid is not None:
                record["parent_uid"] = parent_uid
        if attrs:
            record["attrs"] = attrs
        self.emit(record)
        self.registry.histogram("span.wall_ms", span=name).observe(
            max(0.0, wall) * 1000.0)
        return uid

    # -- public surface -----------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def event(self, name: str, **fields) -> None:
        self.emit({"type": "event", "name": name,
                   "start": round(time.time() - self.epoch, 6), **fields})

    def emit(self, record: Dict) -> None:
        """Write one raw record to the sink (no-op without a sink)."""
        if self.sink is not None:
            self.sink.write(record)

    def counter(self, name: str, **labels):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels):
        return self.registry.histogram(name, **labels)

    def close(self) -> None:
        """Seal the run: write the metrics snapshot, close the sink."""
        if self._closed:
            return
        self._closed = True
        self.emit({"type": "metrics", "metrics": self.registry.snapshot()})
        if self.sink is not None:
            self.sink.close()


class _NullSpan:
    """The shared do-nothing span (also usable as a plain ``with`` target)."""

    __slots__ = ()
    name = None
    span_id = 0
    parent = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_REGISTRY = NullRegistry()


class NullTelemetry:
    """Disabled telemetry: every operation is a shared no-op."""

    enabled = False
    sink = None
    registry = _NULL_REGISTRY

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields) -> None:
        pass

    def emit(self, record: Dict) -> None:
        pass

    def counter(self, name: str, **labels):
        return _NULL_REGISTRY.counter(name)

    def gauge(self, name: str, **labels):
        return _NULL_REGISTRY.gauge(name)

    def histogram(self, name: str, **labels):
        return _NULL_REGISTRY.histogram(name)

    def current_span_id(self) -> Optional[int]:
        return None

    def trace(self, trace_id: Optional[str] = None,
              parent_uid: Optional[str] = None) -> _NullSpan:
        return _NULL_SPAN

    def trace_carrier(self) -> Optional[Dict]:
        return None

    def emit_span(self, name: str, start_time: float, wall: float,
                  cpu: float = 0.0, trace_id: Optional[str] = None,
                  parent_uid: Optional[str] = None, ok: bool = True,
                  **attrs) -> Optional[str]:
        return None

    def close(self) -> None:
        pass


NULL = NullTelemetry()

_current: "Telemetry | NullTelemetry" = NULL


def configure(path: Optional[str] = None,
              registry: Optional[MetricsRegistry] = None) -> Telemetry:
    """Install (and return) a live telemetry as the process current.

    ``path`` may be a run directory (the log becomes
    ``<path>/telemetry.jsonl``) or an explicit ``.jsonl`` file; with no
    path the run is metrics-only (no event log).
    """
    global _current
    telemetry = Telemetry(path, registry=registry)
    _current = telemetry
    return telemetry


def disable() -> None:
    """Close any live telemetry and restore the no-op default."""
    global _current
    _current.close()
    _current = NULL


def current() -> "Telemetry | NullTelemetry":
    return _current


@contextlib.contextmanager
def session(path: Optional[str] = None,
            registry: Optional[MetricsRegistry] = None):
    """Scoped telemetry: configure on entry, close and restore on exit."""
    global _current
    previous = _current
    telemetry = Telemetry(path, registry=registry)
    _current = telemetry
    try:
        yield telemetry
    finally:
        telemetry.close()
        _current = previous


# -- module-level conveniences (route to the current telemetry) -------------

def span(name: str, **attrs):
    return _current.span(name, **attrs)


def event(name: str, **fields) -> None:
    _current.event(name, **fields)


def counter(name: str, **labels):
    return _current.counter(name, **labels)


def gauge(name: str, **labels):
    return _current.gauge(name, **labels)


def histogram(name: str, **labels):
    return _current.histogram(name, **labels)


def trace(trace_id: Optional[str] = None, parent_uid: Optional[str] = None):
    return _current.trace(trace_id, parent_uid)


def trace_carrier() -> Optional[Dict]:
    return _current.trace_carrier()


def emit_span(name: str, start_time: float, wall: float, **kwargs):
    return _current.emit_span(name, start_time, wall, **kwargs)
