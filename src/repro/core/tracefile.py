"""Trace persistence: record event streams, analyse them later.

Section 4 of the paper describes the profiler as consuming *traces* of
program operations; the Valgrind tool fuses recording and analysis into
one pass, but the trace-driven model is what makes the algorithms
testable and lets one execution feed many analyses.  This module makes
traces durable:

* :class:`TraceWriter` — a :class:`TraceConsumer` that streams events to
  a file as they happen;
* :func:`read_trace` / :func:`iter_trace` — load them back as
  :class:`Event` lists/iterators for :func:`repro.core.events.replay`.

Format: one event per line, tab-separated ``kind thread arg``, with a
one-line header carrying a magic string and version.  Routine names are
the only free-form field; tabs, newlines and backslashes in names are
backslash-escaped on write and restored on read, so arbitrary names
round-trip.  The format is plain text: greppable, diffable, stable.
"""

from __future__ import annotations

from typing import IO, Iterator, List, Union

from .events import Event, EventKind, TraceConsumer

__all__ = [
    "TRACE_MAGIC",
    "TraceWriter",
    "write_trace",
    "read_trace",
    "iter_trace",
    "escape_name",
    "unescape_name",
    "MalformedRecord",
]

TRACE_MAGIC = "repro-trace 1"

_KIND_CODES = {
    EventKind.CALL: "C",
    EventKind.RETURN: "R",
    EventKind.READ: "r",
    EventKind.WRITE: "w",
    EventKind.KERNEL_READ: "kr",
    EventKind.KERNEL_WRITE: "kw",
    EventKind.THREAD_SWITCH: "S",
    EventKind.COST: "$",
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


class TraceFileError(ValueError):
    """Raised on malformed trace files."""


class MalformedRecord(TraceFileError):
    """A record outside the trace vocabulary: an unknown event kind
    byte, or a ``CALL`` routine id outside the string table."""


def escape_name(name: str) -> str:
    """Make a routine name safe for tab/newline-delimited formats.

    Backslash-escapes the two delimiter characters and the escape
    character itself; every other character passes through untouched, so
    escaped names of ordinary routines are byte-identical to the raw
    ones.
    """
    return name.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_name(text: str) -> str:
    """Inverse of :func:`escape_name`."""
    if "\\" not in text:
        return text
    out: List[str] = []
    it = iter(text)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, None)
        if nxt == "t":
            out.append("\t")
        elif nxt == "n":
            out.append("\n")
        elif nxt == "\\":
            out.append("\\")
        elif nxt is None:
            raise TraceFileError(f"dangling escape in name {text!r}")
        else:
            bad = "\\" + nxt
            raise TraceFileError(f"bad escape {bad!r} in name {text!r}")
    return "".join(out)


class TraceWriter(TraceConsumer):
    """Streams the event vocabulary to a text file."""

    name = "trace-writer"

    def __init__(self, stream: IO[str]):
        self.stream = stream
        self.events_written = 0
        stream.write(TRACE_MAGIC + "\n")

    def _emit(self, code: str, thread: int, arg) -> None:
        self.stream.write(f"{code}\t{thread}\t{arg}\n")
        self.events_written += 1

    def on_call(self, thread: int, routine: str) -> None:
        self._emit("C", thread, escape_name(routine))

    def on_return(self, thread: int) -> None:
        self._emit("R", thread, 0)

    def on_read(self, thread: int, addr: int) -> None:
        self._emit("r", thread, addr)

    def on_write(self, thread: int, addr: int) -> None:
        self._emit("w", thread, addr)

    def on_kernel_read(self, thread: int, addr: int) -> None:
        self._emit("kr", thread, addr)

    def on_kernel_write(self, thread: int, addr: int) -> None:
        self._emit("kw", thread, addr)

    def on_thread_switch(self, thread: int) -> None:
        self._emit("S", thread, thread)

    def on_cost(self, thread: int, units: int) -> None:
        self._emit("$", thread, units)


def write_trace(events, stream: IO[str]) -> int:
    """Write an :class:`Event` iterable; returns the event count."""
    writer = TraceWriter(stream)
    from .events import replay

    replay(events, writer)
    return writer.events_written


def iter_trace(stream: IO[str]) -> Iterator[Event]:
    """Yield events from a trace file (validating the header)."""
    header = stream.readline().rstrip("\n")
    if header != TRACE_MAGIC:
        raise TraceFileError(f"not a trace file (header {header!r})")
    for line_no, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            code, thread_text, arg_text = line.split("\t", 2)
            kind = _CODE_KINDS[code]
            thread = int(thread_text)
        except (ValueError, KeyError):
            raise TraceFileError(f"line {line_no}: bad event {line!r}") from None
        if kind == EventKind.CALL:
            arg: Union[int, str, None] = unescape_name(arg_text)
        elif kind == EventKind.RETURN:
            arg = None
        else:
            try:
                arg = int(arg_text)
            except ValueError:
                raise TraceFileError(f"line {line_no}: bad argument {arg_text!r}") from None
        yield Event(kind, thread, arg)


def read_trace(stream: IO[str]) -> List[Event]:
    """Load a whole trace file into memory."""
    return list(iter_trace(stream))
