"""Trace format v2: compact, chunked, seekable binary traces.

This module is the one reader and writer of recorded traces.  Format
v2 is chunked and seekable, so a reader can decode any chunk on its own
or tail a growing trace chunk by chunk.  It has three layers:

* **records** — one event is a fixed ``<Bqq`` struct (kind byte, thread
  id, argument).  Routine names are interned in a per-file string
  table, so a ``CALL`` record stores a table index; arguments of
  ``RETURN`` records are zero and decode to ``None``.
* **chunks** — records are grouped into chunks of ``chunk_events``
  events.  Each chunk is prefixed by a header carrying its payload
  size, event count, the *global position* of its first event, its
  write-event count (plain + kernel), and per-thread event counts.
* **footer** — after the last chunk the writer emits the string table
  and a copy of every chunk's metadata (with file offsets), then a
  fixed-size trailer pointing back at the footer.  Readers seek to the
  trailer, load the footer, and can then decode any chunk in any order
  without touching the rest of the file.

Layout::

    "RPTRACE2"                                      file magic
    [chunk header][records...]                      repeated
    footer:  string table, chunk index
    trailer: footer offset, event count, "RPT2END\\0"

Writing is one flat list per chunk.  :class:`BinaryTraceWriter`'s hooks
append ``kind, thread, arg`` per event, and the chunk is encoded once,
when it is sealed: the list is packed into records 256 at a time by one
precompiled ``struct`` call each, the header's write count is counted
in the packed kind bytes and its per-thread counts in the list's thread
slice.  :func:`decode_chunk_columns` reads the records back as columns.

A live writer also keeps a ``.names`` sidecar (:data:`NAMES_SUFFIX`),
and :func:`read_chunk_header` parses the chunks of a file whose footer
does not exist yet, so a tailer can follow a trace while it records.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from collections import Counter
from itertools import repeat
from typing import IO, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..core.events import Event, EventKind, TraceConsumer, replay
from ..core.tracefile import MalformedRecord, TraceFileError, escape_name

__all__ = [
    "BINARY_MAGIC",
    "NAMES_SUFFIX",
    "RECORD_BYTES",
    "BinaryTraceError",
    "TruncatedChunk",
    "live_names_path",
    "ChunkMeta",
    "TraceMeta",
    "BinaryTraceWriter",
    "write_binary_trace",
    "read_trace_meta",
    "read_chunk_header",
    "iter_binary_trace",
    "read_binary_trace",
    "iter_positioned",
    "decode_chunk",
    "ChunkColumns",
    "decode_chunk_columns",
    "columns_from_events",
    "rows_from_columns",
    "is_binary_trace",
]

BINARY_MAGIC = b"RPTRACE2"
_TRAILER_MAGIC = b"RPT2END\0"

_RECORD = struct.Struct("<Bqq")
#: bytes of one record: 1 kind byte + two little-endian i64
RECORD_BYTES = _RECORD.size
#: records the writer packs per ``struct`` call; the chunk's tail is one
#: more call with a format of its own length
_PACK_RECORDS = 256
_PACK_BLOCK = struct.Struct("<" + "Bqq" * _PACK_RECORDS)
_CHUNK_FIXED = struct.Struct("<IIQIH")  # payload bytes, events, first pos, writes, n threads
_THREAD_COUNT = struct.Struct("<qI")    # thread id, events of that thread in the chunk
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TRAILER = struct.Struct("<QQ8s")       # footer offset, event count, trailer magic

DEFAULT_CHUNK_EVENTS = 4096

#: kind codes as plain ints: the writer appends one per event, and an
#: ``EventKind`` member costs an enum attribute lookup each time
_CALL = int(EventKind.CALL)
_RETURN = int(EventKind.RETURN)
_READ = int(EventKind.READ)
_WRITE = int(EventKind.WRITE)
_KERNEL_READ = int(EventKind.KERNEL_READ)
_KERNEL_WRITE = int(EventKind.KERNEL_WRITE)
_THREAD_SWITCH = int(EventKind.THREAD_SWITCH)
_COST = int(EventKind.COST)

#: suffix of the live names sidecar a streaming writer maintains next to
#: the trace (``trace.rpt2`` -> ``trace.rpt2.names``): interned routine
#: names, escaped one per line, flushed before every sealed chunk so a
#: tailer can resolve ``CALL`` ids before the footer exists.
NAMES_SUFFIX = ".names"


class BinaryTraceError(TraceFileError):
    """Raised on malformed binary trace files."""


class TruncatedChunk(BinaryTraceError):
    """A *recoverable* truncation: the trace ends mid-write.

    Raised when a v2 file has valid leading chunks but no (or a torn)
    seal — the writer is still running, or was killed between
    ``_flush_chunk`` and ``close``.  Every chunk sealed before the tear
    is intact; callers that can live with a prefix (the streaming
    tailer, crash recovery) catch this and keep what they have, unlike
    :class:`BinaryTraceError` which signals an unusable file.
    """


def live_names_path(trace_path: str) -> str:
    """Path of the live names sidecar for ``trace_path``."""
    return trace_path + NAMES_SUFFIX


class ChunkMeta(NamedTuple):
    """Metadata of one chunk, as stored in both header and footer."""

    offset: int            #: file offset of the chunk header
    payload_offset: int    #: file offset of the first record
    payload_bytes: int
    events: int
    first_pos: int         #: global position of the chunk's first event
    writes: int            #: WRITE + KERNEL_WRITE records in the chunk
    thread_counts: Dict[int, int]

    @property
    def last_pos(self) -> int:
        """Global position one past the chunk's final event."""
        return self.first_pos + self.events


class TraceMeta(NamedTuple):
    """Everything the footer knows: the key to random-access decoding."""

    event_count: int
    names: List[str]
    chunks: List[ChunkMeta]


def _chunk_header(chunk: ChunkMeta) -> bytes:
    """The header of ``chunk``; the footer's chunk index repeats it."""
    return _CHUNK_FIXED.pack(
        chunk.payload_bytes, chunk.events, chunk.first_pos, chunk.writes,
        len(chunk.thread_counts),
    ) + b"".join(_THREAD_COUNT.pack(*pair) for pair in sorted(chunk.thread_counts.items()))


def _pack_records(flat: List[int]) -> bytes:
    """The v2 records of a flat ``[kind, thread, arg, kind, …]`` list.

    One precompiled ``struct`` call per 256 records, one more for the
    tail: no Python code runs per record.  A value that does not fit
    ``<Bqq`` raises :class:`struct.error`.
    """
    step = 3 * _PACK_RECORDS
    whole = len(flat) - len(flat) % step
    pack = _PACK_BLOCK.pack
    parts = [pack(*flat[start:start + step]) for start in range(0, whole, step)]
    if whole < len(flat):
        tail = flat[whole:]
        parts.append(struct.pack("<" + "Bqq" * (len(tail) // 3), *tail))
    return b"".join(parts)


def _read_exact(stream: IO[bytes], size: int, what: str) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise BinaryTraceError(f"truncated binary trace: short read of {what}")
    return data


class BinaryTraceWriter(TraceConsumer):
    """Streams the event vocabulary to a chunked binary file.

    A flat buffer: each hook appends ``kind, thread, arg`` to one list
    itself, with no helper call, and compares its length against the
    chunk size.  A chunk is encoded once, when it is sealed: the list is
    packed into records 256 at a time (one precompiled ``struct`` call
    each, one more for the tail), the write count is counted in the
    packed kind bytes and the per-thread counts in the list's thread
    slice.

    Call :meth:`close` to seal the file with footer and trailer once
    recording is over; sealing is deliberately *not* tied to
    ``on_finish``, so several executions can be recorded into one trace
    (the substrates fire ``on_finish`` after each run).  The underlying
    stream is left open.

    Every sealed chunk is flushed to the OS at ``_flush_chunk`` time so
    a concurrent tailer (:mod:`repro.streaming`) sees it immediately —
    data buffered in the writer process is invisible to other processes
    and would starve any live consumer.  ``durable=True`` additionally
    ``fsync``\\ s after each chunk (and the seal), trading throughput
    for power-loss durability.  ``names_stream`` attaches a live names
    sidecar: newly interned routine names are appended (escaped, one
    per line) and flushed — and with ``durable``, fsynced — *before* the
    chunk that first references them is written, so a tailer that can
    read a chunk can always resolve its ``CALL`` ids, footer or not.
    """

    name = "binary-trace-writer"

    def __init__(
        self,
        stream: IO[bytes],
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        durable: bool = False,
        names_stream: Optional[IO[str]] = None,
    ):
        if chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self.stream = stream
        self.chunk_events = chunk_events
        self.durable = durable
        self.names_stream = names_stream
        self.chunks: List[ChunkMeta] = []
        self.closed = False
        self._name_ids: Dict[str, int] = {}
        self._names: List[str] = []
        self._names_flushed = 0
        self._sealed_events = 0
        #: the open chunk, ``kind, thread, arg`` per event
        self._flat: List[int] = []
        self._flat_limit = 3 * chunk_events
        stream.write(BINARY_MAGIC)

    @property
    def events_written(self) -> int:
        """Events in sealed chunks plus events buffered in the open one."""
        return self._sealed_events + len(self._flat) // 3

    # -- record emission ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        """The id of a routine name not yet in the string table."""
        ident = len(self._names)
        self._name_ids[name] = ident
        self._names.append(name)
        return ident

    def _chunk_full(self) -> None:
        """A hook filled the open chunk: seal it, or refuse after ``close``.

        ``close`` sets the limit to 0, so the next hook lands here and
        raises; the hooks themselves test nothing but the length.
        """
        if self.closed:
            self._flat = []
            raise BinaryTraceError("write on a sealed binary trace")
        self._flush_chunk()

    def _flush_chunk(self) -> None:
        flat = self._flat
        if not flat:
            return
        # packed first: a record that does not fit ``<Bqq`` raises here,
        # before anything is written or the buffer is cleared
        payload = _pack_records(flat)
        events = len(flat) // 3
        kinds = payload[0::RECORD_BYTES]
        writes = kinds.count(_WRITE) + kinds.count(_KERNEL_WRITE)
        counts = dict(Counter(flat[1::3]))
        self._flat = []
        # Sidecar first: by the time the chunk's bytes reach the OS, every
        # name its CALL records reference must already be readable.
        self._flush_names()
        offset = self.stream.tell()
        header_bytes = _CHUNK_FIXED.size + _THREAD_COUNT.size * len(counts)
        chunk = ChunkMeta(offset, offset + header_bytes, len(payload),
                          events, self._sealed_events, writes, counts)
        self.stream.write(_chunk_header(chunk) + payload)
        self.chunks.append(chunk)
        self._sealed_events += events
        self._sync(self.stream)

    def _flush_names(self) -> None:
        """Append newly interned names to the live sidecar and flush."""
        if self.names_stream is None or self._names_flushed >= len(self._names):
            return
        for name in self._names[self._names_flushed:]:
            self.names_stream.write(escape_name(name) + "\n")
        self._names_flushed = len(self._names)
        self._sync(self.names_stream)

    def _sync(self, stream: IO) -> None:
        """Flush ``stream`` to the OS; fsync too when ``durable``."""
        stream.flush()
        if self.durable:
            try:
                fd = stream.fileno()
            except (AttributeError, OSError, ValueError):
                return  # in-memory stream: nothing to sync
            os.fsync(fd)

    def close(self) -> None:
        """Flush the open chunk and seal the file (idempotent)."""
        if self.closed:
            return
        self._flush_chunk()
        footer_offset = self.stream.tell()
        out = self.stream
        out.write(_U32.pack(len(self._names)))
        for name in self._names:
            raw = name.encode("utf-8")
            out.write(_U32.pack(len(raw)))
            out.write(raw)
        out.write(_U32.pack(len(self.chunks)))
        for chunk in self.chunks:
            out.write(_U64.pack(chunk.offset) + _chunk_header(chunk))
        out.write(_TRAILER.pack(footer_offset, self.events_written, _TRAILER_MAGIC))
        self._sync(out)
        self.closed = True
        self._flat_limit = 0   # every later hook lands in _chunk_full

    # -- TraceConsumer callbacks -------------------------------------------------
    #
    # Each hook appends its record's three values to the open chunk
    # itself, with no helper call (three ``list.append`` calls cost less
    # than building and concatenating a tuple), and compares one length;
    # ``_chunk_full`` seals the chunk, or raises once the file is closed.

    def on_call(self, thread: int, routine: str) -> None:
        ident = self._name_ids.get(routine)
        if ident is None:
            ident = self._intern(routine)
        flat = self._flat
        flat.append(_CALL)
        flat.append(thread)
        flat.append(ident)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_return(self, thread: int) -> None:
        flat = self._flat
        flat.append(_RETURN)
        flat.append(thread)
        flat.append(0)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_read(self, thread: int, addr: int) -> None:
        flat = self._flat
        flat.append(_READ)
        flat.append(thread)
        flat.append(addr)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_write(self, thread: int, addr: int) -> None:
        flat = self._flat
        flat.append(_WRITE)
        flat.append(thread)
        flat.append(addr)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_kernel_read(self, thread: int, addr: int) -> None:
        flat = self._flat
        flat.append(_KERNEL_READ)
        flat.append(thread)
        flat.append(addr)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_kernel_write(self, thread: int, addr: int) -> None:
        flat = self._flat
        flat.append(_KERNEL_WRITE)
        flat.append(thread)
        flat.append(addr)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_thread_switch(self, thread: int) -> None:
        flat = self._flat
        flat.append(_THREAD_SWITCH)
        flat.append(thread)
        flat.append(thread)
        if len(flat) >= self._flat_limit:
            self._chunk_full()

    def on_cost(self, thread: int, units: int) -> None:
        flat = self._flat
        flat.append(_COST)
        flat.append(thread)
        flat.append(units)
        if len(flat) >= self._flat_limit:
            self._chunk_full()


def write_binary_trace(
    events: Iterable[Event], stream: IO[bytes],
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> int:
    """Write an event iterable as a sealed v2 trace; returns the count."""
    writer = BinaryTraceWriter(stream, chunk_events=chunk_events)
    replay(events, writer)
    writer.close()
    return writer.events_written


# -- reading ------------------------------------------------------------------


def _parse_chunk_fixed(data: bytes, stream: IO[bytes]) -> Tuple[int, int, int, int, Dict[int, int]]:
    payload_bytes, events, first_pos, writes, n_threads = _CHUNK_FIXED.unpack(data)
    counts: Dict[int, int] = {}
    raw = _read_exact(stream, _THREAD_COUNT.size * n_threads, "chunk thread table")
    for thread, count in _THREAD_COUNT.iter_unpack(raw):
        counts[thread] = count
    return payload_bytes, events, first_pos, writes, counts


def read_trace_meta(stream: IO[bytes]) -> TraceMeta:
    """Load footer metadata from a seekable v2 stream (no chunk decode).

    A stream with the right magic but a missing or torn seal raises
    :class:`TruncatedChunk` (recoverable: the writer may still be
    running, or died mid-flush — the sealed prefix is intact and a
    tailer can consume it).  Anything else malformed raises plain
    :class:`BinaryTraceError`, a chunk index entry with no event or with
    a payload outside ``[end of magic, footer offset)`` included.
    """
    stream.seek(0)
    if stream.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
        raise BinaryTraceError("not a binary trace (bad magic)")
    size = stream.seek(0, 2)
    if size < len(BINARY_MAGIC) + _TRAILER.size:
        raise TruncatedChunk(
            "binary trace is unsealed (no room for a trailer yet): "
            "the writer has not sealed the file")
    stream.seek(-_TRAILER.size, 2)
    trailer_offset = stream.tell()
    footer_offset, event_count, magic = _TRAILER.unpack(
        _read_exact(stream, _TRAILER.size, "trailer"))
    if magic != _TRAILER_MAGIC:
        raise TruncatedChunk(
            "binary trace is unsealed or truncated (bad trailer): "
            "writer still running, or killed mid-flush")
    if not len(BINARY_MAGIC) <= footer_offset <= trailer_offset:
        raise BinaryTraceError("corrupt trailer: footer offset out of range")
    stream.seek(footer_offset)
    (n_names,) = _U32.unpack(_read_exact(stream, _U32.size, "string table size"))
    names: List[str] = []
    for _ in range(n_names):
        (length,) = _U32.unpack(_read_exact(stream, _U32.size, "name length"))
        if length > trailer_offset - stream.tell():     # never allocate past the file
            raise BinaryTraceError("truncated binary trace: short read of name")
        names.append(_read_exact(stream, length, "name").decode("utf-8"))
    (n_chunks,) = _U32.unpack(_read_exact(stream, _U32.size, "chunk index size"))
    chunks: List[ChunkMeta] = []
    for index in range(n_chunks):
        (offset,) = _U64.unpack(_read_exact(stream, _U64.size, "chunk offset"))
        fixed = _read_exact(stream, _CHUNK_FIXED.size, "chunk index entry")
        payload_bytes, events, first_pos, writes, counts = _parse_chunk_fixed(fixed, stream)
        payload_offset = offset + _CHUNK_FIXED.size + _THREAD_COUNT.size * len(counts)
        # as ``read_chunk_header`` checks a live chunk: one event at least,
        # and a payload between the magic and the footer
        if (events <= 0 or offset < len(BINARY_MAGIC)
                or payload_offset + payload_bytes > footer_offset):
            raise BinaryTraceError(
                f"corrupt chunk index: chunk {index} ({events} event(s), "
                f"{payload_bytes} payload bytes at offset {payload_offset}) is empty "
                f"or not between the magic and the footer at {footer_offset}")
        chunks.append(ChunkMeta(offset, payload_offset, payload_bytes, events,
                                first_pos, writes, counts))
    return TraceMeta(event_count, names, chunks)


def read_chunk_header(
    stream: IO[bytes], offset: int, size: int, first_pos: int
) -> Optional[ChunkMeta]:
    """The chunk whose header starts at ``offset`` of an unsealed file.

    Follows a v2 file that is still being written, before its footer
    exists: ``size`` is the file size the caller observed and
    ``first_pos`` the global position the next chunk must start at.
    Returns ``None`` unless a plausible header *and* its whole payload
    lie before ``size``; the bytes there may be a chunk still being
    flushed, the footer being written, or a torn tail, and reading again
    later tells which.  Plausible means at least one event and one
    thread, a payload of exactly ``events`` records, the expected first
    position, and per-thread counts that sum to ``events``.
    """
    if offset + _CHUNK_FIXED.size > size:
        return None
    stream.seek(offset)
    fixed = stream.read(_CHUNK_FIXED.size)
    if len(fixed) != _CHUNK_FIXED.size:
        return None
    payload_bytes, events, chunk_first, writes, n_threads = _CHUNK_FIXED.unpack(fixed)
    if (events <= 0 or n_threads <= 0
            or payload_bytes != events * RECORD_BYTES
            or chunk_first != first_pos):
        return None
    table_bytes = _THREAD_COUNT.size * n_threads
    header_size = _CHUNK_FIXED.size + table_bytes
    if offset + header_size + payload_bytes > size:
        return None
    raw = stream.read(table_bytes)
    if len(raw) != table_bytes:
        return None
    counts = {thread: count for thread, count in _THREAD_COUNT.iter_unpack(raw)}
    if sum(counts.values()) != events:
        return None
    return ChunkMeta(offset, offset + header_size, payload_bytes, events,
                     first_pos, writes, counts)


#: every valid kind byte, for the per-chunk ``bytes.translate`` check
_KIND_BYTES = bytes(int(kind) for kind in EventKind)


def _read_payload(stream: IO[bytes], chunk: ChunkMeta) -> Tuple[bytes, bytes]:
    """Read ``chunk``'s records; returns ``(payload, kind column)``.

    The one entry of both chunk decoders.  A payload that is not exactly
    ``events`` records raises :class:`BinaryTraceError` before anything
    is read; a kind byte outside ``EventKind`` raises
    :class:`~repro.core.tracefile.MalformedRecord`.
    """
    if chunk.payload_bytes != chunk.events * RECORD_BYTES:
        raise BinaryTraceError("chunk payload size disagrees with event count")
    stream.seek(chunk.payload_offset)
    payload = _read_exact(stream, chunk.payload_bytes, "chunk payload")
    kinds = payload[0::RECORD_BYTES]
    if kinds.translate(None, _KIND_BYTES):
        offset = next(i for i, kind in enumerate(kinds) if kind not in _KIND_BYTES)
        raise MalformedRecord(
            f"unknown event kind {kinds[offset]} at position {chunk.first_pos + offset}")
    return payload, kinds


def decode_chunk(
    stream: IO[bytes], chunk: ChunkMeta, names: Sequence[str]
) -> Iterator[Tuple[int, Event]]:
    """Yield ``(global position, event)`` for every record of ``chunk``.

    Raises :class:`BinaryTraceError` on a payload size that disagrees
    with the event count, and :class:`~repro.core.tracefile.MalformedRecord`
    on an unknown kind byte or a ``CALL`` routine id outside ``names``.
    """
    payload, _ = _read_payload(stream, chunk)
    position = chunk.first_pos
    call = EventKind.CALL
    ret = EventKind.RETURN
    name_count = len(names)
    for kind, thread, arg in _RECORD.iter_unpack(payload):
        kind = EventKind(kind)
        if kind == call:
            if not 0 <= arg < name_count:
                raise MalformedRecord(
                    f"routine id {arg} at position {position} outside "
                    f"string table of {name_count} name(s)")
            yield position, Event(kind, thread, names[arg])
        elif kind == ret:
            yield position, Event(kind, thread, None)
        else:
            yield position, Event(kind, thread, arg)
        position += 1


class ChunkColumns(NamedTuple):
    """One decoded chunk as flat event columns (the flat kernel's food).

    Instead of one :class:`~repro.core.events.Event` object per record,
    the whole chunk becomes three parallel columns indexed by record
    ordinal: ``kinds[i]`` / ``threads[i]`` / ``args[i]`` describe the
    event at global position ``first_pos + i``.  ``CALL`` arguments stay
    *interned* routine ids (indices into the trace string table) — the
    flat kernel works on integers end to end and only materialises
    routine names when a profile record is emitted.
    """

    first_pos: int    #: global position of record 0
    events: int
    kinds: bytes      #: one event-kind byte per record
    threads: array    #: ``array('q')`` of issuing thread ids
    args: array       #: ``array('q')`` of raw arguments (CALL: name id)


#: the strided column decode reinterprets i64 bytes in place
_NATIVE_I64 = sys.byteorder == "little" and array("q").itemsize == 8


def decode_chunk_columns(stream: IO[bytes], chunk: ChunkMeta) -> ChunkColumns:
    """Decode a whole chunk into :class:`ChunkColumns` in one batch.

    The fast path never touches records one by one: the kind column is a
    single strided byte slice, and each 64-bit column is reassembled
    from eight strided byte slices into an ``array('q')`` — all C-speed
    bulk copies, ~20x faster than :func:`decode_chunk`.  Hosts whose
    native 64-bit layout differs from the file's little-endian records
    fall back to ``struct.iter_unpack`` with identical results.  A bad
    payload size or kind byte is rejected as in :func:`decode_chunk`;
    routine ids are checked where the flat kernel resolves them.
    """
    payload, kinds = _read_payload(stream, chunk)
    count = chunk.events
    threads = array("q")
    args = array("q")
    if _NATIVE_I64:
        thread_bytes = bytearray(8 * count)
        arg_bytes = bytearray(8 * count)
        for byte in range(8):
            thread_bytes[byte::8] = payload[1 + byte::RECORD_BYTES]
            arg_bytes[byte::8] = payload[9 + byte::RECORD_BYTES]
        threads.frombytes(bytes(thread_bytes))
        args.frombytes(bytes(arg_bytes))
    else:  # big-endian / exotic hosts
        for _, thread, arg in _RECORD.iter_unpack(payload):
            threads.append(thread)
            args.append(arg)
    return ChunkColumns(chunk.first_pos, count, kinds, threads, args)


def columns_from_events(
    events: Iterable[Event], first_pos: int = 0
) -> Tuple[ChunkColumns, List[str]]:
    """Columnarise an in-memory event stream; returns (columns, names).

    The offline flat kernel uses this when it is handed
    :class:`~repro.core.events.Event` objects instead of a v2 file:
    routine names are interned into a fresh string table so the columns
    carry the same integer vocabulary ``decode_chunk_columns`` produces.
    """
    name_ids: Dict[str, int] = {}
    names: List[str] = []
    flat: list = []
    for event in events:
        if event.kind == _CALL:
            ident = name_ids.get(event.arg)
            if ident is None:
                ident = len(names)
                name_ids[event.arg] = ident
                names.append(event.arg)
            flat += (_CALL, event.thread, ident)
        else:
            flat += (event.kind, event.thread, event.arg or 0)
    columns = ChunkColumns(first_pos, len(flat) // 3, bytes(flat[0::3]),
                           array("q", flat[1::3]), array("q", flat[2::3]))
    return columns, names


_CALL_BYTE = bytes([_CALL])
_RETURN_BYTE = bytes([_RETURN])


def rows_from_columns(
    columns: ChunkColumns, names: Sequence[str]
) -> Iterator[Tuple[int, int, object, int]]:
    """Plain ``(kind, thread, arg, 0)`` rows of ``columns``, in record order.

    The inverse of :func:`columns_from_events`: each row equals the
    :class:`Event` :func:`decode_chunk` yields for the same record,
    without the position, but with an int kind, which
    :func:`~repro.core.events.replay` dispatches the same way.  ``CALL``
    routine names are resolved through ``names`` and ``RETURN`` arguments
    are ``None``.  Only the ``CALL`` and ``RETURN`` records are visited in
    Python, found with ``bytes.find``; the rows themselves are built by
    C-level ``zip``.  A ``CALL`` id outside ``names`` raises
    :class:`~repro.core.tracefile.MalformedRecord` before any row is
    yielded, with :func:`decode_chunk`'s message.
    """
    kinds = columns.kinds
    args = columns.args.tolist()
    find = kinds.find
    name_count = len(names)
    index = find(_CALL_BYTE)
    while index >= 0:
        ident = args[index]
        if not 0 <= ident < name_count:
            raise MalformedRecord(
                f"routine id {ident} at position {columns.first_pos + index} outside "
                f"string table of {name_count} name(s)")
        args[index] = names[ident]
        index = find(_CALL_BYTE, index + 1)
    index = find(_RETURN_BYTE)
    while index >= 0:
        args[index] = None
        index = find(_RETURN_BYTE, index + 1)
    return zip(kinds, columns.threads, args, repeat(0))


def iter_positioned(
    stream: IO[bytes],
    meta: Optional[TraceMeta] = None,
    chunks: Optional[Sequence[ChunkMeta]] = None,
) -> Iterator[Tuple[int, Event]]:
    """Yield ``(position, event)`` over selected chunks (default: all)."""
    if meta is None:
        meta = read_trace_meta(stream)
    for chunk in (meta.chunks if chunks is None else chunks):
        yield from decode_chunk(stream, chunk, meta.names)


def iter_binary_trace(stream: IO[bytes]) -> Iterator[Event]:
    """Yield all events of a v2 trace in global order."""
    for _, event in iter_positioned(stream):
        yield event


def read_binary_trace(stream: IO[bytes]) -> List[Event]:
    """Load a whole v2 trace into memory."""
    return list(iter_binary_trace(stream))


def is_binary_trace(path: str) -> bool:
    """True when the file at ``path`` starts with the v2 magic."""
    try:
        with open(path, "rb") as stream:
            return stream.read(len(BINARY_MAGIC)) == BINARY_MAGIC
    except OSError:
        return False
