"""Chunk tailer: follow a growing v2 trace, chunk by sealed chunk.

A live recorder (``repro record --live``) flushes every sealed chunk
to the OS the moment it is full (:meth:`BinaryTraceWriter._flush_chunk`),
so the bytes of a growing trace are always
``magic · sealed chunks · [partial tail]`` and, once the writer calls
``close``, ``· footer · trailer``.  The tailer turns that into a pull
API:

* :meth:`ChunkTailer.poll` parses and returns every *complete* chunk
  that appeared since the last poll (bounded per poll — backpressure,
  see below), leaving a partial trailing chunk alone to be re-polled;
* routine names arrive through the live sidecar
  (:func:`repro.farm.binfmt.live_names_path`): the writer flushes each
  newly interned name *before* it writes the chunk that first uses it,
  and a poll reads the sidecar *after* it parses new chunk headers, so
  :attr:`names` always covers every delivered chunk.  Without a
  sidecar nothing is delivered before the seal (:attr:`hold_stalls`);
* each poll first looks for the seal; once the trailer lands, the
  footer becomes the authoritative chunk index, its string table
  extends :attr:`names` in place, the remaining chunks drain, and
  :attr:`sealed` flips;
* :meth:`finish` is the end-of-stream check and delivers nothing: on a
  file whose writer died mid-flush it raises
  :class:`~repro.farm.binfmt.TruncatedChunk` — typed and
  *recoverable*: everything delivered before the tear is a valid prefix.

Backpressure: ``max_chunks_per_poll`` bounds how much a single poll
may decode, so a tailer that woke up far behind the writer drains in
bounded-memory slices instead of swallowing the backlog whole;
:attr:`stalls` counts polls that hit the bound and
:meth:`pending_events_estimate` sizes the backlog (the
``streaming.events_behind`` gauge).
"""

from __future__ import annotations

import os
from typing import IO, List, Optional

from .. import telemetry
from ..core.tracefile import unescape_name
from ..farm.binfmt import (
    BINARY_MAGIC,
    RECORD_BYTES,
    BinaryTraceError,
    ChunkColumns,
    ChunkMeta,
    TruncatedChunk,
    decode_chunk_columns,
    live_names_path,
    read_chunk_header,
    read_trace_meta,
)

__all__ = ["ChunkTailer", "DEFAULT_MAX_CHUNKS_PER_POLL"]

DEFAULT_MAX_CHUNKS_PER_POLL = 64


class ChunkTailer:
    """Incrementally parse a growing v2 trace into sealed chunks.

    Args:
        path: the trace file (may not exist yet); its live names
            sidecar, if any, is ``path + ".names"``.
        max_chunks_per_poll: backpressure bound; at most this many
            chunks are parsed and returned per :meth:`poll`.
    """

    def __init__(self, path: str, max_chunks_per_poll: int = DEFAULT_MAX_CHUNKS_PER_POLL):
        if max_chunks_per_poll <= 0:
            raise ValueError("max_chunks_per_poll must be positive")
        self.path = path
        self.names_path = live_names_path(path)
        self.max_chunks_per_poll = max_chunks_per_poll
        #: routine names: sidecar lines, then the rest of the footer's
        #: table; only ever extended in place, so a consumer may hold it
        self.names: List[str] = []
        self.sealed = False
        self.events_seen = 0
        #: polls that were cut short by ``max_chunks_per_poll``
        self.stalls = 0
        #: polls before the seal that delivered nothing: no names sidecar
        self.hold_stalls = 0
        self._stream: Optional[IO[bytes]] = None
        self._offset = 0              # next unparsed byte (0 = magic unchecked)
        self._next_pos = 0            # global position the next chunk must start at
        self._names_offset = 0        # consumed bytes of the sidecar
        self._pending: List[ChunkMeta] = []   # sealed-footer chunks not yet delivered
        self._tail_size = 0           # file size at the last look

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "ChunkTailer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def drained(self) -> bool:
        """True once the trace is sealed and every chunk was delivered."""
        return self.sealed and not self._pending

    # -- polling -----------------------------------------------------------------

    def _open(self) -> Optional[IO[bytes]]:
        """The trace stream once its magic is checked; None before that."""
        if self._stream is None:
            try:
                self._stream = open(self.path, "rb")
            except FileNotFoundError:
                return None
        stream = self._stream
        self._tail_size = os.fstat(stream.fileno()).st_size
        if self._offset == 0:
            if self._tail_size < len(BINARY_MAGIC):
                return None
            stream.seek(0)
            if stream.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
                raise BinaryTraceError(f"{self.path}: not a binary trace (bad magic)")
            self._offset = len(BINARY_MAGIC)
        return stream

    def refresh_names(self) -> None:
        """Pull newly flushed names from the sidecar."""
        if self.sealed:
            return
        try:
            with open(self.names_path, "r", encoding="utf-8") as stream:
                stream.seek(self._names_offset)
                block = stream.read()
        except FileNotFoundError:
            return
        consumed = 0
        for line in block.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # torn tail line: re-read next poll
            self.names.append(unescape_name(line[:-1]))
            consumed += len(line.encode("utf-8"))
        self._names_offset += consumed

    def _check_seal(self, stream: IO[bytes]) -> bool:
        """Look for a valid trailer+footer; adopt it when present."""
        try:
            meta = read_trace_meta(stream)
        except BinaryTraceError:
            return False
        known = len(self.names)
        if meta.names[:known] != self.names:
            raise BinaryTraceError(
                f"{self.path}: the names sidecar disagrees with the footer's "
                "string table")
        self.names.extend(meta.names[known:])
        # The footer's chunk index is authoritative: queue everything we
        # have not yet delivered (matched by global position).
        self._pending = [c for c in meta.chunks if c.first_pos >= self._next_pos]
        self.sealed = True
        return True

    def _parse_unsealed(self, stream: IO[bytes], budget: int) -> List[ChunkMeta]:
        """Sequentially parse complete chunks between offset and EOF."""
        fresh: List[ChunkMeta] = []
        while budget > 0:
            chunk = read_chunk_header(stream, self._offset, self._tail_size, self._next_pos)
            if chunk is None:
                # A partial trailing chunk (re-poll later), the footer
                # being written (the seal resolves it next poll) or a
                # torn file (finish() reports that): stop, no progress.
                break
            fresh.append(chunk)
            self._offset = chunk.payload_offset + chunk.payload_bytes
            self._next_pos = chunk.last_pos
            budget -= 1
        return fresh

    def poll(self) -> List[ChunkColumns]:
        """Deliver every complete chunk that appeared since last poll.

        Returns decoded :class:`ChunkColumns` in trace order (at most
        ``max_chunks_per_poll`` of them).  An empty list means either
        no new deliverable chunk yet (re-poll later) or, if
        :attr:`drained`, end of stream.
        """
        stream = self._open()
        if stream is None:
            return []
        budget = self.max_chunks_per_poll
        with telemetry.span("stream.tail", path=os.path.basename(self.path)) as tail_span:
            fresh: List[ChunkMeta] = []
            if not self.sealed and not self._check_seal(stream):
                if os.path.exists(self.names_path):
                    fresh = self._parse_unsealed(stream, budget)
                    # names after chunks: the writer flushed every name a
                    # parsed chunk uses before it wrote that chunk
                    self.refresh_names()
                else:
                    self.hold_stalls += 1   # names come with the footer only
            if self.sealed and self._pending:
                fresh = self._pending[:budget]
                self._pending = self._pending[budget:]
            if len(fresh) == budget and (self._pending or self._offset < self._tail_size):
                self.stalls += 1
            columns: List[ChunkColumns] = []
            for chunk in fresh:
                with telemetry.span("stream.decode", events=chunk.events):
                    columns.append(decode_chunk_columns(stream, chunk))
            self.events_seen += sum(chunk.events for chunk in fresh)
            tail_span.set(chunks=len(columns), sealed=self.sealed)
        return columns

    # -- accounting --------------------------------------------------------------

    def pending_events_estimate(self) -> int:
        """Approximate events on disk not yet delivered (the backlog)."""
        if self.sealed:
            return sum(chunk.events for chunk in self._pending)
        pending_bytes = max(0, self._tail_size - max(self._offset, len(BINARY_MAGIC)))
        return pending_bytes // RECORD_BYTES

    def finish(self) -> None:
        """Assert end of stream; raise on a torn or unsealed tail.

        Call when the producer is known to be gone.  Delivers nothing:
        a seal it finds leaves its chunks to the next :meth:`poll`.  A
        clean seal (or a missing or empty file) passes; anything else
        raises :class:`TruncatedChunk` — the typed, recoverable signal
        that everything already delivered is a valid prefix.
        """
        stream = self._open()
        if stream is not None and not self.sealed:
            self._check_seal(stream)
        if self.sealed:
            return
        leftover = self._tail_size - max(self._offset, len(BINARY_MAGIC))
        if self._tail_size and self._offset == 0:
            leftover = self._tail_size  # never even saw a full magic
        if leftover > 0:
            raise TruncatedChunk(
                f"{self.path}: unsealed trace with {leftover} undelivered "
                f"trailing byte(s) after {self.events_seen} delivered event(s) — "
                "writer killed mid-flush?")
        if self.events_seen or self._tail_size:
            raise TruncatedChunk(
                f"{self.path}: trace was never sealed (no footer/trailer); "
                f"{self.events_seen} event(s) delivered form a valid prefix")
