"""Incremental analysis engine: the flat kernel fed by the tailer.

Streaming is "merge as you go": the exact associativity of the profile
merge (:mod:`repro.farm.merge`) means a prefix of chunks analysed now
plus the rest analysed later equals the batch run.  Concretely the
engine keeps one :class:`~repro.core.flatkernel.FlatAnalyzer` alive
across polls and feeds it sealed ``ChunkColumns`` in trace order, so
the final database — after the trace seals and drains — is
*bit-identical* to ``repro analyze`` (the streaming differential suite
compares the dumps byte for byte).

The :class:`~repro.streaming.tailer.ChunkTailer` alone owns routine
names and end-of-stream; the analyzer holds its ``names`` list, so the
session feeds each delivered chunk at once and queues nothing.

Bounded memory and backpressure: the analyzer's running state is the
same per-thread stacks + latest-access tables the batch kernel keeps —
streaming adds no history.  What *can* grow without bound is the
backlog between writer and reader; the tailer caps work per poll, and
the session accounts for it (:attr:`StreamingAnalyzer.events_fed`,
``events_behind``, stall counts) in every checkpoint manifest and the
``streaming.checkpoint_lag_ms`` / ``streaming.events_behind`` gauges.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import List, Optional

from .. import telemetry
from ..core.flatkernel import FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from ..farm.binfmt import ChunkColumns, TruncatedChunk
from .snapshot import CheckpointInfo, SnapshotWriter
from .tailer import ChunkTailer

__all__ = [
    "StreamingAnalyzer",
    "LiveProfileSession",
    "DEFAULT_CHECKPOINT_EVENTS",
    "stream_id_for",
]

DEFAULT_CHECKPOINT_EVENTS = 65536


def stream_id_for(trace_path: str) -> str:
    """A new stream id for one recording of ``trace_path``.

    The path digest groups the streams of one trace path; the random
    suffix keeps two recordings to that path apart, so each is a run of
    its own downstream (``stream-<id>``).
    """
    digest = hashlib.sha256(os.path.abspath(trace_path).encode("utf-8"))
    return f"{digest.hexdigest()[:12]}-{os.urandom(4).hex()}"


class StreamingAnalyzer:
    """A :class:`FlatAnalyzer` over the tailer's ``names`` list, with a tally."""

    def __init__(self, names: List[str], context_sensitive: bool = False):
        self.db = ProfileDatabase()
        self.analyzer = FlatAnalyzer(names, self.db, context_sensitive=context_sensitive)
        self.events_fed = 0

    def feed(self, columns: ChunkColumns) -> None:
        with telemetry.span("stream.feed", events=columns.events,
                            first_pos=columns.first_pos):
            self.analyzer.feed(columns)
        self.events_fed += columns.events

    def finish(self) -> ProfileDatabase:
        """Unwind pending activations; the database is now the batch result."""
        self.analyzer.finish()
        return self.db


class LiveProfileSession:
    """Tail one growing trace into periodic profile checkpoints.

    Glues tailer → analyzer → snapshot writer.  Drive it with
    :meth:`step` (one poll; returns chunks consumed) and
    :meth:`finalize`, or let :meth:`run` loop until the trace seals.
    Checkpoints are cut every ``checkpoint_events`` fed events or
    ``checkpoint_seconds`` of wall time, whichever comes first, and
    once more — ``closed`` — after the final ``finish()``.  Without an
    explicit ``stream_id`` each session mints its own
    (:func:`stream_id_for`), so two recordings to one path never share
    a run downstream.
    """

    def __init__(
        self,
        trace_path: str,
        checkpoint_dir: str,
        stream_id: Optional[str] = None,
        checkpoint_events: int = DEFAULT_CHECKPOINT_EVENTS,
        checkpoint_seconds: float = 2.0,
        context_sensitive: bool = False,
    ):
        self.trace_path = trace_path
        self.stream_id = stream_id or stream_id_for(trace_path)
        self.checkpoint_events = checkpoint_events
        self.checkpoint_seconds = checkpoint_seconds
        self.tailer = ChunkTailer(trace_path)
        self.analyzer = StreamingAnalyzer(self.tailer.names,
                                          context_sensitive=context_sensitive)
        self.snapshots = SnapshotWriter(checkpoint_dir, self.stream_id)
        self.checkpoints: List[CheckpointInfo] = []
        #: per-checkpoint freshness lag samples (ms) — bench fodder
        self.lag_samples_ms: List[float] = []
        self.finalized = False
        self._since_checkpoint = 0
        self._oldest_unsnapshotted: Optional[float] = None
        self._last_checkpoint_at = time.perf_counter()
        self._started = time.perf_counter()

    @property
    def hold_stalls(self) -> int:
        """Polls that waited for the seal: the trace has no names sidecar."""
        return self.tailer.hold_stalls

    # -- plumbing ----------------------------------------------------------------

    def step(self) -> int:
        """One poll: tail, feed, checkpoint when due; returns chunks consumed."""
        polled = self.tailer.poll()
        for columns in polled:
            self.analyzer.feed(columns)
            if self._oldest_unsnapshotted is None:
                self._oldest_unsnapshotted = time.perf_counter()
            self._since_checkpoint += columns.events
        due_events = self._since_checkpoint >= self.checkpoint_events
        due_time = (self._since_checkpoint > 0
                    and time.perf_counter() - self._last_checkpoint_at
                    >= self.checkpoint_seconds)
        if due_events or due_time:
            self.checkpoint()
        return len(polled)

    def checkpoint(self, closed: bool = False) -> CheckpointInfo:
        """Materialise the current partial profile as the next snapshot."""
        now = time.perf_counter()
        lag_ms = ((now - self._oldest_unsnapshotted) * 1000.0
                  if self._oldest_unsnapshotted is not None else 0.0)
        events_behind = self.tailer.pending_events_estimate()
        elapsed = max(now - self._started, 1e-9)
        events_per_s = self.analyzer.events_fed / elapsed
        with telemetry.span("stream.snapshot", closed=closed) as snap_span:
            info = self.snapshots.emit(
                self.analyzer.db,
                events_analyzed=self.analyzer.events_fed,
                events_behind=events_behind,
                lag_ms=lag_ms,
                events_per_s=events_per_s,
                closed=closed,
                timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
                extra={
                    "trace": os.path.basename(self.trace_path),
                    "stalls": self.tailer.stalls + self.tailer.hold_stalls,
                },
            )
            snap_span.set(seq=info.seq, bytes=info.bytes_written)
        telemetry.gauge("streaming.checkpoint_lag_ms").set(round(lag_ms, 3))
        telemetry.gauge("streaming.events_behind").set(events_behind)
        self.checkpoints.append(info)
        self.lag_samples_ms.append(lag_ms)
        self._since_checkpoint = 0
        self._oldest_unsnapshotted = None
        self._last_checkpoint_at = now
        return info

    # -- termination -------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """True once the trace is sealed and every chunk was fed."""
        return self.tailer.drained

    def _drain(self) -> None:
        while self.step():
            pass

    def finalize(self) -> ProfileDatabase:
        """Drain, unwind, and emit the final ``closed`` checkpoint.

        Raises :class:`~repro.farm.binfmt.TruncatedChunk` (after
        checkpointing what was recovered) when the trace never sealed —
        the recoverable-prefix contract.
        """
        if self.finalized:
            return self.analyzer.db
        self._drain()
        if not self.drained:
            try:
                self.tailer.finish()   # raises TruncatedChunk with the details
            except TruncatedChunk:
                self.checkpoint(closed=False)   # persist the recovered prefix
                self.tailer.close()
                raise
            self._drain()   # the chunks of a seal finish() just found
        self.analyzer.finish()
        self.checkpoint(closed=True)
        self.finalized = True
        self.tailer.close()
        return self.analyzer.db

    def run(self, poll_interval: float = 0.05,
            timeout: Optional[float] = None) -> ProfileDatabase:
        """Poll until the trace seals and drains, then finalize.

        A poll that consumed nothing sleeps ``poll_interval`` before the
        next one, unless it found the seal with every chunk delivered:
        then the loop ends at once.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        while not self.drained:
            if not self.step() and not self.drained:
                if deadline is not None and time.perf_counter() > deadline:
                    break
                time.sleep(poll_interval)
        return self.finalize()
