"""Trace analysis: a v2 trace file in, one profile database per metric out.

``analyze_file`` is one in-process pass for every metric.  It opens the
trace and decodes every chunk once into columns
(:func:`~repro.farm.binfmt.decode_chunk_columns`).  For TRMS it feeds
the columns, in trace order, to one
:class:`~repro.core.flatkernel.FlatAnalyzer` over every thread.  For
RMS it replays an online :class:`~repro.core.rms.RmsProfiler` over
plain ``(kind, thread, arg, 0)`` rows of the same columns
(:func:`~repro.farm.binfmt.rows_from_columns`), so no ``Event`` is
built; :func:`~repro.core.events.replay` binds the profiler's handlers
once.  The replay drives the pass, so each chunk is decoded, fed to the
kernel, then replayed.  Each database is bit-identical to the online
profiler of its metric.
Nothing is split across processes: every whole-thread shard would
still have to decode every chunk for the writes in it, and a process
pool of such shards never beat this pass (docs/FARM.md).

The pass is one ``analyze.pass`` telemetry span, with the event and
chunk counts and the decode / TRMS / RMS split as attributes, plus the
``farm.trace_events`` counter.  None of this touches profile state —
the differential tests run with telemetry on and off and demand
bit-identical output.
"""

from __future__ import annotations

import time
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional

from .. import core, telemetry
from ..core.flatkernel import FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from ..core.rms import RmsProfiler
from . import worker
from .binfmt import ChunkColumns, read_trace_meta, rows_from_columns
from .merge import merge_databases  # noqa: F401 - perfbench batch.py patches this name

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["FarmStats", "FarmResult", "analyze_file"]

#: the ``metric`` values of :func:`analyze_file`, as ``repro analyze --metric``
_METRICS = ("rms", "trms", "both")


class FarmStats(NamedTuple):
    """The pass's own numbers, rendered by ``reporting.render_farm_stats``."""

    events: int  #: events in the trace, all analysed
    chunks: int
    wall_seconds: float
    decode_seconds: float
    analyze_seconds: float  #: the rest of the wall: flat TRMS kernel and footer read
    max_rss_kb: int  #: peak RSS of this process
    retries: int = 0  #: always 0: perfbench batch.py sums it
    fallbacks: int = 0  #: always 0: perfbench batch.py sums it
    rms_seconds: float = 0.0  #: RMS replay over the column rows, decode and kernel excluded

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


class FarmResult(NamedTuple):
    db: Optional[ProfileDatabase]  #: TRMS; ``None`` under ``metric="rms"``
    stats: FarmStats
    rms_db: Optional[ProfileDatabase] = None  #: RMS; ``None`` under ``metric="trms"``


def _max_rss_kb() -> int:
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def analyze_file(
    path: str,
    jobs: Optional[int] = None,  # ignored: perfbench live.py and batch.py pass it
    metric: str = "trms",
    context_sensitive: bool = False,
    keep_activations: bool = False,
) -> FarmResult:
    """Analyse a recorded v2 trace in one pass; exact by contract.

    ``metric`` is ``"trms"``, ``"rms"`` or ``"both"``, and the pass does
    exactly that work: no flat kernel runs without TRMS, and no row is
    built without RMS.  No ``Event`` is built under any metric.

    A file that is not a sealed v2 trace raises
    :class:`~repro.farm.binfmt.BinaryTraceError`; a malformed record
    raises :class:`~repro.core.tracefile.MalformedRecord`.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}: expected one of {_METRICS}")
    started = time.perf_counter()
    db = None if metric == "rms" else ProfileDatabase(keep_activations=keep_activations)
    rms = None if metric == "trms" else RmsProfiler(
        keep_activations=keep_activations, context_sensitive=context_sensitive)
    decode_seconds = kernel_seconds = rms_seconds = 0.0
    with telemetry.span("analyze.pass") as span:
        with open(path, "rb") as stream:
            meta = read_trace_meta(stream)
            analyzer = None if db is None else FlatAnalyzer(
                meta.names, db, context_sensitive=context_sensitive)

            def decoded() -> Iterator[ChunkColumns]:
                """Decode each chunk once, feed the kernel, hand the columns on."""
                nonlocal decode_seconds, kernel_seconds
                for chunk in meta.chunks:
                    decode_started = time.perf_counter()
                    columns = worker.decode_chunk_columns(stream, chunk)
                    decoded_at = time.perf_counter()
                    decode_seconds += decoded_at - decode_started
                    if analyzer is not None:
                        analyzer.feed(columns)
                        kernel_seconds += time.perf_counter() - decoded_at
                    yield columns

            if rms is None:
                for _ in decoded():
                    pass
            else:
                replay_started = time.perf_counter()
                # looked up at call time: perfbench batch.py patches core.replay
                core.replay(chain.from_iterable(
                    map(rows_from_columns, decoded(), repeat(meta.names))), rms)
                rms_seconds = max(0.0, time.perf_counter() - replay_started
                                  - decode_seconds - kernel_seconds)
            if analyzer is not None:
                analyzer.finish()
        wall = time.perf_counter() - started
        analyze_seconds = max(0.0, wall - decode_seconds - rms_seconds)
        span.set(
            events=meta.event_count,
            chunks=len(meta.chunks),
            decode_s=round(decode_seconds, 6),
            analyze_s=round(analyze_seconds, 6),
            rms_s=round(rms_seconds, 6),
        )
    stats = FarmStats(
        meta.event_count, len(meta.chunks), wall, decode_seconds, analyze_seconds,
        _max_rss_kb(), rms_seconds=rms_seconds,
    )
    telemetry.counter("farm.trace_events").inc(stats.events)
    return FarmResult(db, stats, None if rms is None else rms.db)
