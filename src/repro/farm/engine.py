"""Trace analysis: a v2 trace file in, one profile database out.

``analyze_file`` is one in-process pass.  It opens the trace, decodes
every chunk into columns (:func:`~repro.farm.binfmt.decode_chunk_columns`)
and feeds them, in trace order, to one
:class:`~repro.core.flatkernel.FlatAnalyzer` over every thread.  The
result is bit-identical to the online ``TrmsProfiler``.  Nothing is
split across processes: every whole-thread shard would still have to
decode every chunk for the writes in it, and a process pool of such
shards never beat this pass (docs/FARM.md).

The pass is one ``analyze.pass`` telemetry span, with the event and
chunk counts and the decode/analyse split as attributes, plus the
``farm.trace_events`` counter.  None of this touches profile state —
the differential tests run with telemetry on and off and demand
bit-identical output.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

from .. import telemetry
from ..core.flatkernel import FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from . import worker
from .binfmt import read_trace_meta
from .merge import merge_databases  # noqa: F401 - perfbench batch.py patches this name

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["FarmStats", "FarmResult", "analyze_file"]


class FarmStats(NamedTuple):
    """The pass's own numbers, rendered by ``reporting.render_farm_stats``."""

    events: int  #: events in the trace, all analysed
    chunks: int
    wall_seconds: float
    decode_seconds: float
    analyze_seconds: float
    max_rss_kb: int  #: peak RSS of this process
    retries: int = 0  #: always 0: perfbench batch.py sums it
    fallbacks: int = 0  #: always 0: perfbench batch.py sums it

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


class FarmResult(NamedTuple):
    db: ProfileDatabase
    stats: FarmStats


def _max_rss_kb() -> int:
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def analyze_file(
    path: str,
    jobs: Optional[int] = None,  # ignored: perfbench live.py and batch.py pass it
    context_sensitive: bool = False,
    keep_activations: bool = False,
) -> FarmResult:
    """Analyse a recorded v2 trace in one pass; exact by contract.

    A file that is not a sealed v2 trace raises
    :class:`~repro.farm.binfmt.BinaryTraceError`; a malformed record
    raises :class:`~repro.core.tracefile.MalformedRecord`.
    """
    started = time.perf_counter()
    db = ProfileDatabase(keep_activations=keep_activations)
    decode_seconds = 0.0
    with telemetry.span("analyze.pass") as span:
        with open(path, "rb") as stream:
            meta = read_trace_meta(stream)
            analyzer = FlatAnalyzer(meta.names, db, context_sensitive=context_sensitive)
            for chunk in meta.chunks:
                decode_started = time.perf_counter()
                columns = worker.decode_chunk_columns(stream, chunk)
                decode_seconds += time.perf_counter() - decode_started
                analyzer.feed(columns)
            analyzer.finish()
        wall = time.perf_counter() - started
        analyze_seconds = max(0.0, wall - decode_seconds)
        span.set(
            events=meta.event_count,
            chunks=len(meta.chunks),
            decode_s=round(decode_seconds, 6),
            analyze_s=round(analyze_seconds, 6),
        )
    stats = FarmStats(
        meta.event_count, len(meta.chunks), wall, decode_seconds, analyze_seconds, _max_rss_kb()
    )
    telemetry.counter("farm.trace_events").inc(stats.events)
    return FarmResult(db, stats)
