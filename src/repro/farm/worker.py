"""Farm worker: analyse one shard of a recorded trace, in-process.

``run_shard`` is what the engine runs for every shard — in the shard's
own process, or inline in the coordinator (its task and result types
are picklable for the trip back over the pipe).  A worker is
deliberately self-sufficient: it opens the trace file itself, decodes
only its shard's chunk subset into columns, and feeds them in trace
order to one :class:`~repro.core.flatkernel.FlatAnalyzer` covering its
assigned threads — other threads' events contribute only their writes.
Nothing mutable crosses the process boundary in either direction — the
price is that every worker re-reads the write chunks, the payoff is
that workers share no state and the result is exact by construction.

A worker writes nothing but its result: the decode/analyse split, CPU
time and peak RSS travel on the :class:`WorkerResult`, from which the
coordinator builds the shard's telemetry.
"""

from __future__ import annotations

import os
import time
from typing import NamedTuple, Tuple

from ..core.flatkernel import FlatAnalyzer
from ..core.profile_data import ProfileDatabase
from .binfmt import decode_chunk_columns, read_trace_meta

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["ShardTask", "WorkerResult", "run_shard"]


class ShardTask(NamedTuple):
    """Everything a worker needs, picklable and immutable."""

    trace_path: str
    shard_id: int
    threads: Tuple[int, ...]
    chunk_indices: Tuple[int, ...]
    context_sensitive: bool = False
    keep_activations: bool = False


class WorkerResult(NamedTuple):
    shard_id: int
    db: ProfileDatabase
    events_decoded: int
    seconds: float
    pid: int
    decode_seconds: float = 0.0
    analyze_seconds: float = 0.0
    cpu_seconds: float = 0.0
    max_rss_kb: int = 0


def _max_rss_kb() -> int:
    if _resource is None:
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def run_shard(task: ShardTask) -> WorkerResult:
    """Decode the shard's chunks, analyse its threads, return the profiles.

    Chunks are decoded whole into :class:`~repro.farm.binfmt.ChunkColumns`
    and fed, in trace order, to one flat-kernel analyzer — decode and
    analysis interleave per chunk, so ``decode_seconds`` is purely the
    columnar batch decode.
    """
    started = time.perf_counter()
    cpu0 = time.process_time()
    db = ProfileDatabase(keep_activations=task.keep_activations)
    decoded = 0
    decode_seconds = 0.0
    with open(task.trace_path, "rb") as stream:
        meta = read_trace_meta(stream)
        analyzer = FlatAnalyzer(task.threads, meta.names, db,
                                context_sensitive=task.context_sensitive)
        for chunk_index in sorted(task.chunk_indices):
            decode_started = time.perf_counter()
            columns = decode_chunk_columns(stream, meta.chunks[chunk_index])
            decode_seconds += time.perf_counter() - decode_started
            analyzer.feed(columns)
            decoded += columns.events
        analyzer.finish()
    seconds = time.perf_counter() - started
    return WorkerResult(task.shard_id, db, decoded, seconds, os.getpid(),
                        decode_seconds, max(0.0, seconds - decode_seconds),
                        time.process_time() - cpu0, _max_rss_kb())
