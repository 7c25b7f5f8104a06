"""Distributed trace-analysis farm.

The paper's closing future-work item asks for "a fully scalable and
concurrent dynamic instrumentation framework … to exploit parallelism
to leverage the slowdown of our profiler".  Over a recorded trace the
flat kernel (:mod:`repro.core.flatkernel`) analyses any subset of
threads exactly from their own events plus everyone's writes, so
per-thread analyses share no mutable state — but Python threads cannot
cash that in under the GIL.  This package spreads them over processes:

* :mod:`repro.farm.binfmt` — trace format v2: chunked, struct-packed
  binary traces with a string table and a seekable chunk index;
* :mod:`repro.farm.shards` — shard planning over the chunk index
  (longest-processing-time packing of whole threads);
* :mod:`repro.farm.worker` — the per-process shard analyser;
* :mod:`repro.farm.merge` — exact, associative profile merging across
  shards and across independent runs, plus the lossless profile dump
  format;
* :mod:`repro.farm.engine` — orchestration with per-shard timeouts,
  bounded retries and inline fallback, each shard's tallies kept on
  its :class:`~repro.farm.engine.ShardOutcome`.

The farm's contract is exactness: its merged output is bit-identical
to the online :class:`~repro.core.trms.TrmsProfiler` on every
workload; parallel speed is never allowed to change a profile.
"""

from .binfmt import (
    BINARY_MAGIC,
    NAMES_SUFFIX,
    BinaryTraceError,
    BinaryTraceWriter,
    ChunkMeta,
    TraceMeta,
    TruncatedChunk,
    is_binary_trace,
    iter_binary_trace,
    live_names_path,
    read_binary_trace,
    read_trace_meta,
    write_binary_trace,
)
from .engine import FarmResult, FarmStats, ShardOutcome, analyze_events, analyze_file
from .merge import (
    PROFILE_MAGIC,
    ProfileDumpError,
    copy_database,
    is_profile_dump,
    load_profile,
    merge_databases,
    merge_into,
    save_profile,
)
from .shards import Shard, plan_shards
from .worker import ShardTask, WorkerResult, run_shard

__all__ = [
    "BINARY_MAGIC",
    "NAMES_SUFFIX",
    "BinaryTraceError",
    "BinaryTraceWriter",
    "ChunkMeta",
    "TraceMeta",
    "TruncatedChunk",
    "live_names_path",
    "is_binary_trace",
    "iter_binary_trace",
    "read_binary_trace",
    "read_trace_meta",
    "write_binary_trace",
    "FarmResult",
    "FarmStats",
    "ShardOutcome",
    "analyze_events",
    "analyze_file",
    "PROFILE_MAGIC",
    "ProfileDumpError",
    "copy_database",
    "is_profile_dump",
    "load_profile",
    "merge_databases",
    "merge_into",
    "save_profile",
    "Shard",
    "plan_shards",
    "ShardTask",
    "WorkerResult",
    "run_shard",
]
