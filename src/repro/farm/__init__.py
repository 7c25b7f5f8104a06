"""Recorded-trace analysis.

The paper's closing future-work item asks for parallelism "to leverage
the slowdown of our profiler".  This package analyses a recorded trace
after the run, off the profiled program's clock:

* :mod:`repro.farm.binfmt` — trace format v2: chunked, struct-packed
  binary traces with a string table and a seekable chunk index;
* :mod:`repro.farm.engine` — ``analyze_file``: one in-process pass that
  decodes every chunk once, feeds one flat kernel
  (:mod:`repro.core.flatkernel`) over every thread for TRMS, and
  replays RMS over plain rows of the same columns;
* :mod:`repro.farm.worker` — the name the pass decodes chunks through;
* :mod:`repro.farm.merge` — exact, associative profile merging across
  independent runs, plus the lossless profile dump format.

The contract is exactness: ``analyze_file``'s output is bit-identical
to the online :class:`~repro.core.trms.TrmsProfiler` (and, for RMS, the
online :class:`~repro.core.rms.RmsProfiler`) on every workload.
A process pool over whole-thread shards once ran the pass in parallel;
it never beat the one pass on a measured host and is gone (see
``docs/FARM.md``).
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
from .engine import FarmResult, FarmStats, analyze_file
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
    "analyze_file",
    "PROFILE_MAGIC",
    "ProfileDumpError",
    "copy_database",
    "is_profile_dump",
    "load_profile",
    "merge_databases",
    "merge_into",
    "save_profile",
]
