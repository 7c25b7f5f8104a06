"""Live-profile observability: analyse the trace *while* it records.

The batch pipeline (record → seal → analyze) leaves a run invisible
until its trace file closes; a production firehose cannot wait that
long.  This package closes the gap, ROADMAP's "streaming analysis"
item:

* :mod:`repro.streaming.tailer` — :class:`ChunkTailer` follows a
  growing v2 trace chunk by sealed chunk and alone owns routine names
  and end-of-stream (live names sidecar, or the footer when there is
  none; torn tails typed as :class:`~repro.farm.binfmt.TruncatedChunk`;
  per-poll backpressure bounds);
* :mod:`repro.streaming.engine` — :class:`StreamingAnalyzer` keeps one
  whole-trace :class:`~repro.core.flatkernel.FlatAnalyzer` alive across
  polls ("merge as you go"); :class:`LiveProfileSession` glues tailer,
  analyzer and snapshots into one drive-able loop that feeds every
  delivered chunk at once;
* :mod:`repro.streaming.snapshot` — :class:`SnapshotWriter` emits
  atomic, sequence-numbered partial ``repro-profile 1`` checkpoints
  (each a full dump) plus the ``CURRENT.json`` manifest that carries
  lag metrics;
* :mod:`repro.streaming.watch` — the ``repro watch`` ASCII dashboard
  (top routines by fitted growth class, throughput, checkpoint lag).

Contract, enforced by the streaming differential suite: once the trace
seals, the final streamed profile is **byte-identical** to batch
``repro analyze`` under *any* chunk-arrival schedule.
See docs/STREAMING.md.
"""

from .engine import (
    DEFAULT_CHECKPOINT_EVENTS,
    LiveProfileSession,
    StreamingAnalyzer,
    stream_id_for,
)
from .snapshot import (
    MANIFEST_NAME,
    STREAM_SCHEMA,
    CheckpointInfo,
    SnapshotWriter,
    checkpoint_dump_bytes,
    load_checkpoint,
    load_manifest,
)
from .tailer import DEFAULT_MAX_CHUNKS_PER_POLL, ChunkTailer
from .watch import render_watch, routine_rows

__all__ = [
    "DEFAULT_CHECKPOINT_EVENTS",
    "DEFAULT_MAX_CHUNKS_PER_POLL",
    "MANIFEST_NAME",
    "STREAM_SCHEMA",
    "CheckpointInfo",
    "ChunkTailer",
    "LiveProfileSession",
    "SnapshotWriter",
    "StreamingAnalyzer",
    "checkpoint_dump_bytes",
    "load_checkpoint",
    "load_manifest",
    "render_watch",
    "routine_rows",
    "stream_id_for",
]
