"""``live``: one program recorded over and over with live streaming on.

The recorder is wired exactly as ``repro record --live`` wires it: a
``BinaryTraceWriter`` with a live names sidecar, and a
``LiveProfileSession`` co-tailing the growing trace on its own thread
(``session.run`` with its default poll interval).  Small chunks and a
small checkpoint interval cut many sealed chunks and frequent atomic
snapshot writes, so the tailer, the incremental feed and the snapshot
writer do the work here: a change that helps batch decode but hurts
incremental feed shows up on this workload.

A recording is kept short so that a run makes dozens of them: how the
recorder and the co-tailing thread interleave varies from one
recording to the next, and the median over many is steady.  The input
is one fixed program and scale; the seed does not change it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import threading
import time
from typing import Dict, List, Tuple

from common import (
    HostClock, Tally, median, peak_rss_mb, percentile, repeated_setup,
    sha256_bytes, sha256_file,
)
from ledger import Ledger

PROGRAM = "350.md"
SCALE = 3.0
THREADS = 4                 # the CLI default
CHUNK_EVENTS = 1024         # repro record --chunk-events
CHECKPOINT_EVENTS = 1024    # repro record --checkpoint-events
CHECKPOINT_SECONDS = 0.5    # what repro record --live passes
MIN_RECORDINGS = 3


def reference(work: str) -> Tuple[str, str]:
    """SHA-256 of the trace and of its batch flat-kernel dump."""
    from repro.farm import BinaryTraceWriter, analyze_file, save_profile
    from repro.workloads import benchmark

    trace = os.path.join(work, "reference.rpt2")
    with open(trace, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=CHUNK_EVENTS)
        benchmark(PROGRAM).run(tools=writer, threads=THREADS, scale=SCALE)
        writer.close()
    text = io.StringIO()
    save_profile(analyze_file(trace, jobs=1).db, text)
    return sha256_file(trace), sha256_bytes(text.getvalue().encode("utf-8"))


def _install(ledger: Ledger) -> None:
    """Patch the recorder, the tailer, the incremental engine and snapshots."""
    import repro.core.flatkernel
    import repro.farm.binfmt
    import repro.streaming.engine
    import repro.streaming.snapshot
    import repro.streaming.tailer
    import repro.workloads.suites

    ledger.patch(repro.workloads.suites.Benchmark, "run", "record.run")
    ledger.patch(repro.farm.binfmt.BinaryTraceWriter, "close", "binfmt.encode")
    ledger.patch(repro.streaming.tailer.ChunkTailer, "poll", "streaming.tail", "tail")
    ledger.wrap_result(repro.streaming.tailer, "decode_chunk_columns", "binfmt.decode",
                       lambda columns: ledger.count("decoded_events", columns.events))
    ledger.patch(repro.streaming.engine.LiveProfileSession, "step", "streaming.tail", "tail")
    ledger.patch(repro.streaming.engine.StreamingAnalyzer, "feed", "streaming.feed", "feed")
    ledger.patch(repro.core.flatkernel.FlatAnalyzer, "feed", "flatkernel", "flatkernel")
    ledger.patch(repro.core.flatkernel.FlatAnalyzer, "finish", "flatkernel", "flatkernel")
    ledger.patch(repro.streaming.engine.LiveProfileSession, "checkpoint",
                 "streaming.snapshot", "snapshot")
    ledger.patch(repro.streaming.snapshot.SnapshotWriter, "emit",
                 "streaming.snapshot", "snapshot")


class Recording:
    """One native run plus one live recording of the same program."""

    def __init__(self) -> None:
        self.native = 0.0
        self.native_cpu = 0.0
        self.recorded = 0.0      #: recorder start to trace sealed
        self.live = 0.0          #: recorder start to final checkpoint
        #: native and live in HostClock seconds
        self.native_scaled = 0.0
        self.live_scaled = 0.0
        self.seal_to_profile = 0.0
        self.events = 0
        self.chunks = 0
        self.trace_bytes = 0
        self.dump_bytes = 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self.deltas = 0
        self.hold_stalls = 0
        self.truncated = 0
        self.lags_ms: List[float] = []
        self.ledger = None


def record_once(reference_digests: Tuple[str, str], work: str, tally: Tally,
                clock: HostClock, traced: bool = False) -> Recording:
    from repro.farm import BinaryTraceWriter, live_names_path
    from repro.streaming import LiveProfileSession, checkpoint_dump_bytes, load_manifest
    from repro.workloads import benchmark

    result = Recording()
    bench = benchmark(PROGRAM)
    cpu = time.thread_time()
    started = clock.start()
    bench.run(tools=None, threads=THREADS, scale=SCALE)
    result.native = time.perf_counter() - started
    result.native_cpu = time.thread_time() - cpu
    result.native_scaled = clock.stop(started)

    trace = os.path.join(work, "live.rpt2")
    ckpt = os.path.join(work, "ckpt")
    shutil.rmtree(ckpt, ignore_errors=True)
    ledger = Ledger() if traced else None
    result.ledger = ledger
    if ledger is not None:
        _install(ledger)
    try:
        started = clock.start()
        with contextlib.ExitStack() as stack:
            stream = stack.enter_context(open(trace, "wb"))
            names_stream = stack.enter_context(open(live_names_path(trace), "w"))
            session = LiveProfileSession(
                trace, ckpt, checkpoint_events=CHECKPOINT_EVENTS,
                checkpoint_seconds=CHECKPOINT_SECONDS)
            watcher = threading.Thread(target=session.run, name="repro-live",
                                       daemon=True)
            writer = BinaryTraceWriter(stream, chunk_events=CHUNK_EVENTS,
                                       names_stream=names_stream)
            watcher.start()
            bench.run(tools=writer, threads=THREADS, scale=SCALE)
            writer.close()
            sealed = time.perf_counter()
            watcher.join(timeout=60.0)
            finished = time.perf_counter()
        result.live_scaled = clock.stop(started)
    finally:
        if ledger is not None:
            ledger.restore()
    result.recorded = sealed - started
    result.live = finished - started
    result.seal_to_profile = finished - sealed

    result.events = writer.events_written
    result.chunks = len(writer.chunks)
    result.trace_bytes = os.path.getsize(trace)
    result.checkpoints = len(session.checkpoints)
    result.checkpoint_bytes = sum(info.bytes_written for info in session.checkpoints)
    result.deltas = sum(1 for info in session.checkpoints if info.delta)
    result.hold_stalls = session.hold_stalls
    result.lags_ms = list(session.lag_samples_ms)
    # session.run re-raises TruncatedChunk after checkpointing the
    # recovered prefix: the session then never reaches ``finalized``
    result.truncated = 0 if session.finalized else 1

    trace_digest, dump_digest = reference_digests
    dump = checkpoint_dump_bytes(ckpt)
    result.dump_bytes = len(dump)
    ok = (not watcher.is_alive() and session.finalized
          and result.hold_stalls == 0 and load_manifest(ckpt)["closed"])
    correct = (sha256_file(trace) == trace_digest
               and sha256_bytes(dump) == dump_digest)
    tally.record(ok, correct)
    return result


def setup(work: str):
    digests, seconds = repeated_setup(lambda: reference(work))
    return digests[0], seconds


def measure(seed: int, seconds: float, work: str) -> Tuple[Dict[str, float], Tally]:
    digests, setup_s = setup(work)
    tally = Tally()
    runs: List[Recording] = []
    clock = HostClock()
    started = time.perf_counter()
    while len(runs) < MIN_RECORDINGS or time.perf_counter() - started < seconds:
        runs.append(record_once(digests, work, tally, clock))
    live_s = median([r.live_scaled for r in runs])
    metrics = {
        "setup_s": setup_s,
        "time_to_profile_ms": live_s * 1000.0,
        "slowdown": median([r.live_scaled / r.native_scaled for r in runs]),
        "throughput_per_s": runs[0].events / live_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tally


def _recording_layers(result: Recording) -> Dict[str, float]:
    """Per-layer figures of one traced recording (CPU-time basis)."""
    ledger = result.ledger
    selfs = ledger.self_cpu
    run_self = selfs.get("record.run", 0.0)
    vm_self = min(result.native_cpu, run_self)
    layers = {
        "vm": vm_self,
        "binfmt.encode": run_self - vm_self + selfs.get("binfmt.encode", 0.0),
        "binfmt.decode": selfs.get("binfmt.decode", 0.0),
        "flatkernel": selfs.get("flatkernel", 0.0),
        "streaming.tail": selfs.get("streaming.tail", 0.0),
        "streaming.feed": selfs.get("streaming.feed", 0.0),
        "streaming.snapshot": selfs.get("streaming.snapshot", 0.0),
    }
    figures = {f"{layer}.share": seconds / result.live for layer, seconds in layers.items()}
    figures["other.share"] = max(0.0, 1.0 - sum(figures.values()))
    decode_s = selfs.get("binfmt.decode", 0.0)
    figures.update({
        "vm.native_s": result.native,
        "binfmt.record_overhead_s": result.recorded - result.native,
        "binfmt.bytes_per_event": result.trace_bytes / result.events,
        "binfmt.chunks": result.chunks,
        "binfmt.decode_s": decode_s,
        "binfmt.decode_events_per_s": ledger.counts["decoded_events"] / decode_s,
        "flatkernel.analyze_s": ledger.inclusive_cpu["flatkernel"],
        "streaming.tail_s": ledger.inclusive_cpu["tail"],
        "streaming.feed_s": ledger.inclusive_cpu["feed"],
        "streaming.snapshot_s": ledger.inclusive_cpu["snapshot"],
        "streaming.checkpoints": result.checkpoints,
        "streaming.checkpoint_bytes": result.checkpoint_bytes,
        "streaming.delta_share": result.deltas / result.checkpoints,
        "streaming.hold_stalls": result.hold_stalls,
        "streaming.truncated": result.truncated,
        "dump.bytes": result.dump_bytes,
    })
    return figures


def measure_traced(seed: int, seconds: float, work: str) -> Tuple[Dict[str, float], Tally]:
    digests, _setup_s = setup(work)
    tally = Tally()
    plain: List[Recording] = []
    traced: List[Recording] = []
    clock = HostClock()
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        plain.append(record_once(digests, work, tally, clock))
        traced.append(record_once(digests, work, tally, clock, traced=True))

    per_run = [_recording_layers(result) for result in traced]
    metrics = {name: sum(r[name] for r in per_run) / len(per_run) for name in per_run[0]}
    lags = [lag for result in plain for lag in result.lags_ms]
    metrics.update({
        "streaming.checkpoint_lag_p50_ms": percentile(lags, 50),
        "streaming.checkpoint_lag_p90_ms": percentile(lags, 90),
        "streaming.seal_to_profile_ms": median([r.seal_to_profile for r in plain]) * 1000.0,
        "trace.overhead_share": (median([r.live_scaled for r in traced])
                                 / median([r.live_scaled for r in plain]) - 1.0),
        "failed_ops_share": tally.failed_share,
    })
    return metrics, tally
