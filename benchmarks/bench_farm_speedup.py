"""Farm extension: the one analysis pass over a 16-thread workload mix.

``repro.farm.analyze_file`` analyses a recorded trace in one
in-process pass of the flat kernel.  A process pool over whole-thread
shards used to run it in parallel; it lost to the one pass at every
trace size measured on a 2-CPU host (docs/FARM.md) and was deleted.
This bench keeps the workload that measured the pool:

* exactness first: the pass's output is bit-identical to the online
  profiler, and its dump digest is gated (``workload_mix``);
* throughput (events/s) of the pass on a recorded 16-thread mix,
  best of 3, informational.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import time

from repro.core import TrmsProfiler, replay
from repro.farm import BinaryTraceWriter, analyze_file, read_binary_trace, save_profile
from repro.reporting import table
from repro.workloads import benchmark as get_benchmark

from conftest import bench_scale, run_once, save_result

THREADS = 16
WORKLOADS = ("351.bwaves", "350.md", "372.smithwa")


def record_workload(path: str) -> int:
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=4096)
        for name in WORKLOADS:
            get_benchmark(name).run(tools=writer, threads=THREADS, scale=1.5)
        writer.close()
    return writer.events_written


def profile_snapshot(db):
    return sorted(
        (p.routine, p.thread, p.calls, p.size_sum, p.cost_sum,
         p.induced_thread_sum, p.induced_external_sum)
        for p in db
    ), db.total_induced()


def run_study():
    handle, path = tempfile.mkstemp(suffix=".rpt2")
    os.close(handle)
    try:
        event_count = record_workload(path)

        with open(path, "rb") as stream:
            events = read_binary_trace(stream)
        online = TrmsProfiler()
        replay(events, online)
        online_snapshot = profile_snapshot(online.db)
        del events

        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = analyze_file(path)
            best = min(best, time.perf_counter() - start)
        stream = io.StringIO()
        save_profile(result.db, stream)
        digest = hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
        return event_count, best, profile_snapshot(result.db), online_snapshot, digest
    finally:
        os.unlink(path)


def test_farm_speedup(benchmark):
    event_count, seconds, snapshot, online_snapshot, digest = run_once(
        benchmark, run_study)

    print()
    print(table(
        ["configuration", "time", "events/s"],
        [["one pass", f"{seconds * 1000:.1f}ms", f"{event_count / seconds:,.0f}"]],
        title=f"Analysis pass — {event_count} events, {THREADS} guest threads",
    ))

    # exactness is unconditional
    assert snapshot == online_snapshot

    save_result("farm_speedup", {
        "event_count": event_count,
        "timings_ms": {"pass": round(seconds * 1000, 2)},
        "host_cpus": os.cpu_count(),
        "gate": {
            "scale": bench_scale(),
            # the gate holds the result *exact* (hash); throughput is
            # informational and compared with --absolute alone
            "ratios": {},
            "throughput": {
                "farm_events_per_s": round(event_count / seconds) if seconds else 0,
            },
            "profile_sha256": {"workload_mix": digest},
        },
    })
