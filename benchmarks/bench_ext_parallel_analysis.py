"""Extension experiment: the paper's future work, measured.

"It would be interesting to adapt our methodology to a fully scalable
and concurrent dynamic instrumentation framework, in order to exploit
parallelism to leverage the slowdown of our profiler."  Over a recorded
trace the flat kernel (`repro.core.flatkernel`) analyses any subset of
threads exactly from their own events plus everyone's writes, so the
farm (`repro.farm`) cuts a trace into whole-thread shards and analyses
them in separate processes, sharing no mutable state.

Measured and asserted here, on a recorded 8-thread workload mix:

* exactness: the farm at 1 job (one inline shard) and at 4 jobs (a
  process pool) reproduces the online profiler's profiles bit for bit
  (also pinned by the farm differential tests);
* the 4-job run analysed every shard on the pool, with no inline
  fallback.

Wall times are reported, not asserted: the 4-job speedup depends on
the host's CPU count, and pool start-up weighs heavily on a trace this
small.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core import Event, EventKind, TrmsProfiler
from repro.farm import analyze_file, write_binary_trace
from repro.reporting import table
from repro.workloads import benchmark as get_benchmark

from conftest import EventRecorder, replay_recorded, run_once

JOBS = (1, 4)

_KIND_MAP = {
    "on_call": EventKind.CALL, "on_return": EventKind.RETURN,
    "on_read": EventKind.READ, "on_write": EventKind.WRITE,
    "on_kernel_read": EventKind.KERNEL_READ,
    "on_kernel_write": EventKind.KERNEL_WRITE,
    "on_thread_switch": EventKind.THREAD_SWITCH,
    "on_cost": EventKind.COST,
}


def record_events():
    recorder = EventRecorder()
    for name in ("351.bwaves", "350.md", "372.smithwa"):
        get_benchmark(name).run(tools=recorder, threads=8, scale=1.5)
    events = []
    for name, first, second in recorder.events:
        kind = _KIND_MAP[name]
        if kind == EventKind.THREAD_SWITCH:
            events.append(Event(kind, first, first))
        elif kind == EventKind.RETURN:
            events.append(Event(kind, first, None))
        else:
            events.append(Event(kind, first, second))
    return recorder.events, events


def snapshot(db):
    return sorted(
        (p.routine, p.thread, p.calls, p.size_sum, p.cost_sum,
         p.induced_thread_sum, p.induced_external_sum)
        for p in db
    )


def run_study():
    raw_events, events = record_events()

    online = TrmsProfiler()
    start = time.perf_counter()
    replay_recorded(raw_events, online)
    online_time = time.perf_counter() - start

    timings = {}
    results = {}
    stats = {}
    handle, path = tempfile.mkstemp(suffix=".rpt2")
    try:
        with os.fdopen(handle, "wb") as stream:
            write_binary_trace(events, stream)
        for jobs in JOBS:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                result = analyze_file(path, jobs=jobs)
                best = min(best, time.perf_counter() - start)
            timings[jobs] = best
            results[jobs] = snapshot(result.db)
            stats[jobs] = result.stats
    finally:
        os.unlink(path)
    return len(events), online_time, timings, results, stats, snapshot(online.db)


def test_ext_parallel_analysis(benchmark):
    (event_count, online_time, timings, results, stats,
     online_snapshot) = run_once(benchmark, run_study)

    rows = [["online (single pass)", "-", f"{online_time * 1000:.1f}ms"]]
    for jobs in JOBS:
        rows.append([f"farm, {jobs} job(s)", len(stats[jobs].outcomes),
                     f"{timings[jobs] * 1000:.1f}ms"])
    print()
    print(table(
        ["configuration", "shards", "time"],
        rows,
        title=f"Future work — parallel analysis ({event_count} events, "
              f"8 guest threads, {os.cpu_count()} host CPU(s))",
    ))

    # exactness, inline and pooled
    for jobs in JOBS:
        assert results[jobs] == online_snapshot, jobs

    # the pooled run really fanned out: several shards, none fell back
    pooled = stats[4]
    assert len(pooled.outcomes) > 1
    assert all(outcome.where == "pool" for outcome in pooled.outcomes)
    assert pooled.fallbacks == 0
