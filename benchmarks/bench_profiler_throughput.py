"""Microbenchmarks: raw analysis throughput of each profiler.

Unlike the experiment benches (one timed round each), these use
pytest-benchmark statistically: the same recorded event stream is
replayed into a fresh profiler per round, giving stable events/second
numbers for the regression record.  The stream mixes call-heavy
(kdtree), memory-heavy (bwaves) and kernel-I/O (imagick) traffic.
The pytrace case profiles Python code online instead: a session's
per-access path and the profiler behind it.
"""

from __future__ import annotations

import pytest

from repro.core import NaiveTrms, RmsProfiler, TrmsProfiler
from repro.pytrace import TraceSession, traced
from repro.workloads import benchmark as get_benchmark

from conftest import EventRecorder, replay_recorded

_STREAM = None


def stream():
    global _STREAM
    if _STREAM is None:
        recorder = EventRecorder()
        for name in ("376.kdtree", "351.bwaves", "367.imagick"):
            get_benchmark(name).run(tools=recorder, threads=4, scale=1.0)
        _STREAM = recorder.events
    return _STREAM


@pytest.mark.parametrize("factory, label", [
    (RmsProfiler, "rms"),
    (TrmsProfiler, "trms"),
    (lambda: TrmsProfiler(context_sensitive=True), "trms-context"),
    (lambda: TrmsProfiler(use_chunked_shadow=True), "trms-chunked"),
], ids=["rms", "trms", "trms-context", "trms-chunked"])
def test_profiler_throughput(benchmark, factory, label):
    events = stream()

    def run():
        replay_recorded(events, factory())

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    rate = len(events) / benchmark.stats.stats.mean
    print(f"\n{label}: {rate / 1000:.0f}k events/s over {len(events)} events")
    assert rate > 50_000, f"{label} fell below 50k events/s: {rate:.0f}"


@traced
def count_matches(records, index):
    hits = 0
    for other in range(len(records)):
        if records[index] == records[other]:
            hits += 1
    return hits


def test_pytrace_session_throughput(benchmark):
    """A session feeding a TrmsProfiler from the nested loop of perfbench
    service's regressed ``lookup``, one traced call per outer iteration:
    most reads repeat a cell within one epoch, as in the sweep."""
    size = 120
    accesses = []

    def run():
        session = TraceSession(tools=TrmsProfiler())
        with session:
            records = session.array(size, fill=1)
            for index in range(size):
                count_matches(records, index)
        accesses.append(session.ops)

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    rate = accesses[-1] / benchmark.stats.stats.mean
    print(f"\npytrace: {rate / 1000:.0f}k accesses/s over {accesses[-1]} accesses")
    assert rate > 50_000, f"pytrace fell below 50k accesses/s: {rate:.0f}"


def deep_stream(depth: int = 40, rounds: int = 60, reads: int = 30):
    """A call-stack-deep stream: here the Figure 10 oracle's per-access
    stack walk costs ~depth times the O(1) timestamping update."""
    events = [("on_thread_switch", 1, None)]
    for index in range(depth):
        events.append(("on_call", 1, f"f{index}"))
    for round_number in range(rounds):
        for read in range(reads):
            events.append(("on_read", 1, (round_number * reads + read) % 64))
        events.append(("on_cost", 1, 1))
    for index in range(depth):
        events.append(("on_return", 1, None))
    return events


def test_naive_oracle_is_much_slower(benchmark):
    """The gap the latest-access approach exists to close: on deep call
    stacks the Figure 10 oracle walks every pending frame per access."""
    import time

    events = deep_stream()

    def run():
        replay_recorded(events, NaiveTrms())

    benchmark.pedantic(run, rounds=3, iterations=1)
    naive_rate = len(events) / benchmark.stats.stats.min

    fast_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        replay_recorded(events, TrmsProfiler())
        fast_best = min(fast_best, time.perf_counter() - start)
    fast_rate = len(events) / fast_best
    print(f"\nnaive {naive_rate / 1000:.0f}k events/s vs "
          f"timestamping {fast_rate / 1000:.0f}k events/s at depth 40")
    assert fast_rate > 2.0 * naive_rate
