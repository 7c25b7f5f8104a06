"""Table 1: time slowdown and space overhead of the evaluated tools.

Paper: twelve SPEC OMP2012 benchmarks (four threads) under nulgrind,
memcheck, callgrind, helgrind, aprof-rms and aprof-trms; slowdowns
reported against native, space against native RSS.  Geometric means in
the paper: nulgrind 23.6x native; callgrind 64.8x; memcheck 94.1x;
aprof-rms 101.5x; aprof-trms 140.8x; helgrind 179.4x.  Space (vs
native): nulgrind 1.4x, callgrind 1.5x, memcheck 2.0x, aprof-rms 2.8x,
aprof-trms 3.3x, helgrind 4.5x.

Substrate caveat: under Valgrind the *analysis* dominates run time (the
paper's native baseline is silicon); under our Python VM the
interpretation loop dominates and per-event analysis is a modest delta
on top, so the absolute slowdown factors compress and the fine ordering
between the *comparator* tools (callgrind vs memcheck vs helgrind) is
within measurement noise.  What carries over — and is asserted — are the
paper's claims about its own artifact:

* recognising induced first-accesses costs extra: aprof-trms's analysis
  overhead exceeds aprof-rms's (the paper measures +38%);
* aprof-trms is *comparable* to the other heavyweight tools: its
  analysis overhead lies within the band the comparators span;
* nulgrind (no analysis) is the cheapest instrumented configuration;
* the encoding-independent space orderings hold: memcheck's bit-packed
  state < aprof-rms < aprof-trms <= helgrind, everything > nulgrind.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List

from repro.reporting import table
from repro.tools import TOOL_NAMES, make_tool
from repro.workloads import SPEC_OMP

from conftest import EventRecorder, bench_scale, geometric_mean, replay_recorded, run_once, save_result

THREADS = 4
REPEATS = 3
#: shortest replay sample of one tool, in seconds
MIN_SAMPLE_S = 0.2
#: samples per tool in the replay comparison; the median is kept
REPLAY_REPEATS = 9


def _best_time(run, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-6)


def _replay_pass(streams: List[list], tool_name: str) -> float:
    """Seconds one replay of every stream into fresh tools takes."""
    start = time.perf_counter()
    for events in streams:
        replay_recorded(events, make_tool(tool_name))
    return time.perf_counter() - start


def replay_times_of(streams: List[list]) -> Dict[str, float]:
    """Seconds per replay of every stream, per tool.

    One pass over the streams lasts 10-35 ms, too short to time alone
    on a shared machine.  A tool's sample is the mean of ``loops``
    passes, ``loops`` chosen so that the cheapest tool's sample spans
    ``MIN_SAMPLE_S``.  Within each of ``REPLAY_REPEATS`` rounds the
    tools take turns pass by pass (in reverse order every other round),
    so a slow spell of the host lands on every tool's sample alike;
    each tool keeps its median sample.
    """
    fastest = min(_replay_pass(streams, "nulgrind") for _ in range(3))
    loops = max(1, math.ceil(MIN_SAMPLE_S / fastest))
    samples: Dict[str, List[float]] = {name: [] for name in TOOL_NAMES}
    for repeat in range(REPLAY_REPEATS):
        order = TOOL_NAMES if repeat % 2 == 0 else TOOL_NAMES[::-1]
        spent = dict.fromkeys(order, 0.0)
        for _ in range(loops):
            for name in order:
                spent[name] += _replay_pass(streams, name)
        for name in order:
            samples[name].append(spent[name] / loops)
    return {name: statistics.median(values) for name, values in samples.items()}


def run_suite():
    scale = bench_scale() * 2.0
    rows = []
    slowdowns = {name: [] for name in TOOL_NAMES}
    space_means = {name: [] for name in TOOL_NAMES}
    for name, bench in SPEC_OMP.items():
        bench.run(tools=None, threads=THREADS, scale=scale)   # warm-up
        native_time = _best_time(lambda: bench.run(tools=None, threads=THREADS, scale=scale))
        blocks = bench.run(tools=None, threads=THREADS, scale=scale).stats.total_blocks
        row = [name, f"{native_time * 1000:.0f}ms", blocks]
        for tool_name in TOOL_NAMES:
            tool_time = _best_time(
                lambda: bench.run(tools=make_tool(tool_name), threads=THREADS, scale=scale)
            )
            tool = make_tool(tool_name)
            bench.run(tools=tool, threads=THREADS, scale=scale)
            slowdown = tool_time / native_time
            slowdowns[tool_name].append(slowdown)
            space_means[tool_name].append(max(tool.space_bytes(), 1))
            row.append(f"{slowdown:.2f}x")
        rows.append(row)
    gms = {name: geometric_mean(values) for name, values in slowdowns.items()}
    rows.append(["geo-mean", "", ""] + [f"{gms[name]:.2f}x" for name in TOOL_NAMES])
    space_gms = {name: geometric_mean(values) for name, values in space_means.items()}

    # Analysis-only comparison: replay recorded event streams directly
    # into each tool, removing interpretation and scheduling noise.
    streams = []
    for bench_name in ("350.md", "351.bwaves", "376.kdtree"):
        recorder = EventRecorder()
        SPEC_OMP[bench_name].run(tools=recorder, threads=THREADS, scale=scale)
        streams.append(recorder.events)
    return rows, gms, space_gms, replay_times_of(streams)


def test_table1_overhead(benchmark):
    rows, gms, space_gms, replay_times = run_once(benchmark, run_suite)
    headers = ["benchmark", "native", "blocks"] + TOOL_NAMES
    print()
    print(table(headers, rows, title="Table 1 — slowdown vs native (12 SPEC-OMP-like, 4 threads)"))
    space_rows = [[name, f"{space_gms[name] / 1024:.1f} KiB"] for name in TOOL_NAMES]
    print(table(["tool", "geo-mean shadow state"], space_rows,
                title="Table 1 — analysis state (space)"))

    # The end-to-end slowdowns are reported; ordering assertions run on
    # the noise-free replay measurements below — wall-clock deltas of a
    # few percent flap between runs on a shared machine.
    for name in TOOL_NAMES:
        assert gms[name] > 0.85, (name, gms)  # sanity: none faster than 0.85x native

    # every real analysis costs more than the no-op baseline (replay)
    for name in ("memcheck", "callgrind", "helgrind", "aprof-rms", "aprof-trms"):
        assert replay_times[name] > replay_times["nulgrind"], (name, replay_times)

    # the paper's headline: recognising induced first-accesses costs
    # extra over plain rms profiling (paper: +38% run time).  Measured
    # on recorded event streams replayed directly into the analyses, so
    # interpretation noise cannot mask the difference.
    replay_rows = [[name, f"{replay_times[name] * 1000:.1f}ms"] for name in TOOL_NAMES]
    print(table(["tool", "analysis-only replay"], replay_rows,
                title="Table 1 — analysis cost on recorded event streams"))
    save_result("table1_overhead", {
        "slowdown_geomeans": gms,
        "space_geomeans_bytes": space_gms,
        "replay_times_seconds": replay_times,
    })
    trms_over_rms = replay_times["aprof-trms"] / replay_times["aprof-rms"]
    print(f"trms analysis cost vs rms: +{100 * (trms_over_rms - 1):.0f}% (paper: +38%)")
    assert trms_over_rms > 1.05, replay_times

    # "overhead comparable to other prominent heavyweight tools": the
    # trms analysis cost sits inside (a generous envelope of) the band
    # spanned by the comparator analyses
    band_low = min(replay_times[name] for name in ("memcheck", "callgrind", "helgrind"))
    band_high = max(replay_times[name] for name in ("memcheck", "callgrind", "helgrind"))
    assert 0.5 * band_low <= replay_times["aprof-trms"] <= 3.0 * band_high, replay_times

    # space — the paper's orderings that are encoding-independent:
    # nulgrind keeps (almost) nothing; memcheck's bit-packed A/V states
    # undercut the profilers' word-sized timestamps (the paper credits
    # memcheck's compression for beating aprof); the trms global write
    # shadow costs over rms; helgrind's per-cell concurrency metadata is
    # the largest of all.
    for name in ("memcheck", "callgrind", "helgrind", "aprof-rms", "aprof-trms"):
        assert space_gms["nulgrind"] < space_gms[name], space_gms
    assert space_gms["memcheck"] < space_gms["aprof-rms"], space_gms
    assert space_gms["aprof-rms"] < space_gms["aprof-trms"], space_gms
    assert space_gms["aprof-trms"] <= space_gms["helgrind"], space_gms
