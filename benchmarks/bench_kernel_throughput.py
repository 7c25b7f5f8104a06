"""Flat-array kernel throughput: the columnar hot loop, measured.

This bench measures exactly the quantity the flat kernel was built
for — the analysis throughput (events/s) of the one pass
``repro.farm.analyze_file`` runs over a trace file — against a
:class:`~repro.core.naive.NaiveTrms` replay (the paper's Figure 10
reference algorithm) of the same recorded v2 traces:

* exactness first: for every workload both profile dumps must be
  byte-identical (their SHA-256 digests are recorded in the result
  envelope and re-checked by the CI benchmark gate);
* throughput and speedup per workload, best-of-N to shed scheduler
  noise;
* the speedup assertion (flat > 2x naive) is deliberately below the
  ~4-8x this machine measures so CI jitter cannot flake it; the
  *recorded* speedup rides in the envelope's ``gate.ratios`` and is
  what :mod:`tools.bench_gate` holds future commits to (>25% regression
  fails the gate).
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import time

from repro.core import NaiveTrms, replay
from repro.farm import BinaryTraceWriter, analyze_file, iter_binary_trace, save_profile
from repro.farm.binfmt import read_trace_meta
from repro.reporting import table
from repro.workloads import benchmark as get_benchmark

from conftest import bench_scale, run_once, save_result

WORKLOADS = ("376.kdtree", "350.md")
THREADS = 4
KERNELS = ("naive", "flat")
#: a flat run takes ~2 ms on a 2-CPU Xeon container, where best-of-9
#: ratios swung by half from run to run and best-of-25 stays within ~15%
ROUNDS = 25


def record_workload(name: str, path: str, scale: float) -> int:
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=4096)
        get_benchmark(name).run(tools=writer, threads=THREADS, scale=scale)
        writer.close()
    return writer.events_written


def profile_digest(db) -> str:
    stream = io.StringIO()
    save_profile(db, stream)
    return hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()


def replay_naive(path: str):
    """The Figure 10 oracle over the same trace file, decode included."""
    profiler = NaiveTrms()
    with open(path, "rb") as stream:
        replay(iter_binary_trace(stream), profiler)
    return profiler.db


def measure_kernels(path: str):
    """Best-of-N wall time and profile digest: naive replay vs flat pass.

    The rounds are *interleaved* (naive, flat, naive, …) so a frequency
    step or a noisy neighbour hits both alike — the gate compares the
    speedup ratio, which interleaving keeps stable where back-to-back
    blocks would skew it.
    """
    with open(path, "rb") as stream:
        meta = read_trace_meta(stream)
    runs = {"naive": lambda: replay_naive(path),
            "flat": lambda: analyze_file(path).db}
    seconds = {kernel: float("inf") for kernel in KERNELS}
    digests = {}
    for kernel, run in runs.items():  # warm page cache and allocator
        digests[kernel] = profile_digest(run())
    for _ in range(ROUNDS):
        for kernel, run in runs.items():
            start = time.perf_counter()
            run()
            seconds[kernel] = min(seconds[kernel],
                                  time.perf_counter() - start)
    return meta.event_count, seconds, digests


def run_study(scale: float):
    study = {}
    for name in WORKLOADS:
        handle, path = tempfile.mkstemp(suffix=".rpt2")
        os.close(handle)
        try:
            record_workload(name, path, scale)
            events, seconds, digests = measure_kernels(path)
        finally:
            os.unlink(path)
        study[name] = {"events": events, "seconds": seconds, "digests": digests}
    return study


def test_kernel_throughput(benchmark, scale):
    study = run_once(benchmark, lambda: run_study(scale))

    rows = []
    throughput = {}
    ratios = {}
    hashes = {}
    for name, data in study.items():
        naive = data["seconds"]["naive"]
        flat = data["seconds"]["flat"]
        speedup = naive / flat if flat else float("inf")
        for kernel in KERNELS:
            events_per_s = data["events"] / data["seconds"][kernel]
            throughput[f"{kernel}_events_per_s:{name}"] = round(events_per_s)
            rows.append([
                name, kernel, data["events"],
                f"{data['seconds'][kernel] * 1000:.1f}ms",
                f"{events_per_s:,.0f}",
                f"{naive / data['seconds'][kernel]:.2f}x",
            ])
        ratios[f"speedup:{name}"] = round(speedup, 2)
        hashes[name] = data["digests"]["flat"]
    print()
    print(table(
        ["workload", "kernel", "events", "time", "events/s", "speedup"],
        rows,
        title=f"Analysis-kernel throughput — one pass, best of {ROUNDS}",
    ))

    # exactness is unconditional: the dumps must be byte-identical
    for name, data in study.items():
        assert data["digests"]["flat"] == data["digests"]["naive"], \
            f"{name}: flat kernel and naive oracle produced different profiles"

    # the paper-shape assertion: the flat kernel beats the stack-walking
    # oracle with margin (this machine: ~4-8x; threshold sheds CI noise)
    for name, data in study.items():
        assert data["seconds"]["flat"] < data["seconds"]["naive"] / 2, \
            f"{name}: flat kernel not >2x naive: {data['seconds']}"

    save_result("kernel_throughput", {
        "workloads": study,
        "gate": {
            "scale": bench_scale(),
            "ratios": ratios,
            "throughput": throughput,
            "profile_sha256": hashes,
        },
    })
