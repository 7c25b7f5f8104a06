"""``batch``: ``repro record`` then ``repro analyze --dump``, CLI defaults.

Each pass records and analyses every program of a SPEC-like mix at
every scale of a fixed ascending list, through ``repro.cli.main`` with
the CLI defaults (v2 format, 4 guest threads, ``--jobs 1``, ``--metric
both``).  The programs differ in the inputs the analysis depends on:

* ``350.md`` — O(n²) reads of shared writes, so many induced accesses;
* ``351.bwaves`` — a streaming stencil with a large cell working set;
* ``376.kdtree`` — recursion, so deep shadow stacks;
* ``367.imagick`` — device I/O, so kernel reads and writes.

The seed shuffles the order in which the (program, scale) grid is
visited.  Every pass covers the whole grid, so passes of different
seeds do the same work and their timings are comparable.
"""

from __future__ import annotations

import io
import os
import random
import time
from typing import Dict, List, Tuple

from common import (
    HostClock, NullOut, Tally, median, peak_rss_mb, repeated_setup, sha256_bytes,
    sha256_file,
)
from ledger import Ledger

THREADS = 4                       # the CLI default
#: program and the scale that the first entry of SCALES multiplies
PROGRAMS = (("350.md", 1.0), ("351.bwaves", 0.75),
            ("376.kdtree", 4.0), ("367.imagick", 5.0))
#: ascending input scales, in the style of swiftsolve's _INPUT_SCALES
SCALES = (1.0, 2.0, 3.0)
MIN_PASSES = 3

Job = Tuple[str, float]


def plan(seed: int) -> List[Job]:
    jobs = [(name, round(base * factor, 4))
            for name, base in PROGRAMS for factor in SCALES]
    random.Random(seed).shuffle(jobs)
    return jobs


def oracle_digests(jobs: List[Job]) -> Dict[Job, str]:
    """SHA-256 of the online ``TrmsProfiler`` dump of every job."""
    from repro.core import TrmsProfiler
    from repro.farm import save_profile
    from repro.workloads import benchmark

    digests = {}
    for name, scale in sorted(jobs):
        profiler = TrmsProfiler()
        benchmark(name).run(tools=profiler, threads=THREADS, scale=scale)
        text = io.StringIO()
        save_profile(profiler.db, text)
        digests[(name, scale)] = sha256_bytes(text.getvalue().encode("utf-8"))
    return digests


def _install(ledger: Ledger, stats: List) -> None:
    """Patch the layers ``record`` and ``analyze --dump`` pass through."""
    import repro.cli
    import repro.core
    import repro.core.flatkernel
    import repro.farm
    import repro.farm.binfmt
    import repro.farm.engine
    import repro.farm.worker
    import repro.workloads.suites

    ledger.patch(repro.workloads.suites.Benchmark, "run", "record.run")
    ledger.patch(repro.farm.binfmt.BinaryTraceWriter, "close", "binfmt.encode")
    ledger.wrap_result(repro.farm, "analyze_file", "farm",
                       lambda result: stats.append(result.stats))
    ledger.wrap_result(repro.farm.worker, "decode_chunk_columns", "binfmt.decode",
                       lambda columns: ledger.count("decoded_events", columns.events))
    ledger.patch_eager(repro.farm.binfmt, "decode_chunk", "binfmt.decode",
                       "decoded_events")
    ledger.patch(repro.core.flatkernel.FlatAnalyzer, "feed", "flatkernel", "flatkernel")
    ledger.patch(repro.core.flatkernel.FlatAnalyzer, "finish", "flatkernel", "flatkernel")
    ledger.patch(repro.farm.engine, "merge_databases", "farm.merge")
    ledger.patch(repro.core, "replay", "rms")
    ledger.patch(repro.farm, "save_profile", "merge.dump")
    ledger.patch(repro.cli, "render_report", "reporting")


class PassResult:
    def __init__(self) -> None:
        #: raw wall seconds summed over the grid (the ledger's basis)
        self.native = 0.0
        self.record = 0.0
        self.analyze = 0.0
        self.events = 0
        self.trace_bytes = 0
        self.chunks = 0
        self.dump_bytes = 0
        #: per job: (native, record, analyze HostClock seconds, trace events)
        self.jobs: Dict[Job, Tuple[float, float, float, int]] = {}
        self.ledger = None
        self.farm_stats: List = []

    @property
    def wall(self) -> float:
        return self.record + self.analyze


def run_pass(jobs: List[Job], oracle: Dict[Job, str], work: str, tally: Tally,
             traced: bool = False) -> PassResult:
    from repro import cli
    from repro.farm import read_trace_meta
    from repro.workloads import benchmark

    result = PassResult()
    ledger = Ledger() if traced else None
    result.ledger = ledger
    trace = os.path.join(work, "batch.rpt2")
    dump = os.path.join(work, "batch.profile")
    clock = HostClock()
    for name, scale in jobs:
        started = time.perf_counter()
        benchmark(name).run(tools=None, threads=THREADS, scale=scale)
        result.native += time.perf_counter() - started
        native = clock.stop(started)

        out = NullOut()
        record_argv = ["record", name, trace, "--scale", repr(scale)]
        analyze_argv = ["analyze", trace, "--dump", dump]
        if ledger is not None:
            _install(ledger, result.farm_stats)
        try:
            started = time.perf_counter()
            if ledger is None:
                recorded = cli.main(record_argv, out=out)
            else:
                recorded = ledger.call("cli", "cli.main", cli.main, record_argv, out=out)
            result.record += time.perf_counter() - started
            record = clock.stop(started)
            started = time.perf_counter()
            if ledger is None:
                analyzed = cli.main(analyze_argv, out=out)
            else:
                analyzed = ledger.call("cli", "cli.main", cli.main, analyze_argv, out=out)
            result.analyze += time.perf_counter() - started
            analyze = clock.stop(started)
        finally:
            if ledger is not None:
                ledger.restore()

        ok = recorded == 0 and analyzed == 0 and not (out.retries or out.fallbacks)
        correct = analyzed == 0 and sha256_file(dump) == oracle[(name, scale)]
        tally.record(ok, correct)
        with open(trace, "rb") as stream:
            meta = read_trace_meta(stream)
        result.events += meta.event_count
        result.chunks += len(meta.chunks)
        result.jobs[(name, scale)] = (native, record, analyze, meta.event_count)
        result.trace_bytes += os.path.getsize(trace)
        result.dump_bytes += os.path.getsize(dump)
    return result


def setup(seed: int):
    jobs = plan(seed)
    oracles, seconds = repeated_setup(lambda: oracle_digests(jobs))
    return jobs, oracles[0], seconds


def measure(seed: int, seconds: float, work: str) -> Tuple[Dict[str, float], Tally]:
    jobs, oracle, setup_s = setup(seed)
    tally = Tally()
    passes: List[PassResult] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(run_pass(jobs, oracle, work, tally))
    # Each job's median over the passes, summed over the grid: a pass
    # of typical job timings even when a noisy stretch slows one pass.
    native, record, analyze = (
        sum(median([p.jobs[job][column] for p in passes]) for job in jobs)
        for column in range(3))
    events = sum(passes[0].jobs[job][3] for job in jobs)
    metrics = {
        "setup_s": setup_s,
        "time_to_profile_ms": _scaled_wall(passes, jobs) * 1000.0,
        "slowdown": record / native,
        "throughput_per_s": events / analyze,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, tally


def _scaled_wall(passes: List[PassResult], jobs: List[Job]) -> float:
    """Median record + analyze HostClock seconds of the grid."""
    return sum(median([p.jobs[job][1] + p.jobs[job][2] for p in passes]) for job in jobs)


def _pass_layers(result: PassResult) -> Dict[str, float]:
    """Per-layer figures of one traced pass (wall-time basis)."""
    ledger = result.ledger
    wall = result.wall
    selfs = ledger.self_wall
    run_self = selfs.get("record.run", 0.0)
    vm_self = min(result.native, run_self)
    encode_self = run_self - vm_self + selfs.get("binfmt.encode", 0.0)
    layers = {
        "vm": vm_self,
        "binfmt.encode": encode_self,
        "binfmt.decode": selfs.get("binfmt.decode", 0.0),
        "flatkernel": selfs.get("flatkernel", 0.0),
        "farm": selfs.get("farm", 0.0),
        "farm.merge": selfs.get("farm.merge", 0.0),
        "rms": selfs.get("rms", 0.0),
        "merge.dump": selfs.get("merge.dump", 0.0),
        "reporting": selfs.get("reporting", 0.0),
        "cli": selfs.get("cli", 0.0),
    }
    figures = {f"{layer}.share": seconds / wall for layer, seconds in layers.items()}
    figures["other.share"] = max(0.0, 1.0 - sum(figures.values()))
    decode_s = selfs.get("binfmt.decode", 0.0)
    rms_s = selfs.get("rms", 0.0)
    stats = result.farm_stats
    figures.update({
        "vm.native_s": result.native,
        "binfmt.record_overhead_s": result.record - result.native,
        "binfmt.bytes_per_event": result.trace_bytes / result.events,
        "binfmt.chunks": result.chunks,
        "binfmt.decode_s": decode_s,
        "binfmt.decode_events_per_s": ledger.counts["decoded_events"] / decode_s,
        "flatkernel.analyze_s": ledger.inclusive["flatkernel"],
        "farm.analyze_file_s": ledger.inclusive["analyze_file"],
        "farm.merge_s": ledger.inclusive["merge_databases"],
        "farm.retries": sum(s.retries for s in stats),
        "farm.fallbacks": sum(s.fallbacks for s in stats),
        "rms.replay_s": rms_s,
        "rms.replay_events_per_s": result.events / rms_s,
        "merge.dump_s": ledger.inclusive["save_profile"],
        "reporting.render_s": ledger.inclusive["render_report"],
        "dump.bytes": result.dump_bytes,
    })
    return figures


def _pool_speedup(trace: str, jobs: int) -> float:
    """``analyze_file`` wall at jobs=1 over jobs=``jobs`` (medians of 3)."""
    from repro.farm import analyze_file

    single: List[float] = []
    pooled: List[float] = []
    for _ in range(3):
        for count, into in ((1, single), (jobs, pooled)):
            started = time.perf_counter()
            analyze_file(trace, jobs=count)
            into.append(time.perf_counter() - started)
    return median(single) / median(pooled)


def measure_traced(seed: int, seconds: float, work: str) -> Tuple[Dict[str, float], Tally]:
    from repro import cli

    jobs, oracle, _setup_s = setup(seed)
    tally = Tally()
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        plain.append(run_pass(jobs, oracle, work, tally))
        traced.append(run_pass(jobs, oracle, work, tally, traced=True))

    per_pass = [_pass_layers(result) for result in traced]
    metrics = {name: sum(p[name] for p in per_pass) / len(per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_share"] = (
        _scaled_wall(traced, jobs) / _scaled_wall(plain, jobs) - 1.0)

    # Farm crossover evidence for ``--jobs auto``: the pool against one
    # inline shard on the smallest and the largest trace of the grid.
    sizes = {job: figures[3] for job, figures in traced[0].jobs.items()}
    smallest = min(sizes, key=sizes.get)
    largest = max(sizes, key=sizes.get)
    nproc = os.cpu_count() or 1
    for label, (name, scale) in (("small", smallest), ("large", largest)):
        trace = os.path.join(work, f"pool-{label}.rpt2")
        if cli.main(["record", name, trace, "--scale", repr(scale)], out=NullOut()):
            raise RuntimeError(f"cannot record {name} at scale {scale}")
        metrics[f"farm.pool_speedup.{label}"] = _pool_speedup(trace, nproc)
    metrics["failed_ops_share"] = tally.failed_share
    return metrics, tally
