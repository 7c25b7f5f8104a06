"""Farm orchestration: trace file in, merged profile database out.

``analyze_file`` drives the whole pipeline over a v2 trace:

1. plan at most ``jobs`` shards from the chunk index
   (:mod:`repro.farm.shards`);
2. run :func:`repro.farm.worker.run_shard` for every shard — each in a
   ``fork``-context process of its own when there are several shards,
   inline otherwise;
3. merge the per-shard databases (:mod:`repro.farm.merge`) into one
   profile, bit-identical to the online ``TrmsProfiler``.

Failure policy (the part a benchmark never shows): every shard process
gets one attempt, and all of them share one deadline, ``timeout``
seconds after they start.  A shard whose process crashes, raises,
cannot start, or is still running at the deadline (it is killed) is
rerun inline in the coordinator.  Its threads are whole, so a shard is
exact wherever it runs: the farm *always* returns the exact result,
and parallelism is strictly a performance property.  A malformed trace
is the exception: the worker sends its
:class:`~repro.core.tracefile.TraceFileError` back, and it propagates
at once.  Whether ``analyze_file`` returns or raises, every process it
started has exited.

Observability: every phase (plan, pool, inline, merge) is a telemetry
span.  Workers write nothing but their result; from each
:class:`~repro.farm.worker.WorkerResult` the coordinator emits the
shard's ``worker.decode`` and ``worker.analyze`` spans and one closing
``heartbeat`` record into the session's event log, and the farm's
counters (``farm.trace_events``, ``farm.shard.retries``, …) into the
session telemetry.  The run's own books are :class:`ShardOutcome`:
each shard's failed attempt, timeout and inline fallback are tallied
there once, and ``render_farm_stats`` reads nothing else.  None of
this touches profile state — the differential tests run with
telemetry on and off and demand bit-identical output.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..core.profile_data import ProfileDatabase
from ..core.tracefile import TraceFileError
from .binfmt import read_trace_meta
from .merge import merge_databases
from .shards import plan_shards
from .worker import ShardTask, WorkerResult, run_shard

__all__ = ["ShardOutcome", "FarmStats", "FarmResult", "analyze_file"]


class ShardOutcome(NamedTuple):
    """How one shard fared: where it ran, how fast, what failed."""

    shard_id: int
    threads: Tuple[int, ...]
    events: int          #: events decoded by the worker (shard chunks)
    seconds: float       #: in-worker analysis wall time
    where: str           #: "pool" | "inline"
    retries: int = 0     #: 1 when the shard's process attempt failed
    timeouts: int = 0    #: 1 when that failure was the deadline
    fell_back: bool = False  #: ran inline after its process failed
    decode_seconds: float = 0.0
    analyze_seconds: float = 0.0
    max_rss_kb: int = 0  #: worker peak RSS

    @property
    def events_per_s(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


class FarmStats(NamedTuple):
    """Aggregate run report, rendered by ``reporting.render_farm_stats``."""

    jobs: int
    outcomes: List[ShardOutcome]
    retries: int         #: shards whose one process attempt failed
    fallbacks: int       #: shards rerun inline after that
    wall_seconds: float
    event_count: int     #: events in the trace (not per-shard decode work)


class FarmResult(NamedTuple):
    db: ProfileDatabase
    stats: FarmStats


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _shard_process(task: ShardTask, conn) -> None:
    """Child body: send back the shard's result, or what it raised."""
    try:
        result = run_shard(task)
    except Exception as error:  # the coordinator decides what it means
        conn.send(error)
    else:
        conn.send(result)


def _run_processes(
    tasks: Sequence[ShardTask],
    timeout: Optional[float],
    fail: Callable[[ShardTask, str, bool], None],
) -> Dict[int, WorkerResult]:
    """Run every shard in a process of its own, all against one deadline.

    Returns the results that came back; ``fail(task, why, timed_out)``
    reports each shard that did not, as soon as that is known.  A
    worker's ``TraceFileError`` is raised here.  A process still
    running at the deadline, or when this returns or raises, is killed,
    and every started process is joined.
    """
    from multiprocessing.connection import wait

    context = _pool_context()
    results: Dict[int, WorkerResult] = {}
    started: List[Tuple[Any, Any]] = []  # (reader, process) of every started shard
    running: Dict[Any, Tuple[ShardTask, Any]] = {}  # reader -> (task, process)
    try:
        for task in tasks:
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=_shard_process, args=(task, writer))
            try:
                process.start()
            except OSError as error:  # e.g. fork: no memory or process slots
                reader.close()
                fail(task, f"process could not start ({error})", False)
                continue
            finally:
                writer.close()  # the child's copy alone: its exit is our EOF
            started.append((reader, process))
            running[reader] = (task, process)
        deadline = None if timeout is None else time.monotonic() + timeout
        while running:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            ready = wait(list(running), remaining)
            if not ready:
                break
            for reader in ready:
                task, process = running.pop(reader)
                try:
                    reply = reader.recv()
                except (EOFError, OSError):  # it died before its whole reply
                    process.join()
                    fail(task, f"process exited with code {process.exitcode}", False)
                    continue
                if isinstance(reply, TraceFileError):
                    raise reply
                if isinstance(reply, Exception):
                    fail(task, f"raised {type(reply).__name__}: {reply}", False)
                else:
                    results[task.shard_id] = reply
        for task, _process in running.values():
            fail(task, f"timed out after {timeout:g}s", True)
    finally:
        for _task, process in running.values():
            process.kill()
        for reader, process in started:
            process.join()
            reader.close()
    return results


def _emit_shard_records(tele, task: ShardTask, result: WorkerResult,
                        parent: Optional[int]) -> None:
    """The shard's worker spans and its closing heartbeat, from its result."""
    cpu = result.cpu_seconds
    spans = (
        ("worker.decode", result.decode_seconds, min(result.decode_seconds, cpu),
         {"events": result.events_decoded, "chunks": len(task.chunk_indices)}),
        ("worker.analyze", result.analyze_seconds,
         max(0.0, cpu - result.decode_seconds), {"threads": len(task.threads)}),
    )
    for name, wall, span_cpu, attrs in spans:
        tele.emit({
            "type": "span", "name": name, "shard": task.shard_id,
            "wall": round(wall, 6), "cpu": round(span_cpu, 6), "ok": True,
            "attrs": attrs, "parent": parent,
        })
    tele.emit({
        "type": "heartbeat", "shard": task.shard_id, "phase": "done",
        "events": result.events_decoded, "rss_kb": result.max_rss_kb,
        "pid": result.pid, "wall": round(result.seconds, 6),
    })


def analyze_file(
    path: str,
    jobs: Optional[int] = None,
    context_sensitive: bool = False,
    keep_activations: bool = False,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FarmResult:
    """Analyse a recorded v2 trace with the farm; exact by contract.

    Every shard runs the flat kernel (:mod:`repro.core.flatkernel`);
    ``jobs=1`` is one inline shard.  ``timeout`` is the deadline of the
    shard processes; ``progress`` receives one note per shard whose
    process failed.  A file that is not a sealed v2 trace raises
    :class:`~repro.farm.binfmt.BinaryTraceError`.
    """
    started = time.perf_counter()
    tele = telemetry.current()
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, jobs)

    with tele.span("analyze.plan", jobs=jobs):
        with open(path, "rb") as stream:
            meta = read_trace_meta(stream)
        shards = plan_shards(meta, jobs)
    tele.counter("farm.trace_events").inc(meta.event_count)
    tele.counter("farm.shards").inc(len(shards))
    tele.gauge("farm.jobs").set(jobs)

    tasks = [
        ShardTask(path, shard.shard_id, shard.threads, shard.chunk_indices,
                  context_sensitive=context_sensitive,
                  keep_activations=keep_activations)
        for shard in shards
    ]
    failed: Set[int] = set()
    timed_out: Set[int] = set()

    def fail(task: ShardTask, why: str, late: bool) -> None:
        failed.add(task.shard_id)
        tele.counter("farm.shard.retries", shard=task.shard_id).inc()
        tele.counter("farm.shard.fallbacks", shard=task.shard_id).inc()
        if late:
            timed_out.add(task.shard_id)
            tele.counter("farm.shard.timeouts", shard=task.shard_id).inc()
        if progress:
            progress(f"farm: shard {task.shard_id} {why}; falling back inline\n")

    results: Dict[int, WorkerResult] = {}
    parents: Dict[int, Optional[int]] = {}
    if len(tasks) > 1:
        with tele.span("analyze.pool", jobs=jobs, shards=len(tasks)) as pool_span:
            results = _run_processes(tasks, timeout, fail)
        parents = dict.fromkeys(results, pool_span.span_id or None)
    for task in tasks:
        if task.shard_id not in results:
            with tele.span("analyze.inline", shard=task.shard_id) as inline_span:
                results[task.shard_id] = run_shard(task)
            parents[task.shard_id] = inline_span.span_id or None

    with tele.span("analyze.merge", shards=len(tasks)):
        merged = merge_databases(
            (results[task.shard_id].db for task in tasks),
            keep_activations=keep_activations,
        )

    outcomes: List[ShardOutcome] = []
    for task in tasks:
        result = results[task.shard_id]
        _emit_shard_records(tele, task, result, parents[task.shard_id])
        tele.counter("farm.shard.events", shard=task.shard_id).inc(
            result.events_decoded)
        tele.histogram("farm.shard_ms").observe(result.seconds * 1000)
        outcomes.append(ShardOutcome(
            task.shard_id, task.threads, result.events_decoded, result.seconds,
            "pool" if result.pid != os.getpid() else "inline",
            retries=int(task.shard_id in failed),
            timeouts=int(task.shard_id in timed_out),
            fell_back=task.shard_id in failed,
            decode_seconds=result.decode_seconds,
            analyze_seconds=result.analyze_seconds,
            max_rss_kb=result.max_rss_kb,
        ))

    stats = FarmStats(
        jobs, outcomes, len(failed), len(failed),
        time.perf_counter() - started, meta.event_count,
    )
    return FarmResult(merged, stats)
