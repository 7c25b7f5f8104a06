"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the registered benchmarks (suite, name, description);
* ``profile <benchmark>`` — run a benchmark under the profilers and
  print the aprof-style report, optionally with the bottleneck ranking,
  a per-routine cost plot, and a ``repro-profile 1`` dump;
* ``fit <dump> <routine>`` — re-load a ``repro-profile 1`` dump
  (written by ``profile``, ``analyze`` or ``merge``) and name the
  routine's growth class;
* ``record <benchmark> <file>`` — record one execution's event trace
  in the chunked binary v2 format;
* ``analyze <trace>`` — run the profilers over a recorded trace; the
  TRMS side is one pass of the flat kernel (exact: identical to the
  online profiler, see ``docs/KERNEL.md``), ``--dump`` writes a
  mergeable profile dump;
* ``merge -o out.profile a.profile b.profile …`` — associatively merge
  profile dumps of several independent runs into one richer profile;
* ``overhead <benchmark>`` — measure the profilers' own slowdown and
  space against a native run (the paper's Table 1 discipline) and
  report from telemetry data alone;
* ``stats <run>`` — render the dashboard of a recorded telemetry run
  (span tree, metrics, overhead table), optionally as a self-contained
  HTML file;
* ``diff <old> <new>`` — classify per-routine asymptotic regressions
  between two profile dumps (``regressed``/``slower``/… — the cost-
  function diff of ``reporting.diffing``);
* ``observe {ingest,report,alerts,gc}`` — the profile observatory: a
  persistent history store over many runs, growth-rate drift alerts
  and fleet dashboards (``ingest -`` reads one artefact from stdin;
  see ``docs/OBSERVATORY.md``);
* ``serve`` — the long-lived ingestion server: accepts profile dumps,
  v2 traces, telemetry logs and bench envelopes over the
  ``repro-wire/1`` protocol into per-tenant observatory stores,
  analysing asynchronously on a bounded job queue (``docs/SERVICE.md``);
* ``slap`` — the minislap load generator: a swarm of concurrent
  clients hammering a running server, reported as p50/p99 upload
  latency, duplicate/rejected tallies and the server's SLO burn
  (optionally as a ``repro-bench/1`` envelope for the bench gate);
* ``trace`` — join client and server telemetry logs by trace id and
  render cross-process request waterfalls (``--slowest N`` picks the
  worst uploads; ``--html`` writes SVG timelines).

Every pipeline command accepts ``--telemetry DIR``: spans and metrics
of that invocation land in ``DIR/telemetry.jsonl`` for ``repro stats``
(see ``docs/TELEMETRY.md``).  Telemetry never changes profile output —
only observes it.

An output file that cannot be opened (``--dump``, ``--html``,
``merge -o``, ``slap --json``) ends the command with one ``error:``
line and exit status 2.

The CLI works on the VM benchmark registry; profiling arbitrary Python
programs goes through the library API (see ``examples/quickstart.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from typing import Iterator, List, Optional, TextIO

from . import telemetry
from .core import EventBus, RmsProfiler, TrmsProfiler
from .curvefit import select_model
from .reporting import render_bottlenecks, render_report, scatter
from .workloads import all_benchmarks, benchmark

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a duration that must be above 0 and finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (0 < value < float("inf")):
        raise argparse.ArgumentTypeError(f"must be a positive, finite number, got {text}")
    return value


def _finite_float(text: str) -> float:
    """argparse type of a number the observatory store can keep."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of a same-class cost ratio: at least 1.0 (below it,
    equal costs would count as slower)."""
    value = _positive_float(text)
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"must be at least 1.0, got {text}")
    return value


class _UnusableOutput(Exception):
    """An output file of the command could not be opened (exit 2)."""


@contextlib.contextmanager
def _output_file(path: str) -> Iterator[TextIO]:
    """Open one output file of a command for writing.

    Failing to open it raises :class:`_UnusableOutput`, which
    :func:`_dispatch` turns into one ``error:`` line and exit status 2.
    """
    try:
        stream = open(path, "w", encoding="utf-8")
    except OSError as error:
        raise _UnusableOutput(error) from None
    with stream:
        yield stream


def _add_telemetry_option(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--telemetry", metavar="DIR",
        help="record spans/metrics to DIR/telemetry.jsonl "
             "(render with `repro stats DIR`)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Input-sensitive profiling (aprof reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered benchmarks")

    profile = commands.add_parser("profile", help="profile one benchmark")
    profile.add_argument("benchmark", help="benchmark name (see `repro list`)")
    profile.add_argument("--threads", type=_positive_int, default=4)
    profile.add_argument("--scale", type=float, default=1.0)
    profile.add_argument("--metric", choices=["rms", "trms", "both"], default="both")
    profile.add_argument("--context", action="store_true",
                         help="calling-context-sensitive profiles")
    profile.add_argument("--bottlenecks", action="store_true",
                         help="append the asymptotic bottleneck ranking")
    profile.add_argument("--plot", metavar="ROUTINE",
                         help="render the worst-case cost plot of a routine")
    profile.add_argument("--dump", metavar="FILE",
                         help="write a repro-profile 1 dump (of the trms "
                              "profile when there is one)")
    profile.add_argument("--sample", type=_positive_int, default=1, metavar="K",
                         help="burst-sample 1 of every K memory reads "
                              "(sizes become lower bounds)")
    profile.add_argument("--html", metavar="FILE",
                         help="write a self-contained HTML report")
    _add_telemetry_option(profile)

    fit = commands.add_parser("fit", help="fit a dumped cost plot")
    fit.add_argument("dump", help="profile dump written by `profile --dump`, "
                                  "`analyze --dump` or `merge`")
    fit.add_argument("routine", help="routine to fit")
    _add_telemetry_option(fit)

    record = commands.add_parser(
        "record", help="record a benchmark's event trace to a file"
    )
    record.add_argument("benchmark")
    record.add_argument("output", help="trace file to write")
    record.add_argument("--threads", type=_positive_int, default=4)
    record.add_argument("--scale", type=float, default=1.0)
    record.add_argument("--chunk-events", type=_positive_int, default=4096, metavar="N",
                        help="events per v2 chunk (the decode and streaming unit)")
    record.add_argument("--live", metavar="DIR",
                        help="stream the trace while recording: "
                             "flush every sealed chunk + names sidecar and "
                             "tail it into profile checkpoints under DIR "
                             "(watch them with `repro watch DIR`)")
    record.add_argument("--durable", action="store_true",
                        help="fsync every sealed chunk (power-loss durable "
                             "streaming at a throughput cost)")
    record.add_argument("--checkpoint-events", type=_positive_int, default=65536,
                        metavar="N", help="events between --live checkpoints")
    _add_telemetry_option(record)

    watch = commands.add_parser(
        "watch", help="live ASCII dashboard over streaming profile checkpoints"
    )
    watch.add_argument("target",
                       help="checkpoint directory (containing CURRENT.json), "
                            "or a growing v2 trace when --checkpoints is given")
    watch.add_argument("--checkpoints", metavar="DIR",
                       help="tail TARGET (a v2 trace) and emit checkpoints "
                            "into DIR while watching")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    watch.add_argument("--interval", type=_positive_float, default=1.0, metavar="SECONDS",
                       help="refresh period (default 1s)")
    watch.add_argument("--top", type=_positive_int, default=10, metavar="N",
                       help="routines shown (ranked by growth class, then cost)")
    watch.add_argument("--checkpoint-events", type=_positive_int, default=65536,
                       metavar="N",
                       help="events between checkpoints in --checkpoints mode")
    watch.add_argument("--timeout", type=_positive_float, default=None, metavar="SECONDS",
                       help="give up waiting for new data after this long")
    _add_telemetry_option(watch)

    analyze = commands.add_parser(
        "analyze", help="run the profilers over a recorded trace"
    )
    analyze.add_argument("trace", help="v2 trace written by `record`")
    analyze.add_argument("--metric", choices=["rms", "trms", "both"], default="both")
    analyze.add_argument("--context", action="store_true")
    analyze.add_argument("--dump", metavar="FILE",
                         help="write a mergeable profile dump (see `merge`)")
    analyze.add_argument("--stats", action="store_true",
                         help="print the analysis pass report (events, time "
                              "split into decode / trms / rms, rss)")
    _add_telemetry_option(analyze)

    merge = commands.add_parser(
        "merge", help="merge profile dumps of several runs"
    )
    merge.add_argument("inputs", nargs="+",
                       help="profile dumps produced by `analyze --dump`")
    merge.add_argument("-o", "--output", required=True,
                       help="merged profile dump to write")
    _add_telemetry_option(merge)

    overhead = commands.add_parser(
        "overhead",
        help="measure the profilers' own slowdown/space (Table 1 style)",
    )
    overhead.add_argument("benchmark", help="benchmark name (see `repro list`)")
    overhead.add_argument("--threads", type=_positive_int, default=4)
    overhead.add_argument("--scale", type=float, default=1.0)
    overhead.add_argument("--repeats", type=_positive_int, default=3, metavar="N",
                          help="runs per configuration (best-of-N wall time)")
    overhead.add_argument("--tools", default=None, metavar="A,B,…",
                          help="comma-separated tool list, or 'all' "
                               "(default: nulgrind,aprof-rms,aprof-trms)")
    _add_telemetry_option(overhead)

    stats = commands.add_parser(
        "stats", help="render the dashboard of a telemetry run"
    )
    stats.add_argument("run", help="run directory or telemetry.jsonl file")
    stats.add_argument("--html", metavar="FILE",
                       help="also write the dashboard as one HTML file")

    diff = commands.add_parser(
        "diff", help="asymptotic regressions between two profile dumps"
    )
    diff.add_argument("old", help="baseline profile dump")
    diff.add_argument("new", help="candidate profile dump")
    diff.add_argument("--min-points", type=int, default=4, metavar="N",
                      help="distinct plot points a growth fit needs (default 4)")
    diff.add_argument("--tolerance", type=_tolerance, default=1.30, metavar="T",
                      help="same-class cost ratio counted as slower/faster "
                           "(default 1.30)")
    diff.add_argument("--fail-on", metavar="V[,V…]", default=None,
                      help="exit 1 when any listed verdict appears "
                           "(e.g. regressed,slower)")

    observe = commands.add_parser(
        "observe",
        help="profile observatory: run history, drift alerts, dashboards",
    )
    observed = observe.add_subparsers(dest="observe_command", required=True)

    ingest = observed.add_parser(
        "ingest", help="ingest profile dumps / telemetry runs / bench envelopes"
    )
    ingest.add_argument("inputs", nargs="+",
                        help="profile dumps, v2 traces, checkpoint dirs, "
                             "telemetry.jsonl runs or repro-bench/1 "
                             "envelopes; '-' reads one artefact from stdin")
    ingest.add_argument("--store", required=True, metavar="DIR",
                        help="observatory store directory")
    ingest.add_argument("--run-id", default=None,
                        help="run id override (single input only; default: "
                             "content digest / envelope run_id)")
    ingest.add_argument("--git-sha", default="", help="commit the run profiles")
    ingest.add_argument("--scale", type=_finite_float, default=0.0,
                        help="workload scale the run was taken at")

    report = observed.add_parser(
        "report", help="render the fleet dashboard of a store"
    )
    report.add_argument("--store", required=True, metavar="DIR")
    report.add_argument("--tolerance", type=_tolerance, default=1.30, metavar="T")
    report.add_argument("--limit", type=_positive_int, default=20, metavar="N",
                        help="trajectory rows in the ASCII dashboard")
    report.add_argument("--html", metavar="FILE",
                        help="also write the dashboard as one HTML file")

    alerts = observed.add_parser(
        "alerts", help="print the severity-ranked drift alert feed"
    )
    alerts.add_argument("--store", required=True, metavar="DIR")
    alerts.add_argument("--tolerance", type=_tolerance, default=1.30, metavar="T")
    alerts.add_argument("--fail-on", metavar="V[,V…]", default=None,
                        help="exit 1 when any listed verdict appears "
                             "(e.g. regressed or regressed,slower)")

    gc = observed.add_parser(
        "gc", help="compact the store, keeping only the newest runs"
    )
    gc.add_argument("--store", required=True, metavar="DIR")
    gc.add_argument("--keep", type=int, required=True, metavar="N",
                    help="number of newest runs to keep")

    serve = commands.add_parser(
        "serve",
        help="run the profiling service: multi-tenant ingestion over TCP",
    )
    serve.add_argument("--root", required=True, metavar="DIR",
                       help="tenant root (one observatory store per tenant)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral, printed on start)")
    serve.add_argument("--workers", type=_positive_int, default=2, metavar="N",
                       help="ingestion worker threads (default 2)")
    serve.add_argument("--capacity", type=_positive_int, default=64, metavar="N",
                       help="bounded job-queue capacity (default 64)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long shutdown waits for in-flight jobs "
                            "(default 30)")
    serve.add_argument("--slo-window", type=_positive_float, default=300.0,
                       metavar="SECONDS",
                       help="rolling SLO window per tenant (default 300)")
    serve.add_argument("--slo-p99-ms", type=float, default=500.0,
                       metavar="MS",
                       help="ingest latency p99 target (default 500)")
    serve.add_argument("--slo-error-budget", type=float, default=0.01,
                       metavar="R",
                       help="tolerated ingest error rate (default 0.01)")
    serve.add_argument("--slo-shed-budget", type=float, default=0.05,
                       metavar="R",
                       help="tolerated queue-shed rate (default 0.05)")
    _add_telemetry_option(serve)

    slap = commands.add_parser(
        "slap",
        help="minislap: hammer a running service with concurrent uploads",
    )
    slap.add_argument("--host", default="127.0.0.1")
    slap.add_argument("--port", type=int, required=True)
    slap.add_argument("--tenant", default="slap")
    slap.add_argument("--clients", type=int, default=8, metavar="N",
                      help="concurrent client threads (default 8)")
    slap.add_argument("--uploads", type=int, default=16, metavar="N",
                      help="uploads per client (default 16)")
    slap.add_argument("--duplicate-ratio", type=float, default=0.1,
                      metavar="R",
                      help="fraction of uploads that re-send an earlier "
                           "artefact (default 0.1)")
    slap.add_argument("--seed", type=int, default=101)
    slap.add_argument("--wait", action="store_true",
                      help="wait for each upload's ingest job to finish "
                           "(measures end-to-end instead of ack latency)")
    slap.add_argument("--json", metavar="FILE", default=None,
                      help="also write the repro-bench/1 envelope "
                           "(gate.latency_ms / gate.slo for "
                           "tools/bench_gate.py)")
    _add_telemetry_option(slap)

    trace = commands.add_parser(
        "trace",
        help="join telemetry logs by trace id into request waterfalls",
    )
    trace.add_argument("logs", nargs="+",
                       help="telemetry run directories or .jsonl files "
                            "(client-side and server-side)")
    trace.add_argument("--trace-id", default=None, metavar="ID",
                       help="render only this trace")
    trace.add_argument("--slowest", type=int, default=None, metavar="N",
                       help="render only the N longest traces")
    trace.add_argument("--html", metavar="FILE",
                       help="also write the traces as one HTML timeline page")
    trace.add_argument("--assert-linked", type=int, default=None, metavar="N",
                       help="exit 1 unless some trace is a single "
                            "cross-process tree of at least N spans")

    return parser


def _cmd_list(out) -> int:
    for bench in all_benchmarks():
        out.write(f"{bench.suite:14s} {bench.name:16s} {bench.description}\n")
    return 0


def _cmd_profile(args, out) -> int:
    try:
        bench = benchmark(args.benchmark)
    except KeyError as error:
        out.write(f"error: {error.args[0]}\n")
        return 2
    profilers = {}
    if args.metric in ("rms", "both"):
        profilers["rms"] = RmsProfiler(context_sensitive=args.context)
    if args.metric in ("trms", "both"):
        profilers["trms"] = TrmsProfiler(context_sensitive=args.context)
    consumers = list(profilers.values())
    tools = EventBus(consumers)
    if args.sample > 1:
        from .tools import SamplingShim

        tools = SamplingShim(tools, period=args.sample)
    with telemetry.span("profile", benchmark=bench.name, metric=args.metric,
                        threads=args.threads):
        machine = bench.run(tools=tools, threads=args.threads, scale=args.scale)
    if args.sample > 1:
        for profiler in profilers.values():
            profiler.db.sizes_lower_bound = True
        out.write(f"note: read sampling 1/{args.sample} — input sizes are "
                  f"lower bounds\n")
    out.write(
        f"{bench.name}: {machine.stats.total_blocks} basic blocks, "
        f"{machine.stats.threads_spawned} threads\n\n"
    )
    for metric, profiler in profilers.items():
        out.write(render_report(profiler.db, title=f"{metric} profile of {bench.name}"))
        out.write("\n")
    reference = profilers.get("trms") or profilers["rms"]
    if args.bottlenecks:
        out.write(render_bottlenecks(reference.db))
        out.write("\n")
    if args.plot:
        profile = reference.db.merged().get(args.plot)
        if profile is None:
            out.write(f"error: no routine {args.plot!r} in the profile\n")
            return 2
        out.write(scatter(profile.worst_case_points(),
                          title=f"{args.plot} — worst-case cost plot"))
    if args.dump:
        from .farm import save_profile

        with _output_file(args.dump) as stream:
            count = save_profile(reference.db, stream)
        out.write(f"wrote {count} profile points to {args.dump}\n")
    if args.html:
        from .reporting import render_html_report

        metric = "trms" if "trms" in profilers else "rms"
        with _output_file(args.html) as stream:
            stream.write(render_html_report(
                reference.db, title=f"{bench.name} — input-sensitive profile",
                metric=metric,
            ))
        out.write(f"wrote HTML report to {args.html}\n")
    return 0


def _cmd_record(args, out) -> int:
    import os

    from .farm import BinaryTraceWriter, live_names_path

    try:
        bench = benchmark(args.benchmark)
    except KeyError as error:
        out.write(f"error: {error.args[0]}\n")
        return 2
    live_dir = getattr(args, "live", None)
    live_errors: List[Exception] = []
    with telemetry.span("record", benchmark=bench.name) as record_span:
        with contextlib.ExitStack() as stack:
            names_stream = None
            session = None
            watcher = None
            try:
                if live_dir:
                    import threading

                    from .streaming import LiveProfileSession

                    # before the trace: a DIR that cannot be made leaves no files
                    session = LiveProfileSession(
                        args.output, live_dir,
                        checkpoint_events=args.checkpoint_events,
                        checkpoint_seconds=0.5)

                    def follow() -> None:
                        try:
                            session.run()
                        except Exception as error:  # noqa: BLE001 - reported below
                            live_errors.append(error)
                            session.tailer.close()

                    watcher = threading.Thread(
                        target=follow, name="repro-live", daemon=True)
                else:   # an old recording's sidecar would name this trace's routines
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(live_names_path(args.output))
                stream = stack.enter_context(open(args.output, "wb"))
                if live_dir:
                    names_stream = stack.enter_context(
                        open(live_names_path(args.output), "w"))
            except OSError as error:
                out.write(f"error: {error}\n")
                return 2
            writer = BinaryTraceWriter(
                stream, chunk_events=args.chunk_events,
                durable=getattr(args, "durable", False),
                names_stream=names_stream)
            if watcher is not None:
                watcher.start()
            machine = bench.run(tools=writer, threads=args.threads,
                                scale=args.scale)
            writer.close()
            if watcher is not None:
                watcher.join(timeout=60.0)
        chunks = f", {len(writer.chunks)} chunks"
        if session is not None:
            if live_errors or not session.finalized:
                reason = (f"{type(live_errors[0]).__name__}: {live_errors[0]}"
                          if live_errors else "no closed checkpoint within 60 s")
                out.write(f"error: live session in {live_dir} failed ({reason}); "
                          f"the trace {args.output} is complete\n")
                return 2
            chunks += (f"; {len(session.checkpoints)} live checkpoint(s) "
                       f"in {live_dir}")
        record_span.set(events=writer.events_written)
    telemetry.counter("record.events").inc(writer.events_written)
    out.write(f"recorded {writer.events_written} events "
              f"({machine.stats.total_blocks} basic blocks{chunks}) to {args.output}\n")
    return 0


def _cmd_watch(args, out) -> int:
    import time as _time

    from .core.tracefile import TraceFileError
    from .streaming import (
        MANIFEST_NAME,
        LiveProfileSession,
        load_checkpoint,
        render_watch,
    )

    session = None
    if args.checkpoints:
        try:
            session = LiveProfileSession(
                args.target, args.checkpoints,
                checkpoint_events=args.checkpoint_events,
                checkpoint_seconds=max(args.interval, 0.1))
        except OSError as error:  # DIR cannot be created
            out.write(f"error: {error}\n")
            return 2
        directory = args.checkpoints
    else:
        directory = args.target

    def frame() -> Optional[str]:
        """The newest checkpoint's dashboard; None while there is none."""
        try:
            manifest, db = load_checkpoint(directory)
        except FileNotFoundError:
            return None
        return render_watch(manifest, db, top=args.top)

    deadline = (None if args.timeout is None
                else _time.monotonic() + args.timeout)

    try:
        if args.once:
            if session is not None:
                # Drain whatever is on disk right now, then cut one
                # checkpoint of it — mid-flight or final alike.
                while session.step():
                    pass
                if session.drained:
                    session.finalize()
                else:
                    session.checkpoint()
            try:
                text = frame()
            except (ValueError, OSError) as error:  # malformed checkpoint directory
                out.write(f"error: {error}\n")
                return 2
            if text is None:
                out.write(f"error: no {MANIFEST_NAME} under {directory}\n")
                return 1
            out.write(text)
            return 0

        last = ""
        while True:
            if session is not None:
                consumed = session.step()
                if session.drained:
                    session.finalize()
            else:
                consumed = 0
            try:
                text = frame()
            except (ValueError, OSError) as error:  # malformed checkpoint directory
                out.write(f"error: {error}\n")
                return 2
            if text is not None and text != last:
                out.write(text)
                last = text
            done = (session.finalized if session is not None
                    else bool(text) and "· closed" in text.splitlines()[0])
            if done:
                return 0
            if deadline is not None and _time.monotonic() > deadline:
                if text is None:
                    out.write(f"error: no {MANIFEST_NAME} under {directory} "
                              f"after {args.timeout:.1f}s\n")
                    return 1
                return 0
            if not consumed:
                _time.sleep(args.interval if session is None else 0.05)
    except TraceFileError as error:  # e.g. a chunk naming a routine past the names
        out.write(f"error: {error}\n")
        return 2


def _cmd_analyze(args, out) -> int:
    from .core.tracefile import TraceFileError
    from .farm import analyze_file, save_profile

    try:
        result = analyze_file(args.trace, metric=args.metric, context_sensitive=args.context)
    except (TraceFileError, OSError) as error:
        out.write(f"error: {error}\n")
        return 2
    if args.stats:
        from .reporting import render_farm_stats

        out.write(render_farm_stats(result.stats))
        out.write("\n")
    databases = {"rms": result.rms_db, "trms": result.db}
    for metric, db in databases.items():
        if db is not None:
            out.write(render_report(db, title=f"{metric} profile of {args.trace}"))
            out.write("\n")
    if args.dump:
        reference = databases["rms" if args.metric == "rms" else "trms"]
        with _output_file(args.dump) as stream:
            count = save_profile(reference, stream)
        out.write(f"wrote {count} profile points to {args.dump}\n")
    return 0


def _cmd_merge(args, out) -> int:
    from .farm import ProfileDumpError, merge_databases, save_profile

    try:
        databases = [_load_profile_database(path) for path in args.inputs]
    except (ProfileDumpError, OSError) as error:
        out.write(f"error: {error}\n")
        return 2
    with telemetry.span("merge", inputs=len(databases)):
        merged = merge_databases(databases)
    with _output_file(args.output) as stream:
        count = save_profile(merged, stream)
    out.write(render_report(
        merged, title=f"merged profile of {len(databases)} run(s)"))
    if merged.sizes_lower_bound:
        out.write("note: a merged run used read sampling — input sizes are "
                  "lower bounds\n")
    out.write(f"wrote {count} profile points to {args.output}\n")
    return 0


def _cmd_fit(args, out) -> int:
    from .farm import ProfileDumpError

    try:
        db = _load_profile_database(args.dump)
    except (ProfileDumpError, OSError) as error:
        out.write(f"error: {error}\n")
        return 2
    profile = db.merged().get(args.routine)
    if profile is None:
        known = ", ".join(sorted(db.merged())[:8])
        out.write(f"error: no routine {args.routine!r} in {args.dump} (have: {known})\n")
        return 2
    points = profile.worst_case_points()
    if len(points) < 2:
        out.write(f"{args.routine}: only {len(points)} point(s); cannot fit\n")
        return 1
    with telemetry.span("fit.select", routine=args.routine,
                        points=len(points)):
        selection = select_model(points)
    out.write(scatter(points, title=f"{args.routine} — worst-case cost plot"))
    out.write(f"{args.routine}: {selection.name} "
              f"(R^2 = {selection.best.r2:.3f}, {len(points)} points)\n")
    return 0


def _cmd_overhead(args, out) -> int:
    from .telemetry.overhead import (
        DEFAULT_TOOLS, measure_overhead, render_overhead_report,
    )

    if args.tools is None:
        tools = DEFAULT_TOOLS
    elif args.tools == "all":
        from .tools import TOOL_NAMES

        tools = tuple(TOOL_NAMES)
    else:
        tools = tuple(name for name in args.tools.split(",") if name)
    try:
        tele = measure_overhead(
            args.benchmark, threads=args.threads, scale=args.scale,
            tools=tools, repeats=args.repeats,
        )
    except KeyError as error:
        out.write(f"error: {error.args[0]}\n")
        return 2
    out.write(render_overhead_report(
        tele.registry.snapshot(),
        title=f"self-overhead on {args.benchmark} "
              f"(best of {max(1, args.repeats)})"))
    return 0


def _load_profile_database(path: str):
    """A ProfileDatabase from a ``repro-profile 1`` dump.

    Raises :class:`~repro.farm.merge.ProfileDumpError` on anything else,
    undecodable bytes included, and ``OSError`` on an unreadable path.
    """
    from .farm import ProfileDumpError, load_profile

    try:
        with open(path) as stream:
            return load_profile(stream)
    except UnicodeDecodeError as error:
        raise ProfileDumpError(f"{path}: not a profile dump ({error})") from None


def _parse_fail_on(spec: Optional[str], out) -> Optional[set]:
    if spec is None:
        return set()
    from .reporting.diffing import SEVERITY

    verdicts = {verdict.strip() for verdict in spec.split(",") if verdict.strip()}
    unknown = verdicts - set(SEVERITY)
    if unknown:
        out.write(f"error: unknown verdict(s) {', '.join(sorted(unknown))} "
                  f"(have: {', '.join(SEVERITY)})\n")
        return None
    return verdicts


def _cmd_diff(args, out) -> int:
    from .farm import ProfileDumpError
    from .reporting import diff_databases, render_diff

    fail_on = _parse_fail_on(args.fail_on, out)
    if fail_on is None:
        return 2
    try:
        old_db = _load_profile_database(args.old)
        new_db = _load_profile_database(args.new)
    except (ProfileDumpError, OSError) as error:
        out.write(f"error: {error}\n")
        return 2
    with telemetry.span("diff", old=args.old, new=args.new):
        diffs = diff_databases(old_db, new_db, min_points=args.min_points,
                               tolerance=args.tolerance)
        out.write(render_diff(old_db, new_db, min_points=args.min_points,
                              tolerance=args.tolerance))
    tripped = sorted({diff.verdict for diff in diffs} & fail_on)
    if tripped:
        out.write(f"diff: failing on verdict(s): {', '.join(tripped)}\n")
        return 1
    return 0


def _cmd_observe(args, out) -> int:
    from .observatory import (
        ObservatoryStore,
        detect_drift,
        ingest_record,
        record_from_bytes,
        record_from_path,
        render_alert_feed,
        render_observatory_html,
        render_observatory_report,
        store_exists,
    )

    if args.observe_command == "ingest":
        if args.run_id and len(args.inputs) > 1:
            out.write("error: --run-id needs exactly one input\n")
            return 2
        if args.inputs.count("-") > 1:
            out.write("error: stdin ('-') can appear at most once\n")
            return 2
        # a new store is created by the first input that parses, so a
        # run whose every input fails leaves no store behind
        store = ObservatoryStore(args.store) if store_exists(args.store) else None
        failures = 0
        with telemetry.span("observe.ingest", inputs=len(args.inputs)):
            for path in args.inputs:
                try:
                    if path == "-":
                        # pipe mode: clients stream an artefact without a
                        # temp file (the service's inline-ingest sibling)
                        record = record_from_bytes(
                            sys.stdin.buffer.read(), run_id=args.run_id,
                            git_sha=args.git_sha, scale=args.scale,
                        )
                    else:
                        record = record_from_path(
                            path, run_id=args.run_id,
                            git_sha=args.git_sha, scale=args.scale,
                        )
                    if store is None:
                        store = ObservatoryStore(args.store)
                    result = ingest_record(store, record)
                except (ValueError, OSError) as error:
                    out.write(f"error: {error}\n")
                    failures += 1
                    continue
                state = "ingested" if result.ingested else "already known (skipped)"
                out.write(f"{path}: {state} as {result.run_id} "
                          f"[{result.source}] — {result.detail}\n")
        if store is None:
            out.write(f"store {args.store}: not created (no input ingested)\n")
        else:
            out.write(f"store {args.store}: {len(store)} run(s)\n")
        return 1 if failures else 0

    # the other subcommands read a store: opening one would create it
    if not store_exists(args.store):
        out.write(f"error: no observatory store at {args.store}\n")
        return 2
    store = ObservatoryStore(args.store)
    if args.observe_command == "report":
        with telemetry.span("observe.report", runs=len(store)):
            out.write(render_observatory_report(
                store, tolerance=args.tolerance, limit=args.limit))
        if args.html:
            with _output_file(args.html) as stream:
                stream.write(render_observatory_html(
                    store, tolerance=args.tolerance,
                    title=f"profile observatory: {args.store}"))
            out.write(f"wrote HTML dashboard to {args.html}\n")
        return 0
    if args.observe_command == "alerts":
        fail_on = _parse_fail_on(args.fail_on, out)
        if fail_on is None:
            return 2
        with telemetry.span("observe.alerts", runs=len(store)):
            alerts = detect_drift(store, tolerance=args.tolerance)
        out.write(render_alert_feed(alerts))
        tripped = sorted({alert.verdict for alert in alerts} & fail_on)
        if tripped:
            out.write(f"alerts: failing on verdict(s): {', '.join(tripped)}\n")
            return 1
        return 0
    if args.observe_command == "gc":
        if args.keep < 0:
            out.write("error: --keep must be >= 0\n")
            return 2
        dropped = store.gc(keep=args.keep)
        out.write(f"store {args.store}: dropped {dropped} run(s), "
                  f"{len(store)} left\n")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_serve(args, out) -> int:
    from .service import ProfileServer, SloTargets

    server = ProfileServer(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        capacity=args.capacity,
        drain_timeout=args.drain_timeout,
        slo_window=args.slo_window,
        slo_targets=SloTargets(
            p99_ms=args.slo_p99_ms,
            error_budget=args.slo_error_budget,
            shed_budget=args.slo_shed_budget,
        ),
    )
    host, port = server.start()
    try:
        server.install_signal_handlers()
    except ValueError:
        pass        # not the main thread (tests drive shutdown directly)
    out.write(f"serving on {host}:{port} (root {args.root}, "
              f"{args.workers} worker(s), queue capacity {args.capacity})\n")
    out.write("stop with SIGTERM/SIGINT for a graceful drain\n")
    if hasattr(out, "flush"):
        out.flush()     # line-oriented consumers (CI smoke) parse the port
    with telemetry.span("serve", root=args.root):
        drained = server.serve_forever()
    out.write(f"shutdown: {'drained' if drained else 'drain timed out'} "
              f"({server.queue.abandoned} job(s) abandoned)\n")
    return 0 if drained else 1


def _cmd_slap(args, out) -> int:
    from .service import build_envelope, slap

    if args.clients < 1 or args.uploads < 1:
        out.write("error: --clients and --uploads must be >= 1\n")
        return 2
    with telemetry.span("slap", clients=args.clients, uploads=args.uploads):
        try:
            report = slap(
                args.host, args.port, tenant=args.tenant,
                clients=args.clients, uploads_per_client=args.uploads,
                duplicate_ratio=args.duplicate_ratio, seed=args.seed,
                wait=args.wait,
            )
        except OSError as error:
            out.write(f"error: cannot reach {args.host}:{args.port} "
                      f"({error})\n")
            return 2
    out.write(report.render())
    if args.json:
        import json as json_module

        with _output_file(args.json) as stream:
            json_module.dump(build_envelope(report), stream, indent=2,
                             sort_keys=True)
            stream.write("\n")
        out.write(f"wrote repro-bench/1 envelope to {args.json}\n")
    # a swarm that lost every upload is a failed run, not a report
    return 0 if report.latencies_ms else 1


def _cmd_trace(args, out) -> int:
    from .reporting.tracing import (
        assemble_traces,
        load_trace_spans,
        render_trace_waterfall,
        render_traces_html,
        slowest,
    )

    try:
        spans = load_trace_spans(args.logs)
    except OSError as error:
        out.write(f"error: {error}\n")
        return 2
    traces = assemble_traces(spans)
    if not traces:
        out.write("no traced spans found (run client and server with "
                  "--telemetry to record trace ids)\n")
        return 1 if args.assert_linked else 0
    if args.trace_id is not None:
        chosen = [traces[args.trace_id]] if args.trace_id in traces else []
        if not chosen:
            out.write(f"error: no trace {args.trace_id!r} in "
                      f"{len(traces)} trace(s)\n")
            return 2
    elif args.slowest is not None:
        chosen = slowest(traces, args.slowest)
    else:
        chosen = slowest(traces, len(traces))
    out.write(f"{len(traces)} trace(s) across {len(args.logs)} log(s); "
              f"rendering {len(chosen)}\n\n")
    for trace_item in chosen:
        out.write(render_trace_waterfall(trace_item))
        out.write("\n")
    if args.html:
        with _output_file(args.html) as stream:
            stream.write(render_traces_html(chosen))
        out.write(f"wrote HTML timelines to {args.html}\n")
    if args.assert_linked is not None:
        linked = [trace_item for trace_item in traces.values()
                  if trace_item.is_single_tree()
                  and len(trace_item.spans) >= args.assert_linked]
        if not linked:
            out.write(f"assertion failed: no single-tree trace with >= "
                      f"{args.assert_linked} spans\n")
            return 1
        out.write(f"assertion ok: {len(linked)} single-tree trace(s) with "
                  f">= {args.assert_linked} spans\n")
    return 0


def _cmd_stats(args, out) -> int:
    from .reporting import render_telemetry_dashboard, render_telemetry_html
    from .telemetry import TelemetryRun

    try:
        run = TelemetryRun.load(args.run)
    except OSError as error:
        out.write(f"error: {error}\n")
        return 2
    if not (run.spans or run.metrics or run.events):
        out.write(f"error: no telemetry records in {args.run}\n")
        return 2
    out.write(render_telemetry_dashboard(run))
    if args.html:
        with _output_file(args.html) as stream:
            stream.write(render_telemetry_html(run, title=f"telemetry: {args.run}"))
        out.write(f"wrote HTML dashboard to {args.html}\n")
    return 0


_COMMANDS = {
    "list": lambda args, out: _cmd_list(out),
    "profile": _cmd_profile,
    "fit": _cmd_fit,
    "record": _cmd_record,
    "watch": _cmd_watch,
    "analyze": _cmd_analyze,
    "merge": _cmd_merge,
    "overhead": _cmd_overhead,
    "stats": _cmd_stats,
    "diff": _cmd_diff,
    "observe": _cmd_observe,
    "serve": _cmd_serve,
    "slap": _cmd_slap,
    "trace": _cmd_trace,
}


def _dispatch(args, out) -> int:
    try:
        return _COMMANDS[args.command](args, out)
    except _UnusableOutput as error:
        out.write(f"error: {error}\n")
        return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call of this process shares.

    Parsing reads the parser and never changes it, so one build serves
    every in-process caller; :func:`build_parser` still builds a fresh one.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    run_dir = getattr(args, "telemetry", None)
    if run_dir:
        with telemetry.session(run_dir):
            code = _dispatch(args, out)
        out.write(f"telemetry written to "
                  f"{telemetry.resolve_log_path(run_dir)}\n")
        return code
    return _dispatch(args, out)
