"""``service``: a closed-loop client against a ``repro serve`` process.

Before timing starts the benchmark profiles an input-scale sweep of a
small traced Python application and keeps each run's profile dump.  In
the sweep's later runs the application's ``lookup`` routine turns from
a linear scan into a quadratic one, so the drift detector has a growth
class change to find.  The seed picks the order of the scales, which
upload the change first appears in, and so the history the drift
detector sees.

``repro serve`` runs in its own process with default flags.  Up to
``nproc`` (at most 2) connections each run rounds against a fresh
tenant: upload the sweep with ``put(wait=True)`` in timestamp order,
re-send every ``RESEND_EVERY``-th artefact (the server answers
``duplicate`` at the door), read ``alerts`` after every
``ALERTS_EVERY``-th and ``report`` after every ``REPORT_EVERY``-th
upload, and end with an ``alerts`` read that must equal offline
``detect_drift`` over the same dumps in the same order.  The service,
the observatory, curve fitting and minidb do the work; the analysis
kernels do none, because dumps are uploaded and not traces.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import selectors
import shutil
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from typing import Dict, List, NamedTuple, Optional, Tuple

from common import (
    HostClock, Tally, mean, median, peak_rss_mb, percentile, process_peak_rss_mb,
    repeated_setup, sha256_bytes, tree_bytes,
)
from ledger import Ledger

#: ascending input scales of the sweep, one profiled run each
SWEEP_SCALES = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)
#: base input sizes of every run, multiplied by the run's scale
BASE_SIZES = (4, 6, 8, 12, 16, 24, 32)
RESEND_EVERY = 6
ALERTS_EVERY = 3
REPORT_EVERY = 6
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: share of a run spent on the in-process ingest baseline
BASELINE_SHARE = 0.25
#: served phases per run, each followed by its share of the baseline
CYCLES = 4
#: rounds after which the server's peak RSS is read: the server keeps
#: every tenant's store open, so its memory grows with the rounds a run
#: completes, and a fixed amount of work keeps the figure comparable
RSS_ROUNDS = 8
EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


# -- the profiled application --------------------------------------------------


def _application():
    """The sweep's application: three routines, ``lookup`` in two versions."""
    from repro.pytrace import traced

    @traced
    def load_records(records):
        for index in range(len(records)):
            records[index] = (records[index] * 31 + index) % 1009

    def lookup_scan(records):
        hits = 0
        for index in range(len(records)):
            if records[index] % 7 == 0:
                hits += 1
        return hits

    def lookup_pairs(records):
        hits = 0
        for index in range(len(records)):
            for other in range(len(records)):
                if records[index] == records[other]:
                    hits += 1
        return hits

    lookup_scan.__name__ = lookup_pairs.__name__ = "lookup"

    @traced
    def summarize(records):
        total = 0
        for index in range(len(records)):
            total += records[index]
        return total

    return load_records, traced(lookup_scan), traced(lookup_pairs), summarize


def profile_run(scale: float, regressed: bool) -> bytes:
    """One profiled run of the application at ``scale``: its dump bytes."""
    from repro.core import TrmsProfiler
    from repro.farm import save_profile
    from repro.pytrace import TraceSession

    load_records, lookup_scan, lookup_pairs, summarize = _application()
    lookup = lookup_pairs if regressed else lookup_scan
    profiler = TrmsProfiler()
    session = TraceSession(tools=profiler)
    with session:
        for base in BASE_SIZES:
            records = session.array(max(2, int(round(base * scale))), fill=1)
            load_records(records)
            lookup(records)
            summarize(records)
    text = io.StringIO()
    save_profile(profiler.db, text)
    return text.getvalue().encode("utf-8")


class Upload(NamedTuple):
    path: str
    data: bytes
    timestamp: str
    scale: float


class Sweep(NamedTuple):
    uploads: List[Upload]
    alerts: List[Dict]          #: offline detect_drift, JSON-normalised


def build_sweep(seed: int, work: str) -> List[Upload]:
    """Profile the sweep and write its dumps: the service's input."""
    rng = random.Random(seed)
    scales = list(SWEEP_SCALES)
    rng.shuffle(scales)
    first_regressed = rng.randint(len(scales) // 3, 2 * len(scales) // 3)
    directory = os.path.join(work, "sweep")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    # Both versions at every scale, so set-up does the same work for
    # every seed; the seed only picks which of them are uploaded.
    versions = {(scale, regressed): profile_run(scale, regressed)
                for scale in SWEEP_SCALES for regressed in (False, True)}
    uploads = []
    for position, scale in enumerate(scales):
        data = versions[(scale, position >= first_regressed)]
        path = os.path.join(directory, f"run{position:02d}.profile")
        with open(path, "wb") as stream:
            stream.write(data)
        timestamp = (EPOCH + timedelta(minutes=position)).isoformat()
        uploads.append(Upload(path, data, timestamp, scale))
    return uploads


def offline_alerts(uploads: List[Upload], work: str) -> List[Dict]:
    """The oracle: offline ``detect_drift`` over the dumps in upload order."""
    from repro.observatory import ObservatoryStore, detect_drift, ingest_path

    store = ObservatoryStore(os.path.join(work, "oracle-store"))
    try:
        for upload in uploads:
            ingest_path(store, upload.path, timestamp=upload.timestamp,
                        scale=upload.scale)
        alerts = _normalised(detect_drift(store))
    finally:
        store.close()
        shutil.rmtree(store.root, ignore_errors=True)
    if not any(alert["routine"] == "lookup" for alert in alerts):
        raise RuntimeError("the sweep's growth-class change raised no alert")
    return alerts


def _normalised(alerts) -> List[Dict]:
    """Alerts as the wire carries them (JSON round trip of ``_asdict``)."""
    return json.loads(json.dumps([alert._asdict() for alert in alerts]))


def setup(seed: int, work: str) -> Tuple[Sweep, float]:
    """Build the sweep (timed, repeated) and then its oracle (untimed)."""
    sweeps, seconds = repeated_setup(
        lambda: build_sweep(seed, work),
        key=lambda uploads: [sha256_bytes(upload.data) for upload in uploads])
    return Sweep(sweeps[0], offline_alerts(sweeps[0], work)), seconds


def offline_ingest_ms(sweep: Sweep, work: str, seconds: float) -> List[float]:
    """In-process ``ingest_path`` of the sweep, HostClock ms per upload.

    The baseline of the service's slowdown: the same ingests without
    the wire, the spool and the job queue.
    """
    from repro.observatory import ObservatoryStore, ingest_path

    root = os.path.join(work, "offline-store")
    samples: List[float] = []
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        shutil.rmtree(root, ignore_errors=True)
        with ObservatoryStore(root) as store:
            for upload in sweep.uploads:
                started = clock.start()
                ingest_path(store, upload.path, timestamp=upload.timestamp,
                            scale=upload.scale)
                samples.append(clock.stop(started) * 1000.0)
    return samples


# -- the server process ---------------------------------------------------------


class Server:
    """A ``repro serve`` child process with default flags."""

    def __init__(self, work: str, telemetry_dir: Optional[str] = None):
        self.root = os.path.join(work, "tenants")
        argv = [sys.executable, "-m", "repro", "serve", "--root", self.root,
                "--port", "0"]
        if telemetry_dir is not None:
            argv += ["--telemetry", telemetry_dir]
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=dict(os.environ), text=True)
        self.host, self.port = self._await_banner(timeout=60.0)

    def _await_banner(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    address = line.split()[2]
                    host, _, port = address.rpartition(":")
                    return host, int(port)
        self.stop()
        raise RuntimeError("repro serve did not report its address")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Graceful drain via SIGTERM; kill if it does not end in time."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# -- the closed-loop client -----------------------------------------------------


class Traffic:
    """What the connections of one closed-loop phase measured."""

    def __init__(self) -> None:
        self.put_ms: List[float] = []
        self.query_ms: List[float] = []
        self.round_s: List[float] = []
        self.duplicates = 0
        self.rejected = 0
        self.tally = Tally()
        #: server peak RSS after RSS_ROUNDS rounds
        self.server_rss_mb = 0.0

    def absorb(self, other: "Traffic") -> None:
        self.put_ms += other.put_ms
        self.query_ms += other.query_ms
        self.round_s += other.round_s
        self.duplicates += other.duplicates
        self.rejected += other.rejected
        self.tally.attempted += other.tally.attempted
        self.tally.failed += other.tally.failed
        self.tally.incorrect += other.tally.incorrect


def _timed(into: List[float], fn, *args, **kwargs):
    started = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        into.append((time.perf_counter() - started) * 1000.0)


def run_round(client, sweep: Sweep, traffic: Traffic, clock: HostClock) -> None:
    """One tenant's round: the sweep's uploads, re-sends and reads.

    Latencies are rescaled to the reference host's speed by the
    calibration runs around the round.
    """
    from repro.service import ServiceError

    put_ms: List[float] = []
    query_ms: List[float] = []
    started = clock.start()
    for position, upload in enumerate(sweep.uploads, start=1):
        sends = [False] + ([True] if position % RESEND_EVERY == 0 else [])
        for resend in sends:
            try:
                header = _timed([] if resend else put_ms, client.put_bytes,
                                upload.data, timestamp=upload.timestamp,
                                scale=upload.scale, wait=True)
            except ServiceError as error:
                traffic.rejected += error.header.get("status") == "rejected"
                traffic.tally.record(False)
                continue
            if resend:
                traffic.duplicates += 1
                traffic.tally.record(header.get("status") == "duplicate")
            else:
                traffic.tally.record(header.get("status") == "done")
        for every, query in ((ALERTS_EVERY, client.alerts), (REPORT_EVERY, client.report)):
            if position % every == 0:
                try:
                    _timed(query_ms, query)
                    traffic.tally.record(True)
                except ServiceError:
                    traffic.tally.record(False)
    try:
        alerts, _feed = _timed(query_ms, client.alerts)
        traffic.tally.record(True, correct=alerts == sweep.alerts)
    except ServiceError:
        traffic.tally.record(False, correct=False)
    raw = time.perf_counter() - started
    scaled = clock.stop(started)
    traffic.round_s.append(scaled)
    traffic.put_ms += [sample * scaled / raw for sample in put_ms]
    traffic.query_ms += [sample * scaled / raw for sample in query_ms]


def closed_loop(server: Server, sweep: Sweep, seconds: float, label: str) -> Traffic:
    """``CONNECTIONS`` clients, each running rounds until time is up."""
    from repro.service import ServiceClient

    deadline = time.perf_counter() + seconds
    parts = [Traffic() for _ in range(CONNECTIONS)]
    errors: List[BaseException] = []
    rounds_done = itertools.count(1)
    server_rss: List[float] = []

    def round_done() -> None:
        # itertools.count is atomic under the interpreter lock
        if next(rounds_done) == RSS_ROUNDS:
            server_rss.append(server.peak_rss_mb())

    def connection(index: int) -> None:
        try:
            with ServiceClient(server.host, server.port, timeout=120.0) as client:
                clock = HostClock()
                rounds = 0
                while rounds == 0 or time.perf_counter() < deadline:
                    client.tenant = f"{label}-c{index}-r{rounds}"
                    run_round(client, sweep, parts[index], clock)
                    round_done()
                    rounds += 1
        except BaseException as error:     # reported by the caller
            errors.append(error)

    threads = [threading.Thread(target=connection, args=(index,))
               for index in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    traffic = Traffic()
    for part in parts:
        traffic.absorb(part)
    if errors:
        raise errors[0]
    traffic.server_rss_mb = server_rss[0] if server_rss else server.peak_rss_mb()
    return traffic


def measure(seed: int, seconds: float, work: str) -> Tuple[Dict[str, float], Tally]:
    sweep, setup_s = setup(seed, work)
    traffic = Traffic()
    ratios = []
    server = Server(work)
    try:
        for cycle in range(CYCLES):
            served = closed_loop(server, sweep, seconds * (1.0 - BASELINE_SHARE) / CYCLES,
                                 f"bench{cycle}")
            baseline_ms = offline_ingest_ms(sweep, work, seconds * BASELINE_SHARE / CYCLES)
            # served against in-process ingests of the same dumps, close in time
            ratios.append(median(served.put_ms) / median(baseline_ms))
            traffic.absorb(served)
            if cycle == 0:
                traffic.server_rss_mb = served.server_rss_mb
    finally:
        server.stop()
    put_ms = median(traffic.put_ms)
    uploads_per_round = len(sweep.uploads)
    metrics = {
        "setup_s": setup_s,
        "time_to_profile_ms": put_ms,
        "slowdown": median(ratios),
        # closed loop: each connection completes a round's uploads per round wall
        "throughput_per_s": CONNECTIONS * uploads_per_round / median(traffic.round_s),
        "peak_rss_mb": peak_rss_mb() + traffic.server_rss_mb,
    }
    return metrics, traffic.tally


# -- the traced run ---------------------------------------------------------------


def _install(ledger: Ledger) -> None:
    """Patch what a server-side ingest and the two reads pass through."""
    import repro.farm
    import repro.observatory.dashboards
    import repro.observatory.ingest
    import repro.observatory.store

    ledger.patch(repro.farm, "load_profile", "merge.dump")
    ledger.patch(repro.observatory.ingest, "record_from_profile_db", "observatory.ingest")
    ledger.patch(repro.observatory.ingest, "select_model", "curvefit", "fit")
    ledger.patch(repro.observatory.ingest, "fit_power_law", "curvefit", "fit")
    store = repro.observatory.store.ObservatoryStore
    for method in ("add_run", "has_run", "runs", "routines", "curve_trajectory",
                   "curves_for_run", "points_for", "metrics_for"):
        ledger.patch(store, method, "store")
    ledger.patch(repro.observatory.dashboards, "detect_drift", "drift", "detect_drift")


def replay_round(sweep: Sweep, root: str, ledger: Ledger, tally: Tally,
                 clock: HostClock) -> Dict[str, float]:
    """The server-side work of one round, in process, under the ledger.

    Duplicates stop at the door exactly as the server's ``has_run``
    check stops them; the reads run ``detect_drift`` and
    ``render_observatory_report`` as the ``alerts`` and ``report`` ops do.
    """
    from repro.observatory import (
        ObservatoryStore, detect_drift, ingest_path, render_observatory_report,
    )

    shutil.rmtree(root, ignore_errors=True)
    started = clock.start()
    store = ObservatoryStore(root)
    for position, upload in enumerate(sweep.uploads, start=1):
        sends = 2 if position % RESEND_EVERY == 0 else 1
        for _ in range(sends):
            if store.has_run(sha256_bytes(upload.data)[:32]):
                continue
            ledger.call("observatory.ingest", "ingest_path", ingest_path, store,
                        upload.path, timestamp=upload.timestamp, scale=upload.scale)
        if position % ALERTS_EVERY == 0:
            ledger.call("drift", "detect_drift", detect_drift, store)
        if position % REPORT_EVERY == 0:
            ledger.call("dashboards", "report", render_observatory_report, store)
    alerts = ledger.call("drift", "detect_drift", detect_drift, store)
    wall = time.perf_counter() - started
    scaled = clock.stop(started)
    store.close()
    tally.record(True, correct=_normalised(alerts) == sweep.alerts)

    reopened = time.perf_counter()
    ObservatoryStore(root).close()
    return {"wall": wall, "scaled": scaled, "reopen": time.perf_counter() - reopened,
            "history": tree_bytes(root), "alerts": len(alerts)}


def _server_spans(telemetry_dir: str) -> Dict[str, float]:
    """Mean milliseconds of the server's own spans, from its telemetry log."""
    from repro.telemetry import TelemetryRun

    totals = TelemetryRun.load(telemetry_dir).span_totals()
    spans = {}
    for name in ("server.spool", "server.queue_wait", "server.execute"):
        entry = totals.get(name, {"calls": 0, "wall": 0.0})
        spans[f"{name}_ms"] = (1000.0 * entry["wall"] / entry["calls"]
                               if entry["calls"] else 0.0)
    return spans


def measure_traced(seed: int, seconds: float, work: str) -> Tuple[Dict[str, float], Tally]:
    from repro import telemetry
    from repro.service import ServiceClient

    sweep, _setup_s = setup(seed, work)
    phase = seconds / 3.0

    # untraced served phase: put/query latencies and the plain round wall
    server = Server(work)
    try:
        plain = closed_loop(server, sweep, phase, "plain")
    finally:
        server.stop()

    # traced served phase: client trace carriers, server --telemetry spans
    server_tele = os.path.join(work, "server-telemetry")
    server = Server(work, telemetry_dir=server_tele)
    try:
        with telemetry.session(os.path.join(work, "client-telemetry")):
            traced = closed_loop(server, sweep, phase, "traced")
        ping_ms: List[float] = []
        ack_ms: List[float] = []
        with ServiceClient(server.host, server.port, tenant="acks") as client:
            for _ in range(50):
                _timed(ping_ms, client.ping)
            for upload in sweep.uploads:
                header = _timed(ack_ms, client.put_bytes, upload.data,
                                timestamp=upload.timestamp, scale=upload.scale)
                plain.tally.record(header.get("status") in ("queued", "running", "done"))
    finally:
        server.stop()
    spans = _server_spans(server_tele)

    # in-process replay of the server-side work under the ledger
    ledger = Ledger()
    _install(ledger)
    replays = []
    tally = Tally()
    clock = HostClock()
    started = time.perf_counter()
    try:
        while not replays or time.perf_counter() - started < phase:
            replays.append(replay_round(sweep, os.path.join(work, "replay-store"),
                                        ledger, tally, clock))
    finally:
        ledger.restore()
    rounds = len(replays)
    replay_wall = mean([r["wall"] for r in replays])
    service_share = max(0.0, 1.0 - median([r["scaled"] for r in replays])
                        / median(plain.round_s))
    server_side = 1.0 - service_share
    selfs = ledger.self_wall
    layers = ("observatory.ingest", "curvefit", "store", "drift", "dashboards",
              "merge.dump")
    metrics = {f"{layer}.share": server_side * selfs.get(layer, 0.0) / rounds / replay_wall
               for layer in layers}
    metrics["service.share"] = service_share
    metrics["other.share"] = max(0.0, 1.0 - sum(metrics.values()))
    metrics.update({
        "service.ping_rtt_ms": median(ping_ms),
        "service.ack_ms": median(ack_ms),
        "service.rejected": plain.rejected + traced.rejected,
        "service.duplicates": plain.duplicates + traced.duplicates,
        "service.put_p50_ms": median(plain.put_ms),
        "service.put_p99_ms": percentile(plain.put_ms, 99),
        "service.query_p50_ms": median(plain.query_ms),
        "server.spool_ms": spans["server.spool_ms"],
        "server.queue_wait_ms": spans["server.queue_wait_ms"],
        "server.execute_ms": spans["server.execute_ms"],
        "observatory.ingest_s": ledger.inclusive["ingest_path"] / rounds,
        "curvefit.fit_s": ledger.inclusive["fit"] / rounds,
        "store.add_run_s": ledger.inclusive["add_run"] / rounds,
        "store.reopen_s": median([r["reopen"] for r in replays]),
        "store.history_bytes": replays[-1]["history"],
        "drift.detect_s": ledger.inclusive["detect_drift"] / rounds,
        "dashboards.report_s": ledger.inclusive["report"] / rounds,
        "drift.alerts": replays[-1]["alerts"],
        "merge.dump_s": ledger.inclusive["load_profile"] / rounds,
        "dump.bytes": sum(len(upload.data) for upload in sweep.uploads),
        "trace.overhead_share": median(traced.round_s) / median(plain.round_s) - 1.0,
    })
    total = Tally()
    for part in (plain.tally, traced.tally, tally):
        total.attempted += part.attempted
        total.failed += part.failed
        total.incorrect += part.incorrect
    metrics["failed_ops_share"] = total.failed_share
    return metrics, total
