"""The long-lived ingestion server behind ``repro serve``.

A thread-per-client TCP server (the architecture
:mod:`repro.minidb.protocol` models in miniature, here over real
sockets) that turns the one-shot observatory CLI into
profiling-as-a-service:

* **write side** — ``put`` uploads any artefact the observatory
  ingests (``repro-profile 1`` dumps, v2 binary traces,
  ``telemetry.jsonl`` logs, ``repro-bench/1`` envelopes).
  ``put`` and ``put_stream`` share one upload path: every header
  field is parsed first (a bad one is rejected before anything touches
  the disk), then the payload becomes a job of the bounded
  :class:`~repro.service.jobs.JobQueue` and is analysed once.  An
  upload whose reply does not wait for its ingest to end (no ``wait``,
  or a ``wait_timeout``) is spooled to ``<tenant>/spool/`` before it is
  acknowledged and queued for a worker, and the client pays for a
  socket write, never for a farm analysis or a curve fit; an upload
  whose reply waits until its job ends is answered only after its
  ingest, so it needs no spool file and no worker: its job carries its
  bytes, and the connection thread that received them runs it
  (:meth:`~repro.service.jobs.JobQueue.run`), building the record in
  memory.  Duplicate uploads are rejected at the door by content digest
  (idempotent ingest, before any analysis), and a full queue pushes
  back instead of buffering without bound, both kinds of upload alike;
* **read side** — ``runs`` / ``alerts`` / ``report`` serve the run
  history, the drift-alert feed and the fleet dashboards (JSON, ASCII
  or HTML) from the per-tenant stores through one reader, which the
  HTTP views share and which never creates a store (``stats`` reports
  on the server itself);
* **tenancy** — every operation names a tenant; each tenant owns an
  isolated store under ``<root>/<tenant>/``
  (:mod:`repro.service.tenants`);
* **self-observation** — queue depth, jobs in flight, ingest latency
  histograms and per-op request counters land in the server's own
  metrics registry (the ``stats`` op returns a snapshot) and mirror
  into the process telemetry when ``--telemetry`` is live; a
  :class:`~repro.service.slo.SloTracker` keeps per-tenant rolling
  SLO state (latency quantiles, error/shed burn rates) surfaced via
  ``stats``, ``/slo`` and ``/metrics``;
* **distributed tracing** — when an upload's wire header carries a
  trace context (``{"trace": {"id", "parent"}}``, attached by
  :class:`~repro.service.client.ServiceClient` under live telemetry),
  the server continues the trace: ``server.request`` wraps the
  dispatch, retroactive ``server.accept`` / ``server.decode`` spans
  cover the socket work, ``server.spool`` the disk write of a spooled
  upload, and the job adds ``server.queue_wait`` / ``server.execute``
  / ``server.ingest`` under the same trace id (a job run on its
  connection thread waited in no queue: its ``server.queue_wait`` is
  0 ms long) — ``repro trace`` joins the client and server logs into
  one waterfall.  Untraced requests (telemetry off, old clients) take
  the exact pre-trace code path;
* **lifecycle** — ``start`` binds, ``serve_forever`` accepts until a
  shutdown is requested; SIGTERM/SIGINT (or the ``shutdown`` op) stop
  intake, drain queued and in-flight jobs — those running on
  connection threads too — to completion (bounded by
  ``drain_timeout``; a job still queued then fails unrun and its spool
  file is removed), then close the stores.

The same port also answers plain HTTP ``GET``/``HEAD`` (sniffed from
the first bytes; other verbs get 405): ``/`` (tenant index),
``/stats`` (JSON), ``/metrics`` (Prometheus text exposition), ``/slo``
(JSON), ``/<tenant>`` (HTML dashboard),
``/<tenant>/report|alerts|runs`` — so a browser or a scraper can watch
a store the wire protocol feeds.  Each tenant route is the body of its
wire op's reply (``runs``, ``alerts``, ``report`` in ASCII or HTML), and
a tenant with no store answers 404.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..observatory import (
    detect_drift, ingest_record, record_from_bytes, record_from_stream_dump,
)
from ..observatory import render_alert_feed, render_observatory_html, render_observatory_report
from ..telemetry.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..telemetry.prometheus import render_prometheus
from ..telemetry.registry import MetricsRegistry
from .jobs import DONE, FAILED, Job, JobQueue, QueueClosed, QueueFull
from .slo import SloTargets, SloTracker
from .tenants import DEFAULT_TENANT, TenantError, TenantManager, validate_tenant
from .wire import MAGIC, WireError, recv_frame, send_frame, wait_for_frame

__all__ = ["ProfileServer"]

#: the tenant views, each a read op: op -> the formats it renders (the
#: first is the default); :meth:`ProfileServer._read` serves them all
_VIEWS = {"runs": ("json",), "alerts": ("json", "ascii"),
          "report": ("ascii", "html")}

#: the HTTP tenant routes ``/<tenant>[/<view>]`` (no view: ``html``):
#: view -> (op, format, content type); a ``json`` route's body is its
#: op's reply field
_HTTP_VIEWS = {"html": ("report", "html", "text/html; charset=utf-8"),
               "report": ("report", "ascii", "text/plain; charset=utf-8"),
               "alerts": ("alerts", "json", "application/json"),
               "runs": ("runs", "json", "application/json")}

#: ops a request header may name
_OPS = ("ping", "put", "put_stream", "job", *_VIEWS, "stats", "tenants",
        "shutdown")


def _finite(value) -> float:
    """A ``_field`` kind: the float a store can keep (no NaN or infinity)."""
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ValueError(f"not finite: {value!r}")
    return parsed


#: the ``stream`` fields of a ``put_stream`` header besides its id:
#: (name, type, value when absent)
_STREAM_FIELDS = (("seq", int, 0), ("events_analyzed", int, 0),
                  ("events_behind", int, 0), ("lag_ms", _finite, 0.0),
                  ("events_per_s", _finite, 0.0), ("closed", bool, False),
                  ("timestamp", str, ""))

#: HTTP verbs the sniffer recognizes (only GET/HEAD are served; the
#: rest answer 405 instead of dying on the wire magic check)
_HTTP_VERBS = (b"GET ", b"HEAD ", b"POST ", b"PUT ", b"DELETE ",
               b"OPTIONS ", b"PATCH ", b"TRACE ")


class _BadHeader(ValueError):
    """A request header field that does not parse or is out of range (the
    message names it)."""


def _field(fields: Dict, name: str, kind: Callable, default, prefix: str = "",
           low=None):
    """``kind(fields[name])``, or ``default`` when the field is absent,
    null or ``""``; a value ``kind`` cannot take, or one below ``low``,
    raises :class:`_BadHeader`."""
    value = fields.get(name)
    if value is None or value == "":
        return default
    try:
        parsed = kind(value)
        if low is None or parsed >= low:
            return parsed
    except (TypeError, ValueError, OverflowError):
        pass
    raise _BadHeader(f"bad header field {prefix}{name}: {value!r:.80}")


def _upload_fields(header: Dict) -> Tuple[Dict, Optional[float]]:
    """The header fields both upload ops carry, parsed: the ingest
    keywords, and how long the reply waits for the job (0 without
    ``wait``, else ``wait_timeout`` seconds; None: until it is terminal).

    Each op parses its own fields too before the upload touches a store
    or the spool, so a bad field costs an error reply and nothing else.
    """
    params = {"run_id": _field(header, "run_id", str, None),
              "git_sha": _field(header, "git_sha", str, ""),
              "scale": _field(header, "scale", _finite, 0.0)}
    timeout = header.get("wait_timeout")
    if timeout is not None:
        # a wait past the platform's longest timeout waits without one
        timeout = min(_field(header, "wait_timeout", _finite, 0.0),
                      threading.TIMEOUT_MAX)
    return params, (timeout if header.get("wait") else 0.0)


class ProfileServer:
    """One always-on ingestion server over one tenant root directory."""

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        capacity: int = 64,
        drain_timeout: float = 30.0,
        slo_window: float = 300.0,
        slo_targets: Optional[SloTargets] = None,
    ):
        self.root = root
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self.tenants = TenantManager(root)
        self.registry = MetricsRegistry()
        self.slo = SloTracker(window_seconds=slo_window, targets=slo_targets)
        self.queue = JobQueue(self._execute, workers=workers,
                              capacity=capacity, observer=self._observe)
        self._listener: Optional[socket.socket] = None
        self._shutdown = threading.Event()
        self._drained = threading.Event()
        self._clients_lock = threading.Lock()
        self._clients: Dict[int, socket.socket] = {}
        self._client_seq = 0

    # -- metrics -------------------------------------------------------------

    def _bump(self, name: str, amount: int = 1, **labels) -> None:
        self.registry.counter(name, **labels).inc(amount)
        telemetry.counter(name, **labels).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)
        telemetry.gauge(name).set(value)

    def _observe_ms(self, name: str, milliseconds: float, **labels) -> None:
        self.registry.histogram(name, **labels).observe(milliseconds)
        telemetry.histogram(name, **labels).observe(milliseconds)

    def _observe(self, what: str, job: Job) -> None:
        """Queue observer: gauges, outcome counters, SLOs, spool cleanup."""
        self._gauge("service.queue.depth", self.queue.depth())
        self._gauge("service.jobs.in_flight", self.queue.in_flight())
        if what not in (DONE, FAILED):
            return
        self._bump(f"service.jobs.{what}")
        started, finished = job.started_at, job.finished_at
        # a job abandoned at shutdown failed without running: it has no
        # latency and no queue wait, only (when spooled) a file to remove
        if started is not None and finished is not None:
            latency_ms = (finished - started) * 1000.0
            self._observe_ms("service.ingest_ms", latency_ms, tenant=job.tenant)
            self.slo.record_ingest(job.tenant, latency_ms, ok=(what == DONE))
            trace = job.trace
            if trace is not None:
                # the queue wait is only known once a worker picked the
                # job up — record it retroactively into the trace
                telemetry.emit_span(
                    "server.queue_wait", trace["enqueued_time"],
                    started - job.enqueued_at,
                    trace_id=trace["id"], parent_uid=trace["parent"],
                    job=job.job_id, tenant=job.tenant)
        if job.path:
            try:
                os.unlink(job.path)
            except OSError:
                pass

    # -- job execution (worker and connection threads) -----------------------

    def _execute(self, job: Job) -> Dict:
        trace = job.trace
        tele = telemetry.current()
        if trace is None or not tele.enabled:
            return self._ingest_job(job)
        # continue the upload's trace on this thread (a worker, or the
        # connection thread of a waited upload): the spans land in the
        # server log with the request span as their parent
        with tele.trace(trace.get("id"), trace.get("parent")):
            with tele.span("server.execute", tenant=job.tenant,
                           job=job.job_id):
                return self._ingest_job(job)

    def _ingest_job(self, job: Job) -> Dict:
        with telemetry.span("server.ingest", tenant=job.tenant):
            with self.tenants.lock(job.tenant):
                try:
                    data = job.payload
                    if data is None:
                        with open(job.path, "rb") as stream:
                            data = stream.read()
                    if job.kind == "stream":
                        record = record_from_stream_dump(data, **job.params)
                    else:
                        # named by the job: a client never sees the server root
                        record = record_from_bytes(data, name=f"job {job.job_id}",
                                                   **job.params)
                finally:
                    job.payload = None
                # only an upload that parsed opens, and so creates, the store
                result = ingest_record(self.tenants.store(job.tenant), record)
        if not result.ingested:
            self._bump("service.uploads.duplicate")
        return {
            "run_id": result.run_id,
            "source": result.source,
            "ingested": result.ingested,
            "detail": result.detail,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and start accepting in a background thread."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        thread = threading.Thread(target=self._accept_loop, daemon=True,
                                  name="service-accept")
        thread.start()
        self._accept_thread = thread
        return self.host, self.port

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (main thread only)."""
        def handler(signum, frame):  # noqa: ARG001
            self.request_shutdown()

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)

    def request_shutdown(self) -> None:
        """Flip the shutdown flag and wake the accept loop (idempotent)."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def serve_forever(self) -> bool:
        """Block until shutdown is requested, then drain; True iff drained."""
        self._shutdown.wait()
        return self._finish()

    def _finish(self) -> bool:
        drained = self.queue.drain(self.drain_timeout)
        self._drained.set()
        with self._clients_lock:
            sockets = list(self._clients.values())
            self._clients.clear()
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.tenants.close()
        return drained

    def stop(self) -> bool:
        """Request shutdown and drain synchronously (the test path)."""
        self.request_shutdown()
        if self._drained.is_set():
            return True
        return self._finish()

    # -- accept / per-client loops -------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        if listener is None:
            return
        while not self._shutdown.is_set():
            try:
                sock, _address = listener.accept()
            except OSError:
                return              # listener closed: shutting down
            with self._clients_lock:
                self._client_seq += 1
                client_id = self._client_seq
                self._clients[client_id] = sock
            thread = threading.Thread(
                target=self._serve_client, args=(sock, client_id),
                daemon=True, name=f"service-client-{client_id}",
            )
            thread.start()

    def _forget(self, client_id: int) -> None:
        with self._clients_lock:
            self._clients.pop(client_id, None)

    def _serve_client(self, sock: socket.socket, client_id: int) -> None:
        accepted_time = time.time()
        accept_wall0 = time.perf_counter()
        first_frame = True
        try:
            kind = self._peek_kind(sock)
            if kind == "http":
                self._serve_http(sock)
                return
            # made after the peek: an HTTP request never reaches it
            buffer = bytearray()
            while not self._shutdown.is_set():
                # the clocks start once the frame's first bytes are in
                # hand: the client's idle time between requests is no
                # part of decoding the next one
                wait_for_frame(sock, buffer)
                recv_time = time.time()
                recv_wall0 = time.perf_counter()
                try:
                    frame = recv_frame(sock, eof_ok=True, buffer=buffer)
                except WireError as error:
                    self._bump("service.requests.malformed")
                    self._reply_error(sock, str(error))
                    return
                recv_wall = time.perf_counter() - recv_wall0
                if frame is None:
                    return
                header, payload = frame
                accept_wall = (recv_wall0 - accept_wall0) if first_frame else None
                keep_going = self._dispatch(
                    sock, header, payload,
                    accepted_time=accepted_time if first_frame else None,
                    accept_wall=accept_wall,
                    recv_time=recv_time, recv_wall=recv_wall)
                first_frame = False
                if not keep_going:
                    return
        except OSError:
            pass                    # client went away mid-conversation
        finally:
            self._forget(client_id)
            try:
                sock.close()
            except OSError:
                pass

    def _peek_kind(self, sock: socket.socket) -> str:
        """``http`` when the first bytes spell an HTTP verb, else ``wire``."""
        try:
            head = sock.recv(8, socket.MSG_PEEK)
        except OSError:
            return "wire"
        if head[: len(MAGIC)] == MAGIC:
            return "wire"
        if any(head[: len(verb)] == verb for verb in _HTTP_VERBS):
            return "http"
        return "wire"

    def _dispatch(self, sock: socket.socket, header: Dict, payload: bytes,
                  accepted_time: Optional[float], accept_wall: Optional[float],
                  recv_time: float, recv_wall: float) -> bool:
        """Handle one frame, continuing the client's trace when it sent one."""
        carrier = header.get("trace")
        tele = telemetry.current()
        if not (isinstance(carrier, dict) and carrier.get("id")
                and tele.enabled):
            return self._handle(sock, header, payload)
        with tele.trace(str(carrier["id"]), carrier.get("parent")):
            with tele.span("server.request", op=header.get("op")):
                # the socket work happened before the trace id was known;
                # link it retroactively under the request span
                if accepted_time is not None and accept_wall is not None:
                    tele.emit_span("server.accept", accepted_time, accept_wall)
                tele.emit_span("server.decode", recv_time, recv_wall,
                               bytes=len(payload))
                return self._handle(sock, header, payload)

    # -- request dispatch ----------------------------------------------------

    def _reply(self, sock: socket.socket, header: Dict,
               payload: bytes = b"") -> None:
        try:
            send_frame(sock, header, payload)
        except (OSError, WireError):
            pass                    # client is gone; nothing to salvage

    def _reply_error(self, sock: socket.socket, message: str, **extra) -> None:
        self._reply(sock, {"ok": False, "error": message, **extra})

    def _handle(self, sock: socket.socket, header: Dict,
                payload: bytes) -> bool:
        """Serve one request; False ends the connection."""
        op = header.get("op")
        if op not in _OPS:
            self._bump("service.requests.malformed")
            self._reply_error(sock, f"unknown op {op!r}")
            return True
        self._bump("service.requests", op=op)
        try:
            handler = (self._op_view if op in _VIEWS
                       else getattr(self, f"_op_{op}"))
            return handler(sock, header, payload)
        except TenantError as error:
            self._reply_error(sock, str(error))
            return True
        except _BadHeader as error:
            if op in ("put", "put_stream"):     # a bad read is no upload
                self._bump("service.uploads.rejected", reason="bad_header")
            self._reply_error(sock, str(error))
            return True
        except Exception as error:  # noqa: BLE001 - connection boundary
            self._reply_error(
                sock, f"internal error: {type(error).__name__}: {error}")
            return True

    def _tenant_of(self, header: Dict) -> str:
        return validate_tenant(str(header.get("tenant") or DEFAULT_TENANT))

    def _op_ping(self, sock, header, payload) -> bool:
        self._reply(sock, {"ok": True, "op": "ping"})
        return True

    def _op_shutdown(self, sock, header, payload) -> bool:
        self._reply(sock, {"ok": True, "op": "shutdown",
                           "draining": self.queue.depth()
                           + self.queue.in_flight()})
        self.request_shutdown()
        return False

    def _op_put(self, sock, header, payload) -> bool:
        tenant = self._tenant_of(header)
        if not payload:
            self._bump("service.uploads.rejected", reason="empty")
            self._reply_error(sock, "empty upload payload")
            return True
        params, wait = _upload_fields(header)
        params["timestamp"] = _field(header, "timestamp", str, "-")
        digest = hashlib.sha256(payload).hexdigest()[:32]
        run_id = params["run_id"] or digest
        with self.tenants.lock(tenant):
            store = self.tenants.find(tenant)
            known = store is not None and store.has_run(run_id)
        if known:
            # Arafa-style redundancy suppression at the door: the
            # duplicate never reaches the spool, the queue or a worker.
            self._bump("service.uploads.duplicate")
            self._reply(sock, {"ok": True, "op": "put", "tenant": tenant,
                               "run_id": run_id, "status": "duplicate",
                               "duplicate": True})
            return True
        job = self._submit_upload(sock, tenant, "ingest", payload, digest,
                                  params, wait)
        if job is None:
            return True
        self._bump("service.uploads.accepted")
        self._reply(sock, {"ok": True, "op": "put", "tenant": tenant,
                           "run_id": job.result.get("run_id", run_id)
                           if job.result else run_id,
                           "duplicate": bool(job.result
                                             and not job.result["ingested"]),
                           **job.snapshot()})
        return True

    def _op_put_stream(self, sock, header, payload) -> bool:
        """Ingest one live-stream checkpoint (superseding by stream id).

        Unlike ``put`` there is no at-the-door run-id rejection: every
        checkpoint of a stream *shares* its run id on purpose, and each
        upload replaces the previous partial run (an unchanged
        checkpoint is still an idempotent no-op downstream).  The
        manifest's lag metrics land on ``/metrics`` as per-tenant
        ``streaming.*`` gauges, so remote dashboards see stream health
        without touching the producer host.
        """
        tenant = self._tenant_of(header)
        stream = header.get("stream") or {}
        if not isinstance(stream, dict):
            raise _BadHeader(f"bad header field stream: {stream!r:.80}")
        stream_id = str(stream.get("id") or stream.get("stream_id") or "")
        if not payload:
            self._bump("service.uploads.rejected", reason="empty")
            self._reply_error(sock, "empty stream checkpoint payload")
            return True
        if not stream_id:
            self._bump("service.uploads.rejected", reason="no_stream_id")
            self._reply_error(sock, "put_stream without a stream id")
            return True
        params, wait = _upload_fields(header)
        meta: Dict = {"id": stream_id}
        for name, kind, default in _STREAM_FIELDS:
            meta[name] = _field(stream, name, kind, default, "stream.")
        params["stream_meta"] = meta
        run_id = params["run_id"] or f"stream-{stream_id}"
        for gauge_name, key in (("streaming.checkpoint_lag_ms", "lag_ms"),
                                ("streaming.events_behind", "events_behind")):
            value = float(meta[key])
            self.registry.gauge(gauge_name, tenant=tenant).set(value)
            telemetry.gauge(gauge_name, tenant=tenant).set(value)
        digest = hashlib.sha256(payload).hexdigest()
        job = self._submit_upload(sock, tenant, "stream", payload, digest,
                                  params, wait)
        if job is None:
            return True
        self._bump("service.uploads.stream")
        self._reply(sock, {"ok": True, "op": "put_stream", "tenant": tenant,
                           "run_id": run_id, "stream_id": stream_id,
                           "seq": meta["seq"], **job.snapshot()})
        return True

    def _submit_upload(self, sock: socket.socket, tenant: str, kind: str,
                       payload: bytes, digest: str, params: Dict,
                       wait: Optional[float]) -> Optional[Job]:
        """Run or queue ``payload``'s job (the path both uploads share)
        and wait for it as long as the reply does: ``wait`` seconds (0:
        not at all, the reply is the ack; None: until the job ends).

        A waited upload (``wait`` None) is answered only after its ingest:
        its job carries the bytes and runs here, on the connection thread.
        Any other upload is written to the tenant's spool first, its job
        owns that file, and a worker runs it.  A full or draining queue
        refuses either kind: it removes the spool file, counts the
        rejection, records an SLO shed and replies; that returns None.
        """
        job_id = self.queue.next_job_id()
        if wait is not None:
            spool_dir = os.path.join(self.tenants.path(tenant), "spool")
            os.makedirs(spool_dir, exist_ok=True)
            # no suffix: the worker tells the kind by the bytes
            path = os.path.join(spool_dir, f"{job_id}-{digest[:8]}")
            with telemetry.span("server.spool", tenant=tenant,
                                bytes=len(payload)):
                with open(path, "wb") as stream:
                    stream.write(payload)
            job = Job(job_id, tenant, kind, path=path, params=params)
        else:
            job = Job(job_id, tenant, kind, params=params, payload=payload)
        carrier = telemetry.trace_carrier()
        if carrier is not None:
            # the trace the job's spans continue, on the thread that runs it
            job.trace = {"id": carrier.get("id"),
                         "parent": carrier.get("parent"),
                         "enqueued_time": time.time()}
        try:
            if wait is None:
                return self.queue.run(job)
            self.queue.submit(job)
        except (QueueFull, QueueClosed) as error:
            if job.path:
                os.unlink(job.path)
            reason = ("draining" if isinstance(error, QueueClosed)
                      else "queue_full")
            self._bump("service.uploads.rejected", reason=reason)
            self.slo.record_shed(tenant)
            self._reply_error(sock, str(error), status="rejected",
                              reason=reason)
            return None
        if wait:
            job.done_event.wait(wait)
        return job

    def _op_job(self, sock, header, payload) -> bool:
        job = self.queue.status(str(header.get("job") or ""))
        if job is None:
            self._reply_error(sock, f"unknown job {header.get('job')!r}")
            return True
        self._reply(sock, {"ok": True, "op": "job", **job.snapshot()})
        return True

    def _op_view(self, sock, header, payload) -> bool:
        """``runs``, ``alerts`` and ``report``: one tenant view."""
        op = header["op"]
        tenant = self._tenant_of(header)
        fields, body = self._read(op, tenant, header)
        self._reply(sock, {"ok": True, "op": op, "tenant": tenant, **fields},
                    body)
        return True

    def _read(self, op: str, tenant: str, fields: Dict) -> Tuple[Dict, bytes]:
        """The tenant view ``op`` (a ``_VIEWS`` key), for the wire and HTTP
        alike: its reply fields and body.  The fields parse first; a tenant
        with no store is ``no such tenant`` and gets no lock either.
        """
        formats = _VIEWS[op]
        fmt = _field(fields, "format", str, formats[0])
        if fmt not in formats:
            raise _BadHeader(f"bad header field format: {fmt!r:.80}")
        tolerance = _field(fields, "tolerance", float, 1.30, low=1.0)
        limit = _field(fields, "limit", int, 20, low=1)
        store = self.tenants.existing_store(tenant)
        with self.tenants.lock(tenant):
            if op == "runs":
                return {"runs": [info._asdict() for info in store.runs()]}, b""
            if op == "report":
                # named by the tenant: a client never sees the server root
                body = (render_observatory_html(
                            store, tolerance=tolerance,
                            title=f"profile observatory: {tenant}", name=tenant)
                        if fmt == "html" else
                        render_observatory_report(store, tolerance=tolerance,
                                                  limit=limit, name=tenant))
                return {"format": fmt}, body.encode("utf-8")
            alerts = detect_drift(store, tolerance=tolerance)
        feed = render_alert_feed(alerts) if fmt == "ascii" else ""
        return ({"alerts": [alert._asdict() for alert in alerts]},
                feed.encode("utf-8"))

    def _op_stats(self, sock, header, payload) -> bool:
        self._reply(sock, {"ok": True, "op": "stats", **self.stats()})
        return True

    def _op_tenants(self, sock, header, payload) -> bool:
        self._reply(sock, {"ok": True, "op": "tenants",
                           "tenants": self.tenants.tenants()})
        return True

    def stats(self) -> Dict:
        """The server's self-metrics (also the ``stats`` op body)."""
        return {
            "queue_depth": self.queue.depth(),
            "jobs_in_flight": self.queue.in_flight(),
            "tenants": self.tenants.tenants(),
            "draining": self._shutdown.is_set(),
            "metrics": self.registry.snapshot(),
            "slo": self.slo.snapshot(),
        }

    def _slo_metric_entries(self) -> List[Dict]:
        """The SLO snapshot as synthetic gauge entries for ``/metrics``."""
        entries: List[Dict] = []

        def gauge(name: str, tenant: str, value: float) -> None:
            entries.append({"kind": "gauge", "name": name,
                            "labels": {"tenant": tenant}, "value": value})

        for tenant, state in self.slo.snapshot().items():
            for quantile, value in state["latency_ms"].items():
                gauge(f"service.slo.latency_{quantile}_ms", tenant, value)
            gauge("service.slo.error_rate", tenant, state["error_rate"])
            gauge("service.slo.shed_rate", tenant, state["shed_rate"])
            for burn, value in state["burn"].items():
                gauge(f"service.slo.burn.{burn}", tenant, value)
            gauge("service.slo.alerts", tenant, len(state["alerts"]))
        return entries

    # -- read-only HTTP fallback ---------------------------------------------

    def _serve_http(self, sock: socket.socket) -> None:
        """One-shot ``GET``/``HEAD`` handler on the same port."""
        self._bump("service.requests", op="http")
        data = b""
        while b"\r\n\r\n" not in data and b"\n\n" not in data:
            chunk = sock.recv(4096)
            if not chunk or len(data) > (1 << 16):
                break
            data += chunk
        parts = data.split(None, 2)
        if len(parts) < 2:
            self._http_reply(sock, 400, "text/plain", b"bad request")
            return
        method = parts[0].decode("utf-8", "replace")
        target = parts[1].decode("utf-8", "replace")
        if method not in ("GET", "HEAD"):
            self._http_reply(sock, 405, "text/plain",
                             f"method {method} not allowed".encode("utf-8"),
                             extra_headers=(("Allow", "GET, HEAD"),))
            return
        try:
            status, ctype, body = self._http_route(target.split("?", 1)[0])
        except TenantError as error:
            status, ctype, body = 404, "text/plain", str(error).encode()
        except Exception as error:  # noqa: BLE001 - connection boundary
            status, ctype, body = (500, "text/plain",
                                   f"internal error: {error}".encode())
        self._http_reply(sock, status, ctype, body,
                         head_only=(method == "HEAD"))

    def _http_route(self, path: str) -> Tuple[int, str, bytes]:
        if path in ("/", ""):
            slo = self.slo.snapshot()
            rows = "".join(
                f'<li><a href="/{name}">{name}</a> '
                f'(<a href="/{name}/alerts">alerts</a>, '
                f'<a href="/{name}/runs">runs</a>)</li>'
                for name in self.tenants.tenants())
            slo_rows = "".join(
                f"<tr><td>{tenant}</td>"
                f"<td>{state['latency_ms']['p99']:.1f}</td>"
                f"<td>{state['burn']['latency_p99']:.2f}</td>"
                f"<td>{state['burn']['error']:.2f}</td>"
                f"<td>{state['burn']['shed']:.2f}</td>"
                f"<td>{', '.join(state['alerts']) or '-'}</td></tr>"
                for tenant, state in slo.items())
            slo_table = (
                "<h2>SLO burn (rolling window)</h2>"
                "<table border=1><tr><th>tenant</th><th>p99 ms</th>"
                "<th>latency burn</th><th>error burn</th>"
                "<th>shed burn</th><th>alerts</th></tr>"
                f"{slo_rows}</table>" if slo_rows else "")
            body = (f"<!DOCTYPE html><title>repro service</title>"
                    f"<h1>profile observatory service</h1>"
                    f"<ul>{rows or '<li>(no tenants yet)</li>'}</ul>"
                    f"{slo_table}"
                    f'<p><a href="/stats">server stats</a> &middot; '
                    f'<a href="/metrics">metrics</a> &middot; '
                    f'<a href="/slo">slo</a></p>')
            return 200, "text/html; charset=utf-8", body.encode("utf-8")
        if path == "/stats":
            return (200, "application/json",
                    json.dumps(self.stats(), sort_keys=True).encode("utf-8"))
        if path == "/metrics":
            snapshot = self.registry.snapshot() + self._slo_metric_entries()
            return (200, PROMETHEUS_CONTENT_TYPE,
                    render_prometheus(snapshot).encode("utf-8"))
        if path == "/slo":
            return (200, "application/json",
                    json.dumps(self.slo.snapshot(),
                               sort_keys=True).encode("utf-8"))
        parts = [part for part in path.split("/") if part]
        view = parts[1] if len(parts) > 1 else "html"
        if view not in _HTTP_VIEWS:
            return 404, "text/plain", f"no such view {view!r}".encode("utf-8")
        op, fmt, ctype = _HTTP_VIEWS[view]
        fields, body = self._read(op, parts[0], {"format": fmt})
        if fmt == "json":
            body = json.dumps(fields[op], sort_keys=True).encode("utf-8")
        return 200, ctype, body

    def _http_reply(self, sock: socket.socket, status: int, ctype: str,
                    body: bytes,
                    extra_headers: Tuple[Tuple[str, str], ...] = (),
                    head_only: bool = False) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(status, "OK")
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in extra_headers)
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extras}"
                f"Connection: close\r\n\r\n").encode("utf-8")
        try:
            sock.sendall(head + (b"" if head_only else body))
        except OSError:
            pass
