"""The client half of the wire protocol: what uploaders link against.

:class:`ServiceClient` wraps one TCP connection to a ``repro serve``
instance and exposes the protocol ops as methods.  It is deliberately
thin — the whole point of the service split is that clients do no
analysis: ``put_file`` reads bytes off disk and writes them to a
socket, nothing more, so instrumented production processes can ship
their traces with near-zero overhead (the Metz & Lencevicius
requirement that profiling stays off the measured path).

The client is also what the load generator (:mod:`repro.service.slap`)
hammers the server with, so every method returns the parsed response
header (plus the payload where one is defined) rather than printing.

When telemetry is live, every request runs inside a fresh **trace
context**: the client records a ``client.<op>`` span and attaches the
trace carrier to the wire header, so the server's spans for the same
request land in its own log under the same trace id — ``repro trace``
joins the two halves.  With telemetry disabled (the default) no trace
is minted and headers are byte-identical to before.
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..observatory.ingest import mtime_iso
from .tenants import DEFAULT_TENANT
from .wire import recv_frame, send_frame

__all__ = ["ServiceError", "ServiceClient", "mtime_iso"]


class ServiceError(Exception):
    """The server answered ``ok: false`` (the reply header is attached)."""

    def __init__(self, header: Dict):
        super().__init__(str(header.get("error") or "service error"))
        self.header = header


class ServiceClient:
    """One connection to the ingestion server (usable as a context manager)."""

    def __init__(self, host: str, port: int, tenant: str = DEFAULT_TENANT,
                 timeout: Optional[float] = 30.0):
        self.tenant = tenant
        self.sock = socket.create_connection((host, port), timeout=timeout)
        #: the connection's read-ahead (see :func:`~repro.service.wire.recv_frame`)
        self._buffer = bytearray()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def request(self, header: Dict, payload: bytes = b"") -> Tuple[Dict, bytes]:
        """One round trip; raises :class:`ServiceError` on ``ok: false``."""
        tele = telemetry.current()
        if not tele.enabled:
            return self._round_trip(header, payload)
        op = str(header.get("op") or "request")
        with tele.trace():
            with tele.span(f"client.{op}", tenant=header.get("tenant")) as sp:
                carrier = tele.trace_carrier()
                if carrier is not None:
                    header = dict(header)
                    header["trace"] = carrier
                reply_header, reply_payload = self._round_trip(header, payload)
                sp.set(bytes_out=len(payload), bytes_in=len(reply_payload))
                return reply_header, reply_payload

    def _round_trip(self, header: Dict, payload: bytes) -> Tuple[Dict, bytes]:
        send_frame(self.sock, header, payload)
        reply = recv_frame(self.sock, buffer=self._buffer)
        assert reply is not None        # recv_frame raises on EOF here
        reply_header, reply_payload = reply
        if not reply_header.get("ok"):
            raise ServiceError(reply_header)
        return reply_header, reply_payload

    # -- ops -----------------------------------------------------------------

    def ping(self) -> Dict:
        return self.request({"op": "ping"})[0]

    def put_bytes(
        self,
        data: bytes,
        run_id: Optional[str] = None,
        git_sha: str = "",
        timestamp: str = "",
        scale: float = 0.0,
        wait: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> Dict:
        """Upload one in-memory artefact; returns the ack/job header."""
        return self.request({
            "op": "put", "tenant": self.tenant, "run_id": run_id,
            "git_sha": git_sha, "timestamp": timestamp, "scale": scale,
            "wait": wait, "wait_timeout": wait_timeout,
        }, data)[0]

    def put_file(self, path: str, wait: bool = False, **kwargs) -> Dict:
        """Upload a file, stamping its mtime as offline ingestion does
        (:func:`~repro.observatory.ingest.mtime_iso`) unless a timestamp
        is given."""
        with open(path, "rb") as stream:
            data = stream.read()
        kwargs.setdefault("timestamp", mtime_iso(path))
        return self.put_bytes(data, wait=wait, **kwargs)

    def put_stream(
        self,
        checkpoint_dir: str,
        run_id: Optional[str] = None,
        git_sha: str = "",
        scale: float = 0.0,
        wait: bool = False,
        wait_timeout: Optional[float] = None,
    ) -> Dict:
        """Upload the current checkpoint of a live stream directory.

        Reads ``CURRENT.json`` and the ``repro-profile 1`` checkpoint it
        names, both written by :class:`repro.streaming.SnapshotWriter`,
        and ships the dump with the stream's lag bookkeeping so the
        server can expose ``streaming.*`` gauges.
        """
        from ..streaming import checkpoint_dump_bytes, load_manifest

        manifest = load_manifest(checkpoint_dir)
        data = checkpoint_dump_bytes(checkpoint_dir, manifest)
        stream = {
            "id": manifest.get("stream_id") or manifest.get("id") or "",
            "seq": manifest.get("seq", 0),
            "events_analyzed": manifest.get("events_analyzed", 0),
            "events_behind": manifest.get("events_behind", 0),
            "lag_ms": manifest.get("lag_ms", 0.0),
            "events_per_s": manifest.get("events_per_s", 0.0),
            "closed": bool(manifest.get("closed", False)),
            "timestamp": manifest.get("timestamp", ""),
        }
        return self.request({
            "op": "put_stream", "tenant": self.tenant, "run_id": run_id,
            "stream": stream, "git_sha": git_sha, "scale": scale,
            "wait": wait, "wait_timeout": wait_timeout,
        }, data)[0]

    def job(self, job_id: str) -> Dict:
        return self.request({"op": "job", "job": job_id})[0]

    def runs(self) -> List[Dict]:
        return self.request({"op": "runs", "tenant": self.tenant})[0]["runs"]

    def alerts(self, tolerance: float = 1.30,
               ascii_feed: bool = False) -> Tuple[List[Dict], str]:
        header, payload = self.request({
            "op": "alerts", "tenant": self.tenant, "tolerance": tolerance,
            "format": "ascii" if ascii_feed else "json",
        })
        return header["alerts"], payload.decode("utf-8")

    def report(self, fmt: str = "ascii", tolerance: float = 1.30,
               limit: int = 20) -> str:
        _header, payload = self.request({
            "op": "report", "tenant": self.tenant, "format": fmt,
            "tolerance": tolerance, "limit": limit,
        })
        return payload.decode("utf-8")

    def stats(self) -> Dict:
        return self.request({"op": "stats"})[0]

    def tenants(self) -> List[str]:
        return self.request({"op": "tenants"})[0]["tenants"]

    def shutdown(self) -> Dict:
        """Ask the server to drain and stop (the admin/CI path)."""
        return self.request({"op": "shutdown"})[0]
