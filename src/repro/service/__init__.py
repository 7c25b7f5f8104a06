"""Profiling-as-a-service: the long-lived ingestion server and its clients.

The batch pipeline (record → analyze → fit → observe) ends in a
one-shot CLI; this package keeps the analysis side *always on*, the
ROADMAP's production-service shape:

* :mod:`repro.service.wire` — the ``repro-wire/1`` length-prefixed
  framing (JSON header + raw artefact payload, hard size ceilings);
* :mod:`repro.service.jobs` — the bounded async job queue: worker
  threads, queued/running/done/failed tracking, one attempt per job,
  graceful drain;
* :mod:`repro.service.tenants` — per-tenant observatory stores under
  one root, validated slug names, per-tenant locking;
* :mod:`repro.service.server` — the thread-per-client TCP server
  (``repro serve``): async ``put``/``put_stream`` ingestion through
  one upload path with at-the-door duplicate rejection, read-side
  ``runs``/``alerts``/``report`` ops, an HTTP ``GET``/``HEAD``
  fallback for browsers and scrapers (including Prometheus
  ``/metrics``), self-metrics, distributed trace continuation,
  SIGTERM drain;
* :mod:`repro.service.slo` — per-tenant rolling-window SLO tracking
  (latency quantiles, error/shed budgets, burn-rate alerts);
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  uploader library (mints the trace context each request travels in
  when telemetry is live);
* :mod:`repro.service.slap` — the minislap swarm (``repro slap``):
  concurrent upload load generation reported as p50/p99 latency,
  duplicate/rejected tallies and the server's own SLO burn in a
  ``repro-bench/1`` envelope the bench gate consumes.

Contract: a profile ingested through the server produces exactly the
observatory rows and alerts that ``repro observe ingest`` of the same
file produces — the service adds availability, never meaning.  See
docs/SERVICE.md.
"""

from .client import ServiceClient, ServiceError, mtime_iso
from .jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobQueue, QueueClosed, QueueFull
from .server import ProfileServer
from .slap import SlapReport, build_envelope, slap, synthetic_artefact
from .slo import SloTargets, SloTracker
from .tenants import DEFAULT_TENANT, TENANT_RE, TenantError, TenantManager, validate_tenant
from .wire import (
    MAGIC,
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    WIRE_SCHEMA,
    WireError,
    recv_frame,
    send_frame,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "mtime_iso",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "Job",
    "JobQueue",
    "QueueClosed",
    "QueueFull",
    "ProfileServer",
    "SlapReport",
    "SloTargets",
    "SloTracker",
    "build_envelope",
    "slap",
    "synthetic_artefact",
    "DEFAULT_TENANT",
    "TENANT_RE",
    "TenantError",
    "TenantManager",
    "validate_tenant",
    "MAGIC",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "WIRE_SCHEMA",
    "WireError",
    "recv_frame",
    "send_frame",
]
