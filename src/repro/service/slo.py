"""Per-tenant rolling-window SLO tracking for the profiling service.

The server's raw metrics (``service.*`` counters and histograms) are
cumulative since boot — fine for rates over a scrape interval, useless
for "is tenant X healthy *right now*".  :class:`SloTracker` keeps a
short sliding window per tenant, sliced into fixed-width time slices so
old observations age out without per-observation timestamps:

* ingest latency as log2 bucket counts (the registry's fixed buckets),
  reported as p50/p95/p99 via the shared quantile estimator;
* error rate (failed ingests / ingests) against an error budget;
* queue-shed rate (uploads rejected at submit because the queue was
  full or draining / offered uploads) against a shed budget.

Each rate is also expressed as a **burn rate** — the observed rate
divided by its budget, the standard SRE framing: burn 1.0 means the
tenant is consuming exactly its budget, burn ≥ 1.0 for long enough
means the SLO will be violated.  Latency burns are p99 over the target
p99.  Any burn ≥ 1.0 raises a named alert in the snapshot; the
``stats`` op, the HTTP dashboard, ``/metrics`` gauges and the slap
envelope all surface the same snapshot, and ``tools/bench_gate.py``
can gate a CI run on the slap-reported burns.

The tracker is lock-protected and cheap (a dict update per ingest); it
is always on in the server — unlike spans it never touches profile
data, only service bookkeeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from ..telemetry.registry import bucket_index, quantiles_from_buckets

__all__ = ["SloTargets", "SloTracker"]


class SloTargets:
    """The service-level objectives a tenant is held to."""

    __slots__ = ("p99_ms", "error_budget", "shed_budget")

    def __init__(self, p99_ms: float = 500.0, error_budget: float = 0.01,
                 shed_budget: float = 0.05):
        self.p99_ms = float(p99_ms)
        self.error_budget = float(error_budget)
        self.shed_budget = float(shed_budget)

    def as_dict(self) -> Dict:
        return {"p99_ms": self.p99_ms, "error_budget": self.error_budget,
                "shed_budget": self.shed_budget}


class _Slice:
    """One time slice of one tenant's window (plain counters)."""

    __slots__ = ("started", "ingests", "failed", "shed", "buckets")

    def __init__(self, started: float):
        self.started = started
        self.ingests = 0
        self.failed = 0
        self.shed = 0
        self.buckets: Dict[int, int] = {}


class _TenantWindow:
    __slots__ = ("slices",)

    def __init__(self) -> None:
        self.slices: List[_Slice] = []


class SloTracker:
    """Sliding-window SLO state for every tenant of one server."""

    def __init__(self, window_seconds: float = 300.0, slices: int = 10,
                 targets: Optional[SloTargets] = None,
                 clock: Callable[[], float] = time.monotonic):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if slices < 1:
            raise ValueError("need at least one slice")
        self.window_seconds = float(window_seconds)
        self.slice_seconds = self.window_seconds / slices
        self.targets = targets if targets is not None else SloTargets()
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantWindow] = {}

    # -- recording ----------------------------------------------------------

    def _slice(self, tenant: str, now: float) -> _Slice:
        window = self._tenants.get(tenant)
        if window is None:
            window = self._tenants[tenant] = _TenantWindow()
        slices = window.slices
        if not slices or now - slices[-1].started >= self.slice_seconds:
            slices.append(_Slice(now))
        horizon = now - self.window_seconds
        while slices and slices[0].started + self.slice_seconds < horizon:
            slices.pop(0)
        return slices[-1]

    def record_ingest(self, tenant: str, latency_ms: float,
                      ok: bool = True) -> None:
        """One completed ingest job (successful or failed)."""
        now = self._clock()
        with self._lock:
            piece = self._slice(tenant, now)
            piece.ingests += 1
            if not ok:
                piece.failed += 1
            index = bucket_index(latency_ms)
            piece.buckets[index] = piece.buckets.get(index, 0) + 1

    def record_shed(self, tenant: str) -> None:
        """One upload rejected at submit (queue full or draining)."""
        now = self._clock()
        with self._lock:
            self._slice(tenant, now).shed += 1

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Per-tenant SLO state: quantiles, rates, burns, alerts."""
        now = self._clock()
        horizon = now - self.window_seconds
        targets = self.targets
        with self._lock:
            tenants = {tenant: list(window.slices)
                       for tenant, window in self._tenants.items()}
        out: Dict[str, Dict] = {}
        for tenant, slices in sorted(tenants.items()):
            ingests = failed = shed = 0
            buckets: Dict[int, int] = {}
            for piece in slices:
                if piece.started + self.slice_seconds < horizon:
                    continue
                ingests += piece.ingests
                failed += piece.failed
                shed += piece.shed
                for index, count in piece.buckets.items():
                    buckets[index] = buckets.get(index, 0) + count
            offered = ingests + shed
            p50, p95, p99 = quantiles_from_buckets(
                buckets, ingests, (0.50, 0.95, 0.99))
            error_rate = failed / ingests if ingests else 0.0
            shed_rate = shed / offered if offered else 0.0
            latency_burn = p99 / targets.p99_ms if targets.p99_ms > 0 else 0.0
            error_burn = (error_rate / targets.error_budget
                          if targets.error_budget > 0 else 0.0)
            shed_burn = (shed_rate / targets.shed_budget
                         if targets.shed_budget > 0 else 0.0)
            alerts = []
            if ingests and latency_burn >= 1.0:
                alerts.append("latency_p99_burn")
            if error_burn >= 1.0 and failed:
                alerts.append("error_burn")
            if shed_burn >= 1.0 and shed:
                alerts.append("shed_burn")
            out[tenant] = {
                "window_seconds": self.window_seconds,
                "targets": targets.as_dict(),
                "ingests": ingests,
                "failed": failed,
                "shed": shed,
                "latency_ms": {"p50": round(p50, 3), "p95": round(p95, 3),
                               "p99": round(p99, 3)},
                "error_rate": round(error_rate, 6),
                "shed_rate": round(shed_rate, 6),
                "burn": {"latency_p99": round(latency_burn, 4),
                         "error": round(error_burn, 4),
                         "shed": round(shed_burn, 4)},
                "alerts": alerts,
            }
        return out
