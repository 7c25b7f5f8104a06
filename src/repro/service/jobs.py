"""The bounded async job queue behind the ingestion server.

An upload that is not waited for is acknowledged as soon as it is
spooled and enqueued — the Metz & Lencevicius discipline of keeping
instrumentation cost off the measured path: the client's upload
latency covers a socket write and a queue append, never a curve fit.
Its work (farm analysis, power-law fitting, store appends) happens on
worker threads that drain the queue.  An upload whose client waits for
the ingest travels in its job, in memory, and :meth:`JobQueue.run`
runs it on the thread that received it: it passes the same intake
checks and counts in flight like a queued job, without two thread
hand-offs.

Semantics, all enforced by ``tests/service/test_jobs.py``:

* **bounded**: the queue holds at most ``capacity`` jobs; a submit
  beyond that raises :class:`QueueFull` so the server can push back
  ("rejected: queue full") instead of buffering without limit;
* **status tracking**: every job walks ``queued -> running ->
  done | failed``; :meth:`JobQueue.status` is queryable at any time
  and terminal jobs are kept in a bounded ring of recent history;
* **one attempt**: a worker runs each job exactly once, when it takes
  it off the queue (a job given to :meth:`JobQueue.run` runs once, on
  the caller's thread); a handler exception fails the job and records
  the error.  Ingestion is deterministic, so a second run could only
  fail the same way;
* **graceful drain**: :meth:`drain` stops intake, waits for queued and
  in-flight jobs to finish (bounded by a deadline; a job
  :meth:`JobQueue.run` runs on its caller's thread is in flight too),
  then stops the workers — the SIGTERM path of ``repro serve``.  A job
  still queued at the deadline is failed unrun ("abandoned at
  shutdown"), so its waiters wake and the observer can release what it
  holds.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "QueueFull",
    "QueueClosed",
    "Job",
    "JobQueue",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: terminal jobs remembered for status queries after completion
HISTORY_LIMIT = 1024


class QueueFull(Exception):
    """The bounded queue is at capacity — the upload must be rejected."""


class QueueClosed(Exception):
    """The queue no longer accepts work (draining or stopped)."""


class Job:
    """One unit of ingestion work and its tracked lifecycle."""

    def __init__(self, job_id: str, tenant: str, kind: str,
                 path: str = "", params: Optional[Dict] = None,
                 payload: Optional[bytes] = None):
        self.job_id = job_id
        self.tenant = tenant
        self.kind = kind
        #: the spooled artefact, owned by the job: an upload acknowledged
        #: before its ingest ends; ``""`` when the job carries ``payload``
        self.path = path
        #: the artefact's bytes when it was not spooled (a waited
        #: upload); the handler drops them once it has used them, since
        #: terminal jobs stay in the history
        self.payload = payload
        self.params: Dict = params or {}
        self.status = QUEUED
        self.error: Optional[str] = None
        self.result: Optional[Dict] = None
        #: trace continuation set by the server when the upload was traced:
        #: ``{"id", "parent", "enqueued_time"}`` — the thread that runs the
        #: job re-activates the trace context from it so its spans join
        #: the request tree
        self.trace: Optional[Dict] = None
        self.enqueued_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done_event = threading.Event()

    def snapshot(self) -> Dict:
        """The job as a JSON-safe status dict (what the wire returns)."""
        waited = (self.started_at - self.enqueued_at
                  if self.started_at is not None else None)
        ran = (self.finished_at - self.started_at
               if self.finished_at is not None and self.started_at is not None
               else None)
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "status": self.status,
            "error": self.error,
            "result": self.result,
            "queue_seconds": None if waited is None else round(waited, 6),
            "run_seconds": None if ran is None else round(ran, 6),
        }


class JobQueue:
    """Worker threads draining a bounded job queue (see module docstring).

    ``handler(job)`` performs the work and returns the JSON-safe result
    dict stored on the job; an exception it raises fails the job.
    """

    def __init__(
        self,
        handler: Callable[[Job], Dict],
        workers: int = 2,
        capacity: int = 64,
        observer: Optional[Callable[[str, Job], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.handler = handler
        self.capacity = capacity
        self.observer = observer
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._pending: collections.deque = collections.deque()
        self._jobs: Dict[str, Job] = {}
        self._order: collections.deque = collections.deque()
        self._in_flight = 0
        self._accepting = True
        self._stopped = False
        self._counter = 0
        #: jobs a timed-out :meth:`drain` failed without running them
        self.abandoned = 0
        self._workers: List[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(target=self._work, daemon=True,
                                      name=f"ingest-worker-{index}")
            thread.start()
            self._workers.append(thread)

    # -- intake --------------------------------------------------------------

    def next_job_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"j{self._counter:06d}"

    def _admit(self) -> None:
        """The intake checks (caller holds the lock): :class:`QueueClosed`
        while draining, :class:`QueueFull` with ``capacity`` jobs queued."""
        if not self._accepting:
            raise QueueClosed("queue is draining")
        if len(self._pending) >= self.capacity:
            raise QueueFull(
                f"queue at capacity ({self.capacity} job(s) pending)")

    def submit(self, job: Job) -> Job:
        """Enqueue ``job``; :class:`QueueFull` / :class:`QueueClosed` on refusal."""
        with self._lock:
            self._admit()
            job.enqueued_at = time.monotonic()
            self._pending.append(job)
            self._remember(job)
            self._not_empty.notify()
        self._notify(QUEUED, job)
        return job

    def run(self, job: Job) -> Job:
        """Run ``job`` on the calling thread, now; it is terminal on return.

        The intake checks are :meth:`submit`'s (:class:`QueueFull` /
        :class:`QueueClosed` on refusal, before the handler runs).  The
        job is then remembered for :meth:`status` and counted in flight,
        so :meth:`drain` waits for it, and it walks the statuses and
        reaches the observer like a queued job, with no queue wait.
        """
        with self._lock:
            self._admit()
            self._remember(job)
            self._in_flight += 1
            job.enqueued_at = job.started_at = time.monotonic()
            job.status = RUNNING
        self._notify(QUEUED, job)
        self._execute(job)
        return job

    def _remember(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        while len(self._order) > HISTORY_LIMIT:
            stale = self._order.popleft()
            staled = self._jobs.get(stale)
            if staled is not None and staled.status in (DONE, FAILED):
                del self._jobs[stale]
            else:           # still live: keep it queryable
                self._order.append(stale)
                break

    # -- queries -------------------------------------------------------------

    def status(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    # -- workers -------------------------------------------------------------

    def _work(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._stopped:
                    self._not_empty.wait()
                if self._stopped:
                    return
                job = self._pending.popleft()
                self._in_flight += 1
                job.started_at = time.monotonic()
                job.status = RUNNING
            self._execute(job)

    def _execute(self, job: Job) -> None:
        """Run an in-flight job's handler once and settle the job."""
        try:
            job.result = self.handler(job)
            job.status = DONE
        except Exception as error:  # noqa: BLE001 - boundary by design
            job.error = f"{type(error).__name__}: {error}"
            job.status = FAILED
        finally:
            job.finished_at = time.monotonic()
            with self._lock:
                self._in_flight -= 1
                if not self._pending and not self._in_flight:
                    self._idle.notify_all()
            job.done_event.set()
            self._notify(job.status, job)

    def _notify(self, what: str, job: Job) -> None:
        if self.observer is not None:
            try:
                self.observer(what, job)
            except Exception:   # noqa: BLE001 - observers never break the queue
                pass

    # -- shutdown ------------------------------------------------------------

    def drain(self, deadline: Optional[float] = None) -> bool:
        """Stop intake, wait for all work to finish, stop the workers.

        Returns ``True`` when the queue fully emptied before the
        ``deadline`` (seconds); on ``False`` the workers are stopped
        anyway, and every job still pending is failed without running:
        its error says it was abandoned at shutdown, its ``done_event``
        is set and the observer hears ``failed`` (:attr:`abandoned`
        counts them).  ``drain(0)`` is the immediate stop: in-flight
        jobs finish, pending ones never start.
        """
        limit = None if deadline is None else time.monotonic() + deadline
        drained = True
        abandoned: List[Job] = []
        with self._lock:
            self._accepting = False
            while self._pending or self._in_flight:
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    drained = False
                    abandoned = list(self._pending)
                    self._pending.clear()
                    break
                self._idle.wait(timeout=remaining)
            self._stopped = True
            self._not_empty.notify_all()
        for job in abandoned:
            job.error = "abandoned at shutdown: the drain timed out; never run"
            job.status = FAILED
            job.finished_at = time.monotonic()
            job.done_event.set()
            self._notify(FAILED, job)
        self.abandoned += len(abandoned)
        for thread in self._workers:
            thread.join(timeout=5.0)
        return drained
