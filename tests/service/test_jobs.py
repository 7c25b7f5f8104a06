"""Job queue semantics: capacity, one attempt per job, status, drain."""

import threading
import time

import pytest

from repro.service import (
    DONE,
    FAILED,
    QUEUED,
    Job,
    JobQueue,
    QueueClosed,
    QueueFull,
)


def make_job(queue, kind="noop", params=None):
    return Job(queue.next_job_id(), "default", kind, "", params or {})


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_jobs_run_and_record_result():
    seen = []

    def handler(job):
        seen.append(job.kind)
        return {"kind": job.kind}

    queue = JobQueue(handler, workers=2)
    try:
        jobs = [make_job(queue, kind=f"k{i}") for i in range(4)]
        for job in jobs:
            queue.submit(job)
        for job in jobs:
            assert job.done_event.wait(5.0)
            assert job.status == DONE
            assert job.result == {"kind": job.kind}
            assert job.snapshot()["status"] == DONE
        assert sorted(seen) == ["k0", "k1", "k2", "k3"]
    finally:
        queue.drain(0)


def test_capacity_overflow_raises_queue_full():
    release = threading.Event()

    def handler(job):
        release.wait(5.0)
        return {}

    queue = JobQueue(handler, workers=1, capacity=2)
    try:
        queue.submit(make_job(queue))
        # Wait until the worker holds the first job, then fill the queue.
        assert wait_for(lambda: queue.in_flight() == 1 and queue.depth() == 0)
        queue.submit(make_job(queue))
        queue.submit(make_job(queue))
        with pytest.raises(QueueFull):
            queue.submit(make_job(queue))
    finally:
        release.set()
        queue.drain(0)


def test_failing_handler_runs_once_and_marks_failed():
    runs = []

    def handler(job):
        runs.append(job.job_id)
        raise RuntimeError("always broken")

    queue = JobQueue(handler, workers=1)
    try:
        job = make_job(queue)
        queue.submit(job)
        assert job.done_event.wait(5.0)
        assert job.status == FAILED
        assert "always broken" in job.error
        assert job.snapshot()["error"] == job.error
        assert runs == [job.job_id]
    finally:
        queue.drain(0)


def test_status_lookup():
    queue = JobQueue(lambda job: {}, workers=1)
    try:
        job = make_job(queue)
        queue.submit(job)
        assert job.done_event.wait(5.0)
        found = queue.status(job.job_id)
        assert found is job
        assert found.status == DONE
        assert queue.status("j999999") is None
    finally:
        queue.drain(0)


def test_drain_waits_for_in_flight_jobs():
    started = threading.Event()

    def handler(job):
        started.set()
        time.sleep(0.2)
        return {"slept": True}

    queue = JobQueue(handler, workers=1)
    job = make_job(queue)
    queue.submit(job)
    assert started.wait(5.0)
    assert queue.drain(deadline=5.0) is True
    assert job.status == DONE
    assert job.result == {"slept": True}
    with pytest.raises(QueueClosed):
        queue.submit(make_job(queue))


def test_failed_drain_leaves_pending_jobs_unrun():
    release = threading.Event()
    ran = []

    def handler(job):
        if job.kind == "blocker":
            release.wait(5.0)
        ran.append(job.kind)
        return {}

    queue = JobQueue(handler, workers=1)
    queue.submit(make_job(queue, kind="blocker"))
    assert wait_for(lambda: queue.in_flight() == 1)
    pending = make_job(queue, kind="pending")
    queue.submit(pending)
    # Unblock the in-flight job shortly after the drain deadline expires.
    threading.Timer(0.3, release.set).start()
    assert queue.drain(deadline=0.1) is False
    assert wait_for(lambda: "blocker" in ran)
    time.sleep(0.1)
    # The queued job must never execute after a failed drain: it is
    # failed unrun, and whoever waits on it wakes up.
    assert pending.status == FAILED
    assert "abandoned at shutdown" in pending.error
    assert pending.done_event.is_set()
    assert queue.abandoned == 1
    assert "pending" not in ran


def test_drain_is_idempotent():
    queue = JobQueue(lambda job: {}, workers=1)
    assert queue.drain(0) is True
    assert queue.drain(0) is True
    with pytest.raises(QueueClosed):
        queue.submit(make_job(queue))


def test_observer_sees_lifecycle():
    events = []

    def observer(what, job):
        events.append(what)

    queue = JobQueue(lambda job: {}, workers=1, observer=observer)
    try:
        job = make_job(queue)
        queue.submit(job)
        assert job.done_event.wait(5.0)
        assert wait_for(lambda: DONE in events)
        assert QUEUED in events
    finally:
        queue.drain(0)


def test_run_executes_on_the_calling_thread():
    seen = []
    events = []

    def handler(job):
        seen.append(threading.current_thread())
        return {"kind": job.kind}

    queue = JobQueue(handler, workers=1,
                     observer=lambda what, job: events.append(what))
    try:
        job = queue.run(make_job(queue, kind="inline"))
        assert seen == [threading.current_thread()]
        assert job.status == DONE and job.done_event.is_set()
        assert job.result == {"kind": "inline"}
        assert job.snapshot()["queue_seconds"] == 0
        assert queue.status(job.job_id) is job
        assert events == [QUEUED, DONE]
        assert queue.in_flight() == 0 and queue.depth() == 0
    finally:
        queue.drain(0)


def test_run_records_a_raising_handler_as_failed():
    def handler(job):
        raise RuntimeError("boom")

    queue = JobQueue(handler, workers=1)
    try:
        job = queue.run(make_job(queue))
        assert job.status == FAILED
        assert job.error == "RuntimeError: boom"
        assert queue.in_flight() == 0
    finally:
        queue.drain(0)


def test_run_makes_the_intake_checks_of_submit():
    release = threading.Event()
    ran = []

    def handler(job):
        ran.append(job.kind)
        if job.kind == "blocker":
            release.wait(5.0)
        return {}

    queue = JobQueue(handler, workers=1, capacity=1)
    try:
        queue.submit(make_job(queue, kind="blocker"))
        assert wait_for(lambda: queue.in_flight() == 1)
        queue.submit(make_job(queue, kind="queued"))
        refused = make_job(queue, kind="refused")
        with pytest.raises(QueueFull):
            queue.run(refused)
        assert refused.status == QUEUED and queue.status(refused.job_id) is None
    finally:
        release.set()
    assert queue.drain(deadline=5.0) is True
    with pytest.raises(QueueClosed):
        queue.run(make_job(queue, kind="late"))
    assert ran == ["blocker", "queued"]


def test_drain_waits_for_a_job_run_on_another_thread():
    started, release = threading.Event(), threading.Event()

    def handler(job):
        started.set()
        release.wait(5.0)
        return {"ran": True}

    queue = JobQueue(handler, workers=1)
    job = make_job(queue)
    runner = threading.Thread(target=queue.run, args=(job,))
    runner.start()
    assert started.wait(5.0)
    assert queue.in_flight() == 1 and queue.depth() == 0
    threading.Timer(0.2, release.set).start()
    assert queue.drain(deadline=5.0) is True
    assert job.status == DONE and job.result == {"ran": True}
    runner.join(5.0)
    assert not runner.is_alive()
