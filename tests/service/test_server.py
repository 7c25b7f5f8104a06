"""Server behaviour: lifecycle, idempotency, rejection paths, HTTP."""

import hashlib
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    FAILED,
    ProfileServer,
    ServiceClient,
    ServiceError,
    recv_frame,
)

from .util import profile_dump_bytes, running_server


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def spool_files(server, tenant):
    spool = os.path.join(server.tenants.path(tenant), "spool")
    if not os.path.isdir(spool):
        return []
    return os.listdir(spool)


def test_ping_and_stats_on_one_connection(tmp_path):
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            assert client.ping()["ok"] is True
            stats = client.stats()
            assert stats["queue_depth"] == 0
            assert stats["jobs_in_flight"] == 0
            assert stats["draining"] is False
            assert client.tenants() == []


def test_put_wait_ingests_and_is_queryable(tmp_path):
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            reply = client.put_bytes(dump, run_id="run-1", git_sha="abc",
                                     timestamp="2026-08-01T00:00:00+00:00",
                                     wait=True)
            assert reply["status"] == "done"
            assert reply["run_id"] == "run-1"
            assert reply["duplicate"] is False
            runs = client.runs()
            assert [run["run_id"] for run in runs] == ["run-1"]
            assert runs[0]["git_sha"] == "abc"
            job = client.job(reply["job"])
            assert job["status"] == "done"
            assert client.tenants() == ["web"]
        # the spooled artefact is removed once the job is terminal
        assert wait_for(lambda: spool_files(server, "web") == [])


def test_put_waits_past_the_platform_timeout(tmp_path):
    """A finite ``wait_timeout`` beyond what the platform can wait for is
    a wait without a limit, not an internal error after the upload."""
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            reply = client.put_bytes(profile_dump_bytes({"a": lambda n: n}),
                                     wait=True, wait_timeout=1e10)
            assert reply["status"] == "done"


def test_duplicate_upload_rejected_at_door(tmp_path):
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            first = client.put_bytes(dump, wait=True)
            assert first["status"] == "done"
            again = client.put_bytes(dump)
            assert again["duplicate"] is True
            assert again["status"] == "duplicate"
            assert again["run_id"] == first["run_id"]
            # the duplicate never reached the spool or the queue (the
            # first upload's spool file is removed once its job is done)
            assert wait_for(lambda: spool_files(server, "default") == [])
            assert len(client.runs()) == 1
        found = server.registry.find("service.uploads.duplicate")
        assert found and found[0]["value"] == 1


def test_duplicate_by_explicit_run_id(tmp_path):
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            one = profile_dump_bytes({"a": lambda n: n})
            other = profile_dump_bytes({"b": lambda n: n * n})
            client.put_bytes(one, run_id="same", wait=True)
            reply = client.put_bytes(other, run_id="same")
            assert reply["duplicate"] is True
            assert len(client.runs()) == 1


def test_malformed_envelope_fails_job_with_recorded_error(tmp_path):
    payload = b'{"schema": "bogus", "metrics": {}}\n'
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            reply = client.put_bytes(payload, wait=True)
            assert reply["status"] == "failed"
            assert "repro-bench/1" in reply["error"]
            # the failed upload added no run, so it created no store
            with pytest.raises(ServiceError, match="no such tenant 'default'"):
                client.runs()
        assert wait_for(lambda: spool_files(server, "default") == [])
        found = server.registry.find("service.jobs.failed")
        assert found and found[0]["value"] == 1


@pytest.mark.parametrize("op", ["put", "put_stream"])
def test_failed_upload_creates_no_tenant(tmp_path, op):
    """Only an upload that adds a run creates its tenant's store, and a
    failed job's error names the job, not the server's spool path."""
    payload = (b'{"schema": "bogus", "metrics": {}}\n' if op == "put"
               else b"not a profile dump\n")
    root = str(tmp_path / "tenants")
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="bad") as client:
            reply = upload(client, op, payload, wait=True)
            assert reply["status"] == "failed"
            assert root not in reply["error"]
            if op == "put":
                assert reply["error"] == (f"ValueError: job {reply['job']}: "
                                          f"not a repro-bench/1 envelope")
            assert client.tenants() == []
            assert not os.path.exists(
                os.path.join(server.tenants.path("bad"), "history.jsonl"))
            reply = upload(client, op, profile_dump_bytes({"a": lambda n: n}),
                           wait=True)
            assert reply["status"] == "done"
            assert client.tenants() == ["bad"]


def test_upload_holding_infinity_fails_and_creates_no_tenant(tmp_path):
    """An envelope whose metric the store cannot keep fails its job with
    the metric named, before the tenant's store exists."""
    payload = (b'{"schema": "repro-bench/1", "run_id": "b1", '
               b'"metrics": {"wall_s": Infinity}}\n')
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            reply = client.put_bytes(payload, wait=True)
            assert reply["status"] == "failed"
            assert reply["error"] == ("ValueError: run 'b1': metric 'wall_s' "
                                      "is not finite: inf")
            assert client.tenants() == []
            assert not os.path.exists(
                os.path.join(server.tenants.path("web"), "history.jsonl"))


def test_a_tenant_an_older_version_poisoned_serves_again(tmp_path):
    """A log line holding Infinity (written before runs were checked)
    is skipped at open: the tenant reads and ingests again."""
    dump = profile_dump_bytes({"a": lambda n: n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            assert client.put_bytes(dump, wait=True)["status"] == "done"
        path = os.path.join(server.tenants.path("web"), "history.jsonl")
    with open(path, encoding="utf-8") as stream:
        meta, run = stream.read().splitlines()
    poisoned = dict(json.loads(run), run_id="poisoned", scale=float("inf"))
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(poisoned) + "\n")
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            assert len(client.runs()) == 1
            reply = client.put_bytes(profile_dump_bytes({"b": lambda n: n}),
                                     wait=True)
            assert reply["status"] == "done"
            assert len(client.runs()) == 2


def test_a_tenant_with_a_log_line_that_is_no_run_serves_again(tmp_path):
    """Log lines of valid JSON that are no run object are skipped at
    open: the tenant reads and ingests again."""
    dump = profile_dump_bytes({"a": lambda n: n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            assert client.put_bytes(dump, wait=True)["status"] == "done"
            before = client.runs()
        path = os.path.join(server.tenants.path("web"), "history.jsonl")
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('[1]\n"x"\n{"type": "run"}\n'
                     '{"type": "run", "run_id": "r", "curves": 5}\n')
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            assert client.runs() == before
            client.alerts()
            reply = client.put_bytes(profile_dump_bytes({"b": lambda n: n}),
                                     wait=True)
            assert reply["status"] == "done"
            assert len(client.runs()) == 2


def test_empty_payload_rejected(tmp_path):
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ServiceError, match="empty upload"):
                client.put_bytes(b"")


def test_unknown_op_keeps_connection_alive(tmp_path):
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client.request({"op": "nope"})
            assert client.ping()["ok"] is True


def test_invalid_tenant_rejected(tmp_path):
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port,
                           tenant="../escape") as client:
            with pytest.raises(ServiceError, match="invalid tenant"):
                client.put_bytes(b"data")
        assert not (tmp_path / "escape").exists()


def test_garbage_frame_gets_error_reply_and_close(tmp_path):
    with running_server(tmp_path) as server:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=5.0)
        try:
            sock.sendall(b"XXXXJUNKJUNKJUNKJUNK")
            header, _payload = recv_frame(sock)
            assert header["ok"] is False
            assert "magic" in header["error"]
            # the server hangs up: clean EOF or a reset, nothing more
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass
        finally:
            sock.close()


def upload(client, op, data, **fields):
    """One ``put`` or ``put_stream`` of ``data`` (its own stream per upload)."""
    if op == "put":
        header = {"op": "put", "tenant": client.tenant, **fields}
    else:
        stream = {"id": hashlib.sha256(data).hexdigest()[:12]}
        header = {"op": "put_stream", "tenant": client.tenant,
                  "stream": {**stream, **fields.pop("stream", {})}, **fields}
    return client.request(header, data)[0]


@pytest.mark.parametrize("op", ["put", "put_stream"])
def test_queue_full_pushes_back(tmp_path, op):
    release = threading.Event()
    with running_server(tmp_path, workers=1, capacity=1) as server:
        original = server.queue.handler

        def blocking(job):
            release.wait(10.0)
            return original(job)

        server.queue.handler = blocking
        try:
            with ServiceClient(server.host, server.port) as client:
                upload(client, op, profile_dump_bytes({"a": lambda n: n}))
                assert wait_for(lambda: server.queue.in_flight() == 1
                                and server.queue.depth() == 0)
                upload(client, op, profile_dump_bytes({"b": lambda n: n}))
                with pytest.raises(ServiceError) as raised:
                    upload(client, op, profile_dump_bytes({"c": lambda n: n}))
                assert raised.value.header["status"] == "rejected"
                assert raised.value.header["reason"] == "queue_full"
                # the running and the queued upload keep their spool
                # files; the rejected one left none behind
                assert len(spool_files(server, "default")) == 2
        finally:
            release.set()
        found = server.registry.find("service.uploads.rejected",
                                     reason="queue_full")
        assert found and found[0]["value"] == 1
        assert wait_for(lambda: spool_files(server, "default") == [])


def holding_worker(server):
    """Hold the server's one worker in its handler until the returned
    ``release`` is set; ``held`` is set once it holds a job."""
    held, release = threading.Event(), threading.Event()
    original = server.queue.handler

    def holding(job):
        held.set()
        release.wait(10.0)
        return original(job)

    server.queue.handler = holding
    return held, release


@pytest.mark.parametrize("op", ["put", "put_stream"])
def test_a_waited_upload_is_never_spooled(tmp_path, op):
    """An upload whose reply waits for its job's end is answered only
    after its ingest: its job carries its bytes, so nothing lands under
    the tenant's spool, and the job drops the bytes once it is done."""
    replies = []
    with running_server(tmp_path, workers=1) as server:
        held, release = holding_worker(server)
        spool = os.path.join(server.tenants.path("web"), "spool")

        def put_and_wait():
            with ServiceClient(server.host, server.port, tenant="web") as client:
                replies.append(upload(client, op, profile_dump_bytes(
                    {"a": lambda n: n}), wait=True))

        waiter = threading.Thread(target=put_and_wait)
        waiter.start()
        try:
            assert held.wait(5.0)
            assert not os.path.exists(spool)
        finally:
            release.set()
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert replies[0]["status"] == "done"
        assert not os.path.exists(spool)
        job = server.queue.status(replies[0]["job"])
        assert job.path == "" and job.payload is None


@pytest.mark.parametrize("fields", [{}, {"wait": True, "wait_timeout": 0.05}],
                         ids=["no-wait", "wait_timeout"])
@pytest.mark.parametrize("op", ["put", "put_stream"])
def test_an_upload_answered_before_its_ingest_is_spooled(tmp_path, op, fields):
    """An upload whose reply may come before its ingest ends is spooled
    before it is acknowledged, and its file goes when the job ends."""
    with running_server(tmp_path, workers=1) as server:
        held, release = holding_worker(server)
        try:
            with ServiceClient(server.host, server.port, tenant="web") as client:
                reply = upload(client, op, profile_dump_bytes({"a": lambda n: n}),
                               **fields)
                assert reply["status"] in ("queued", "running")
                assert held.wait(5.0)
                assert len(spool_files(server, "web")) == 1
                release.set()
                assert wait_for(lambda: client.job(reply["job"])["status"] == "done")
        finally:
            release.set()
        assert wait_for(lambda: spool_files(server, "web") == [])


@pytest.mark.parametrize("op,fields,name", [
    ("put", {"scale": "abc"}, "scale"),
    ("put", {"wait": True, "wait_timeout": "soon"}, "wait_timeout"),
    ("put_stream", {"scale": "abc"}, "scale"),
    ("put_stream", {"wait": True, "wait_timeout": "soon"}, "wait_timeout"),
    ("put_stream", {"stream": {"seq": "x"}}, "stream.seq"),
    ("put_stream", {"stream": {"lag_ms": [1]}}, "stream.lag_ms"),
    ("put", {"scale": "inf"}, "scale"),
    ("put", {"scale": "nan"}, "scale"),
    ("put", {"wait": True, "wait_timeout": "inf"}, "wait_timeout"),
    ("put_stream", {"scale": "-inf"}, "scale"),
    ("put_stream", {"stream": {"lag_ms": "inf"}}, "stream.lag_ms"),
    ("put_stream", {"stream": {"events_per_s": "nan"}}, "stream.events_per_s"),
    ("put_stream", {"stream": {"seq": 1e400}}, "stream.seq"),
    ("alerts", {"tolerance": "abc"}, "tolerance"),
    ("alerts", {"tolerance": 0.5}, "tolerance"),
    ("report", {"limit": "x"}, "limit"),
    ("report", {"limit": 0}, "limit"),
    ("report", {"format": "xml"}, "format"),
], ids=["put-scale", "put-wait_timeout", "put_stream-scale",
        "put_stream-wait_timeout", "put_stream-stream.seq",
        "put_stream-stream.lag_ms", "put-scale-inf", "put-scale-nan",
        "put-wait_timeout-inf", "put_stream-scale-inf",
        "put_stream-stream.lag_ms-inf", "put_stream-stream.events_per_s-nan",
        "put_stream-stream.seq-inf", "alerts-tolerance-abc",
        "alerts-tolerance-0.5", "report-limit-x", "report-limit-0",
        "report-format"])
def test_bad_header_field_is_rejected_before_the_spool(tmp_path, op, fields,
                                                      name):
    """An upload field is checked before the spool, a read field before
    the store lookup (the tenant has no store, yet the reply names the
    field); only the upload counts as a rejected upload."""
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            with pytest.raises(ServiceError,
                               match=f"^bad header field {name}: "):
                if op in ("put", "put_stream"):
                    upload(client, op, dump, **fields)
                else:
                    client.request({"op": op, "tenant": "web", **fields})
            # nothing touched the disk: no store, no spool file
            assert not os.path.exists(server.tenants.path("web"))
            with pytest.raises(ServiceError, match="no such tenant 'web'"):
                client.runs()
        found = server.registry.find("service.uploads.rejected",
                                     reason="bad_header")
        if op in ("put", "put_stream"):
            assert found and found[0]["value"] == 1
        else:
            assert found == []
        assert server.registry.find("service.uploads.accepted") == []


def test_stop_drains_queued_jobs(tmp_path):
    server = ProfileServer(str(tmp_path / "tenants"), workers=1)
    server.start()
    try:
        with ServiceClient(server.host, server.port) as client:
            for index in range(5):
                client.put_bytes(
                    profile_dump_bytes({f"r{index}": lambda n: n}),
                    run_id=f"run-{index}")
        assert server.stop() is True
    finally:
        server.stop()
    # every accepted upload was analysed before shutdown completed
    store = server.tenants.store("default")
    try:
        assert sorted(info.run_id for info in store.runs()) == [
            f"run-{index}" for index in range(5)]
    finally:
        store.close()


def test_timed_out_drain_fails_queued_jobs_and_frees_their_waiters(tmp_path):
    """A drain that times out fails every job still queued without
    running it: its spool file goes and a ``wait`` put gets its answer."""
    server = ProfileServer(str(tmp_path / "tenants"), workers=1,
                           drain_timeout=0.2)
    original = server.queue.handler

    def slow(job):
        time.sleep(1.0)
        return original(job)

    server.queue.handler = slow
    server.start()
    before = set(threading.enumerate())
    replies = []

    def put_and_wait():
        with ServiceClient(server.host, server.port) as client:
            replies.append(client.put_bytes(
                profile_dump_bytes({"c": lambda n: n}), run_id="run-2",
                wait=True))

    try:
        with ServiceClient(server.host, server.port) as client:
            for index in range(2):
                client.put_bytes(profile_dump_bytes({f"r{index}": lambda n: n}),
                                 run_id=f"run-{index}")
        waiter = threading.Thread(target=put_and_wait)
        waiter.start()
        assert wait_for(lambda: server.queue.depth() == 2)
        assert server.stop() is False
    finally:
        server.stop()
    waiter.join(5.0)
    abandoned = [server.queue.status(f"j00000{index}") for index in (2, 3)]
    assert [job.status for job in abandoned] == [FAILED, FAILED]
    assert all(job.started_at is None and "abandoned at shutdown" in job.error
               for job in abandoned)
    assert server.queue.abandoned == 2
    assert spool_files(server, "default") == []
    # the server thread that served the waiting put is gone too
    assert wait_for(lambda: not [
        thread for thread in set(threading.enumerate()) - before
        if thread.name.startswith("service-client-")])
    assert not waiter.is_alive()
    if replies:         # the socket may close before the reply is sent
        assert replies[0]["status"] == FAILED
    found = server.registry.find("service.jobs.failed")
    assert found and found[0]["value"] == 2


def test_shutdown_op_stops_accepting_connections(tmp_path):
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port) as client:
            reply = client.shutdown()
            assert reply["ok"] is True

        def refused():
            try:
                sock = socket.create_connection(
                    (server.host, server.port), timeout=0.2)
            except OSError:
                return True
            sock.close()
            return False

        assert wait_for(refused)


def test_sigterm_drains_in_flight_jobs(tmp_path):
    old_term = signal.getsignal(signal.SIGTERM)
    old_int = signal.getsignal(signal.SIGINT)
    server = ProfileServer(str(tmp_path / "tenants"), workers=1)
    server.start()
    try:
        server.install_signal_handlers()
        original = server.queue.handler

        def slow(job):
            time.sleep(0.2)
            return original(job)

        server.queue.handler = slow
        with ServiceClient(server.host, server.port) as client:
            client.put_bytes(profile_dump_bytes({"a": lambda n: n}),
                             run_id="inflight")
        assert wait_for(lambda: server.queue.in_flight() == 1)
        threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGTERM)).start()
        assert server.serve_forever() is True       # drained, not dropped
        store = server.tenants.store("default")
        try:
            assert store.has_run("inflight")
        finally:
            store.close()
    finally:
        server.stop()
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)


def test_http_fallback_serves_dashboards(tmp_path):
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            client.put_bytes(dump, run_id="run-1", wait=True)
        base = f"http://{server.host}:{server.port}"
        index = urllib.request.urlopen(f"{base}/").read().decode()
        assert "web" in index
        stats = json.loads(urllib.request.urlopen(f"{base}/stats").read())
        assert stats["tenants"] == ["web"]
        runs = json.loads(
            urllib.request.urlopen(f"{base}/web/runs").read())
        assert [run["run_id"] for run in runs] == ["run-1"]
        html = urllib.request.urlopen(f"{base}/web").read().decode()
        assert "web" in html and html.lstrip().startswith("<!")
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(f"{base}/No-Such-Tenant")
        assert raised.value.code == 404
