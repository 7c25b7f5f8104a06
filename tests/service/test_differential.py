"""The acceptance criterion: online ingestion == offline ingestion.

Profiles uploaded through the server must produce *byte-identical*
observatory rows — and identical drift alerts — to the same files
ingested with ``repro observe ingest``, under 100 concurrent clients
with zero dropped and zero duplicated runs.  Every other file kind
(envelopes, telemetry logs, v2 traces) uploads to the same rows an
offline ingest writes, whatever the file is named.
"""

import io
import json
import os
import shutil
import threading

from repro import observatory, service, telemetry
from repro.cli import main as cli_main
from repro.farm import BinaryTraceWriter
from repro.observatory import HISTORY_FILENAME, ObservatoryStore, detect_drift
from repro.reporting.tracing import assemble_traces, load_trace_spans
from repro.service import ServiceClient, build_envelope, slap
from repro.workloads import benchmark

from .util import profile_dump_bytes, running_server

CLIENTS = 100
BASE_MTIME = 1_700_000_000


def write_fleet(tmp_path, count=CLIENTS, degrade_from=None):
    """``count`` distinct dump files with strictly increasing mtimes.

    ``victim`` turns quadratic from index ``degrade_from`` on (default:
    the last fifth of the runs), so drift alerts have something to say.
    """
    if degrade_from is None:
        degrade_from = count - max(1, count // 5)
    tmp_path.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        quadratic = index >= degrade_from
        dump = profile_dump_bytes({
            "stable": lambda n: 10 * n + index,       # distinct bytes per run
            "victim": (lambda n: n * n) if quadratic else (lambda n: 3 * n),
        })
        path = tmp_path / f"run{index:03d}.prof"
        path.write_bytes(dump)
        os.utime(path, (BASE_MTIME + index, BASE_MTIME + index))
        paths.append(str(path))
    return paths


def history_rows(root):
    """Sorted data rows of a store's ``history.jsonl`` (meta line dropped)."""
    with open(os.path.join(root, HISTORY_FILENAME), "rb") as stream:
        lines = stream.read().splitlines()
    return sorted(line for line in lines if b'"type": "run"' in line)


def test_server_matches_observe_ingest_under_100_clients(tmp_path):
    paths = write_fleet(tmp_path / "dumps")

    # offline: the one-shot CLI, one process-wide store
    offline_root = str(tmp_path / "offline")
    out = io.StringIO()
    code = cli_main(["observe", "ingest", *paths, "--store", offline_root],
                    out=out)
    assert code == 0, out.getvalue()

    # online: one upload per concurrent client, against one tenant —
    # with tracing ON, so the byte-identity assertions below also prove
    # that trace contexts never leak into the profile store
    replies = []
    failures = []
    tele_root = str(tmp_path / "tele")
    with telemetry.session(tele_root):
        with running_server(tmp_path, workers=4,
                            capacity=2 * CLIENTS) as server:
            barrier = threading.Barrier(CLIENTS)

            def upload(path):
                try:
                    with ServiceClient(server.host, server.port,
                                       tenant="fleet") as client:
                        barrier.wait(timeout=30.0)
                        replies.append(client.put_file(path, wait=True))
                except Exception as error:  # noqa: BLE001 - for the assert
                    failures.append(f"{path}: {error}")

            threads = [threading.Thread(target=upload, args=(path,))
                       for path in paths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            online_root = server.tenants.path("fleet")

    assert failures == []
    assert len(replies) == CLIENTS                       # zero dropped
    assert all(reply["status"] == "done" for reply in replies)
    assert not any(reply["duplicate"] for reply in replies)
    assert len({reply["run_id"] for reply in replies}) == CLIENTS

    # byte-identical rows (order differs under concurrency; content not)
    offline = history_rows(offline_root)
    online = history_rows(online_root)
    assert len(offline) == CLIENTS
    assert online == offline

    # and identical alert feeds
    with ObservatoryStore(offline_root) as store:
        offline_alerts = detect_drift(store)
    with ObservatoryStore(online_root) as store:
        online_alerts = detect_drift(store)
    assert offline_alerts == online_alerts
    assert any(alert.routine == "victim" for alert in offline_alerts)

    # every upload left one complete cross-layer trace in the log
    traces = assemble_traces(load_trace_spans([tele_root]))
    puts = [trace for trace in traces.values()
            if any(span.name == "client.put" for span in trace.spans)]
    assert len(puts) == CLIENTS
    for trace in puts:
        assert trace.is_single_tree()
        assert len(trace.spans) >= 6
        names = {span.name for span in trace.spans}
        assert {"client.put", "server.request", "server.queue_wait",
                "server.execute", "server.ingest"} <= names


def write_kinds(directory):
    """One file of each kind that is not a dump, none named for its kind."""
    directory.mkdir(parents=True)
    envelope = {"schema": "repro-bench/1", "run_id": "bench-pretty", "git_sha": "e1",
                "timestamp": "2026-08-01T00:00:00+00:00", "bench": "pretty",
                "scale": 1.0, "metrics": {"wall_s": 1.5, "gate": {"ratio": 0.9}}}
    with open(directory / "pretty.json", "w") as stream:
        json.dump(envelope, stream, indent=2)            # as save_result writes
    (directory / "envelope.txt").write_text(json.dumps(
        {**envelope, "run_id": "bench-line", "bench": "line"}) + "\n")
    with telemetry.session(str(directory / "tele")):
        with telemetry.span("record"):
            telemetry.counter("record.events").inc(42)
    shutil.copy(directory / "tele" / telemetry.TELEMETRY_FILENAME, directory / "spans.log")
    with open(directory / "trace.bin", "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=256)
        benchmark("376.kdtree").run(tools=writer, threads=2, scale=0.3)
        writer.close()
    return [str(directory / name)
            for name in ("pretty.json", "envelope.txt", "spans.log", "trace.bin")]


def test_every_file_kind_uploads_as_it_ingests_offline(tmp_path):
    paths = write_kinds(tmp_path / "kinds")
    offline_root = str(tmp_path / "offline")
    out = io.StringIO()
    assert cli_main(["observe", "ingest", *paths, "--store", offline_root], out=out) == 0, \
        out.getvalue()
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="kinds") as client:
            for path in paths:
                reply = client.put_file(path, wait=True)
                assert reply["status"] == "done", (path, reply)
        online_root = server.tenants.path("kinds")
    offline = history_rows(offline_root)
    assert len(offline) == len(paths)
    assert {json.loads(row)["source"] for row in offline} == {
        "bench:pretty", "bench:line", "telemetry", "trace"}
    assert history_rows(online_root) == offline


def test_put_file_stamps_the_timestamp_offline_ingest_gives():
    assert service.mtime_iso is observatory.mtime_iso


def test_a_crlf_dump_builds_alike_through_put_and_put_stream(tmp_path):
    dump = profile_dump_bytes({"lin": lambda n: 3 * n, "quad": lambda n: n * n})
    crlf = dump.replace(b"\n", b"\r\n")
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="crlf") as client:
            put = client.put_bytes(crlf, run_id="put", wait=True)
            streamed, _ = client.request({
                "op": "put_stream", "tenant": "crlf", "wait": True,
                "stream": {"id": "s1", "seq": 1, "timestamp": "2026-08-01T00:00:00"},
            }, crlf)
        root = server.tenants.path("crlf")
    assert put["status"] == "done", put
    assert streamed["status"] == "done", streamed
    rows = {row["run_id"]: row for row in map(json.loads, history_rows(root))}
    assert rows["stream-s1"]["curves"] == rows["put"]["curves"] != []
    assert rows["stream-s1"]["points"] == rows["put"]["points"]


def test_slap_swarm_counts_and_envelope(tmp_path):
    with running_server(tmp_path, workers=4, capacity=512) as server:
        report = slap(server.host, server.port, tenant="swarm",
                      clients=8, uploads_per_client=4,
                      duplicate_ratio=0.5, seed=7, wait=True)
        store_root = server.tenants.path("swarm")

    assert report.errors == 0
    assert report.rejected == 0
    assert report.accepted + report.duplicates == report.uploads
    assert report.duplicates > 0        # ratio 0.5 over 24 eligible sends
    assert len(report.latencies_ms) == report.uploads
    assert report.p99_ms >= report.p50_ms > 0.0

    # the store holds exactly the accepted (unique) runs: no duplicates
    with ObservatoryStore(store_root) as store:
        assert len(store) == report.accepted

    rendered = report.render()
    assert "accepted" in rendered and "p99" in rendered

    # the swarm pulled the server's SLO state for its tenant post-run
    assert report.slo is not None
    assert report.slo["ingests"] >= report.accepted
    assert report.slo["error_rate"] == 0.0
    assert "server slo burn" in rendered

    envelope = build_envelope(report, run_id="slap-test", git_sha="sha")
    assert envelope["schema"] == "repro-bench/1"
    assert envelope["bench"] == "service_slap"
    assert envelope["metrics"]["accepted"] == report.accepted
    assert envelope["metrics"]["slo"]["error_rate"] == 0.0
    gate = envelope["metrics"]["gate"]
    assert gate["latency_ms"]["put_p99"] == report.p99_ms
    assert gate["throughput"]["uploads_per_s"] == report.uploads_per_second
    assert gate["slo"] == {"error_burn": 0.0, "shed_burn": 0.0}
    assert gate["ratios"] == {}
