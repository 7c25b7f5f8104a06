"""The HTTP fallback: routes, verb handling, /metrics, /slo."""

import json
import os
import socket
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceError
from tools.check_metrics import check_metrics_text

from .util import drifting_dumps, profile_dump_bytes, running_server


def raw_http(server, method, path="/"):
    """One raw request, returned as (status, headers, body)."""
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    try:
        sock.sendall(f"{method} {path} HTTP/1.1\r\n"
                     f"Host: test\r\n\r\n".encode("utf-8"))
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("utf-8", "replace").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


def test_index_stats_tenant_routes(tmp_path):
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            client.put_bytes(dump, run_id="run-1", wait=True)
        base = f"http://{server.host}:{server.port}"
        index = urllib.request.urlopen(f"{base}/").read().decode()
        assert "web" in index and "/metrics" in index and "/slo" in index
        assert "SLO burn" in index          # the per-tenant burn table
        stats = json.loads(urllib.request.urlopen(f"{base}/stats").read())
        assert stats["tenants"] == ["web"]
        assert "web" in stats["slo"]
        report = urllib.request.urlopen(f"{base}/web/report").read().decode()
        assert "alpha" in report
        alerts = json.loads(urllib.request.urlopen(f"{base}/web/alerts").read())
        assert isinstance(alerts, list)


def test_unknown_tenant_and_view_are_404(tmp_path):
    with running_server(tmp_path) as server:
        base = f"http://{server.host}:{server.port}"
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(f"{base}/No-Such-Tenant")
        assert raised.value.code == 404
        # a valid slug with no store: what browsers ask for on their own
        for path in ("/favicon.ico", "/favicon.ico/runs"):
            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(f"{base}{path}")
            assert raised.value.code == 404
        assert not os.path.exists(server.tenants.path("favicon.ico"))
        assert server.tenants.tenants() == []
        with ServiceClient(server.host, server.port, tenant="web") as client:
            client.put_bytes(profile_dump_bytes({"alpha": lambda n: n}),
                             wait=True)     # an upload creates the store
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(f"{base}/web/nonsense")
        assert raised.value.code == 404


def tree(root):
    """Every path under ``root`` but spool files (their worker removes
    them after it answers the upload), relative and sorted."""
    return sorted(str(path.relative_to(root)) for path in root.rglob("*")
                  if path.parent.name != "spool")


@pytest.mark.parametrize("op", ["runs", "alerts", "report"])
def test_read_of_a_tenant_without_a_store_creates_nothing(tmp_path, op):
    """The wire op answers ``no such tenant`` and its HTTP routes 404;
    neither creates a store, so the tenant root is left as it was."""
    dump = profile_dump_bytes({"alpha": lambda n: n})
    with running_server(tmp_path) as server:
        root = tmp_path / "tenants"
        with ServiceClient(server.host, server.port, tenant="web") as client:
            client.put_bytes(dump, wait=True)
        before = tree(root)
        with ServiceClient(server.host, server.port, tenant="typo") as client:
            with pytest.raises(ServiceError, match="no such tenant 'typo'"):
                client.request({"op": op, "tenant": "typo"})
        for path in ("/typo", f"/typo/{op}"):
            status, _headers, body = raw_http(server, "GET", path)
            assert (status, body) == (404, b"no such tenant 'typo'")
        assert tree(root) == before
        assert server.tenants.tenants() == ["web"]


def test_http_views_are_their_wire_twins(tmp_path):
    """Each HTTP tenant view's body equals its wire op's, byte for byte:
    ``/<t>/runs`` and ``/<t>/alerts`` are the op's reply field as JSON,
    ``/<t>/report`` the ASCII report and ``/<t>`` the HTML one."""
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            for index, dump in enumerate(drifting_dumps()):
                client.put_bytes(dump, run_id=f"run-{index}", wait=True,
                                 timestamp=f"2026-08-0{index + 1}T00:00:00+00:00")
            runs = client.runs()
            alerts, _feed = client.alerts()
            wire = {
                "/web/runs": json.dumps(runs, sort_keys=True).encode("utf-8"),
                "/web/alerts": json.dumps(alerts, sort_keys=True).encode("utf-8"),
                "/web/report": client.request(
                    {"op": "report", "tenant": "web", "format": "ascii"})[1],
                "/web": client.request(
                    {"op": "report", "tenant": "web", "format": "html"})[1],
            }
        assert [alert["routine"] for alert in alerts] == ["victim"]
        for path, body in wire.items():
            status, _headers, http_body = raw_http(server, "GET", path)
            assert status == 200
            assert http_body == body, path


def test_served_reports_name_the_tenant_not_the_server_root(tmp_path):
    """Where ``repro observe report`` prints the store's path, a served
    report names its tenant: no report body reveals the server's root."""
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            for index, dump in enumerate(drifting_dumps()):
                client.put_bytes(dump, run_id=f"run-{index}", wait=True)
            bodies = {
                f"wire {fmt}": client.request(
                    {"op": "report", "tenant": "web", "format": fmt})[1]
                for fmt in ("ascii", "html")
            }
        for path in ("/web", "/web/report"):
            status, _headers, bodies[path] = raw_http(server, "GET", path)
            assert status == 200
    for view, body in bodies.items():
        assert str(tmp_path).encode("utf-8") not in body, view
    assert bodies["wire ascii"].split(b"\n", 1)[0].endswith(b"routine(s)  [web]")
    assert b"&middot; store: web</p>" in bodies["wire html"]


def test_bad_request_line_is_400(tmp_path):
    with running_server(tmp_path) as server:
        sock = socket.create_connection((server.host, server.port),
                                        timeout=10.0)
        try:
            sock.sendall(b"GET \r\n\r\n")    # verb but no target
            data = sock.recv(65536)
        finally:
            sock.close()
        assert data.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"


def test_head_returns_headers_without_body(tmp_path):
    with running_server(tmp_path) as server:
        get_status, get_headers, get_body = raw_http(server, "GET", "/stats")
        status, headers, body = raw_http(server, "HEAD", "/stats")
        assert get_status == status == 200
        assert body == b""
        assert int(headers["content-length"]) == len(get_body)
        assert headers["content-type"] == get_headers["content-type"]


@pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "OPTIONS",
                                    "PATCH"])
def test_unsupported_verbs_answer_405(tmp_path, method):
    """The _peek_kind fix: non-GET verbs must not hit the wire decoder."""
    with running_server(tmp_path) as server:
        status, headers, _body = raw_http(server, method, "/stats")
        assert status == 405
        assert headers["allow"] == "GET, HEAD"


def test_metrics_route_renders_valid_prometheus(tmp_path):
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            client.put_bytes(dump, wait=True)
        status, headers, body = raw_http(server, "GET", "/metrics")
    assert status == 200
    assert headers["content-type"].startswith("text/plain; version=0.0.4")
    text = body.decode("utf-8")
    assert check_metrics_text(text) == []
    assert "service_requests_total" in text
    assert "service_ingest_ms_bucket" in text
    assert 'le="+Inf"' in text
    # the SLO snapshot is exported as gauges alongside the raw registry
    assert 'service_slo_latency_p99_ms{tenant="web"}' in text


def test_slo_route_reports_burn_state(tmp_path):
    dump = profile_dump_bytes({"alpha": lambda n: 2 * n})
    with running_server(tmp_path) as server:
        with ServiceClient(server.host, server.port, tenant="web") as client:
            client.put_bytes(dump, wait=True)
        base = f"http://{server.host}:{server.port}"
        slo = json.loads(urllib.request.urlopen(f"{base}/slo").read())
    assert set(slo) == {"web"}
    state = slo["web"]
    assert state["ingests"] == 1
    assert state["failed"] == 0 and state["shed"] == 0
    assert state["latency_ms"]["p99"] >= state["latency_ms"]["p50"] > 0
    assert set(state["burn"]) == {"latency_p99", "error", "shed"}
