"""CLI surface: ``repro serve`` (subprocess), ``repro slap``, stdin ingest."""

import io
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.observatory import ObservatoryStore
from repro.service import ServiceClient

from .util import profile_dump_bytes, running_server

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class PipedStdin:
    """Just enough of ``sys.stdin`` for ``observe ingest -``."""

    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)


def test_observe_ingest_from_stdin(tmp_path, monkeypatch):
    store_dir = str(tmp_path / "obs")
    dump = profile_dump_bytes({"f": lambda n: 7 * n})

    monkeypatch.setattr(sys, "stdin", PipedStdin(dump))
    code, out = run_cli("observe", "ingest", "-", "--store", store_dir,
                        "--run-id", "piped")
    assert code == 0, out
    assert "-: ingested as piped" in out

    # without --run-id the digest of the piped bytes keys idempotency
    monkeypatch.setattr(sys, "stdin", PipedStdin(dump))
    code, out = run_cli("observe", "ingest", "-", "--store", store_dir)
    assert code == 0, out
    monkeypatch.setattr(sys, "stdin", PipedStdin(dump))
    code, out = run_cli("observe", "ingest", "-", "--store", store_dir)
    assert code == 0, out
    assert "already known (skipped)" in out

    with ObservatoryStore(store_dir) as store:
        assert len(store) == 2
        assert store.has_run("piped")


def test_observe_ingest_rejects_double_stdin(tmp_path):
    code, out = run_cli("observe", "ingest", "-", "-",
                        "--store", str(tmp_path / "obs"))
    assert code == 2
    assert "at most once" in out


def test_slap_cli_writes_envelope(tmp_path):
    envelope_path = str(tmp_path / "slap.json")
    with running_server(tmp_path, workers=2, capacity=256) as server:
        code, out = run_cli(
            "slap", "--host", server.host, "--port", str(server.port),
            "--clients", "4", "--uploads", "3", "--duplicate-ratio", "0",
            "--wait", "--json", envelope_path)
    assert code == 0, out
    assert "slap: 4 client(s) x 3 upload(s)" in out
    assert "wrote repro-bench/1 envelope" in out
    with open(envelope_path, "r", encoding="utf-8") as stream:
        envelope = json.load(stream)
    assert envelope["schema"] == "repro-bench/1"
    assert envelope["bench"] == "service_slap"
    assert envelope["metrics"]["accepted"] == 12
    assert envelope["metrics"]["gate"]["latency_ms"]["put_p99"] > 0


def test_slap_cli_unreachable_server_fails(tmp_path):
    # connect failures are tallied per client; a swarm with zero
    # successful uploads is a failed run (exit 1)
    code, out = run_cli("slap", "--port", "1", "--clients", "1",
                        "--uploads", "1")
    assert code == 1
    assert "errors     1" in out


def test_serve_subprocess_sigterm_drains(tmp_path):
    """Boot the real server process, upload, SIGTERM mid-flight, exit 0."""
    root = str(tmp_path / "tenants")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--workers", "1", "--drain-timeout", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        banner = process.stdout.readline()
        assert banner.startswith("serving on "), banner
        port = int(banner.split()[2].rsplit(":", 1)[1])

        with ServiceClient("127.0.0.1", port) as client:
            assert client.ping()["ok"] is True
            client.put_bytes(profile_dump_bytes({"a": lambda n: n}),
                             run_id="first", wait=True)
            # leave one job in flight, then ask for a graceful stop
            client.put_bytes(profile_dump_bytes({"b": lambda n: n * n}),
                             run_id="second")
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30.0)
        assert process.returncode == 0, out
        assert "shutdown: drained" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    # the in-flight upload was analysed, not dropped
    with ObservatoryStore(os.path.join(root, "default")) as store:
        assert store.has_run("first")
        assert store.has_run("second")


@pytest.mark.parametrize("flag", [("--clients", "0"), ("--uploads", "0")])
def test_slap_cli_validates_counts(flag):
    code, out = run_cli("slap", "--port", "9", *flag)
    assert code == 2
    assert "must be >= 1" in out


@pytest.mark.parametrize("flag", [("--retries", "1"), ("--job-timeout", "5")])
def test_serve_has_no_retry_or_expiry_flags(flag, capsys):
    """Each job runs once and never expires: the knobs are gone.  Only
    the parser runs, so an accepted flag fails the test, not hangs it."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["serve", "--root", "tenants", *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
