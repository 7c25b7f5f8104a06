"""In-memory ingestion: ``record_from_bytes`` builds what ``record_from_path``
builds from a file holding the same bytes, and fails the way it fails."""

import io
import json
import os

import pytest

from repro import telemetry
from repro.farm import BinaryTraceWriter, save_profile
from repro.observatory import artefact_suffix, record_from_bytes, record_from_path
from repro.workloads import benchmark

from .util import db_from

STAMP = "2026-08-01T00:00:00+00:00"


def dump():
    stream = io.StringIO()
    save_profile(db_from({"lin": lambda n: 3 * n, "quad": lambda n: n * n}), stream)
    return stream.getvalue().encode("utf-8")


def envelope(**fields):
    return (json.dumps({"schema": "repro-bench/1", "bench": "gate",
                        "metrics": {"wall_s": 1.5, "gate": {"ratio": 0.9}}, **fields})
            + "\n").encode("utf-8")


def telemetry_log(tmp_path):
    root = str(tmp_path / "tele")
    with telemetry.session(root):
        with telemetry.span("record"):
            telemetry.counter("record.events").inc(42)
    with open(os.path.join(root, telemetry.TELEMETRY_FILENAME), "rb") as stream:
        return stream.read()


def v2_trace():
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, chunk_events=256)
    benchmark("376.kdtree").run(tools=writer, threads=2, scale=0.3)
    writer.close()
    return buffer.getvalue()


ARTEFACTS = {
    "dump": lambda tmp_path: dump(),
    "crlf-dump": lambda tmp_path: dump().replace(b"\n", b"\r\n"),
    "envelope": lambda tmp_path: envelope(run_id="bench-1", git_sha="e1"),
    "envelope-without-run-id": lambda tmp_path: envelope(),
    "telemetry-log": telemetry_log,
    "v2-trace": lambda tmp_path: v2_trace(),
}


def file_of(tmp_path, data):
    """A file holding ``data``, named as the service names its spool files."""
    path = tmp_path / f"artefact{artefact_suffix(data)}"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("kind", sorted(ARTEFACTS))
def test_bytes_build_the_record_a_file_of_them_builds(tmp_path, kind):
    data = ARTEFACTS[kind](tmp_path)
    path = file_of(tmp_path, data)
    for fields in ({"timestamp": STAMP},
                   {"run_id": "given", "git_sha": "abc", "timestamp": STAMP, "scale": 2.0}):
        assert record_from_bytes(data, **fields) == record_from_path(path, **fields)
    # no timestamp given: a file's is its mtime, the bytes' is "-", an
    # envelope's is its own either way
    from_bytes = record_from_bytes(data)
    assert from_bytes == record_from_path(path)._replace(timestamp=from_bytes.timestamp)
    assert from_bytes.timestamp == ("" if kind.startswith("envelope") else "-")


@pytest.mark.parametrize("data", [
    b"",
    b"junk\n",
    b"\xff\xfe\x00junk",
    b"repro-profile 1\nP bad\n",
    b"repro-profile 1\r\nF lower_bound=\xff\n",
    b'{"schema": "bogus", "metrics": {}}\n',
    b'{"schema": "repro-bench/1", "x": "\xff"}\n',
    b'{"schema": "repro-bench/1"}\n{"extra": 1}\n',
    b'{"schema": "repro-bench/1", "run_id": "b", "metrics": {"wall_s": Infinity}}\n',
    b"RPTRACE2 torn",
], ids=["empty", "junk", "non-utf8", "bad-dump", "non-utf8-dump", "bogus-envelope",
        "non-utf8-envelope", "bad-json", "infinite-metric", "torn-trace"])
def test_bytes_fail_as_a_file_of_them_fails(tmp_path, data):
    path = file_of(tmp_path, data)
    with pytest.raises(Exception) as from_path:
        record_from_path(path)
    with pytest.raises(Exception) as from_bytes:
        record_from_bytes(data, name="upload")
    assert type(from_bytes.value) is type(from_path.value)
    # where the path's reader names the file, the bytes' names ``name``
    assert str(from_bytes.value) == str(from_path.value).replace(path, "upload")
