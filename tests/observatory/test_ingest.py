"""In-memory ingestion: ``record_from_bytes`` builds what ``record_from_path``
builds from a file holding the same bytes, whatever the file's name, and
fails the way it fails."""

import io
import json
import os

import pytest

from repro import telemetry
from repro.farm import BinaryTraceWriter, save_profile
from repro.observatory import record_from_bytes, record_from_path, record_from_stream_dump
from repro.workloads import benchmark

from .util import db_from

STAMP = "2026-08-01T00:00:00+00:00"


def dump():
    stream = io.StringIO()
    save_profile(db_from({"lin": lambda n: 3 * n, "quad": lambda n: n * n}), stream)
    return stream.getvalue().encode("utf-8")


def envelope(indent=None, **fields):
    return (json.dumps({"schema": "repro-bench/1", "bench": "gate",
                        "metrics": {"wall_s": 1.5, "gate": {"ratio": 0.9}}, **fields},
                       indent=indent)
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
    # as ``benchmarks/conftest.py::save_result`` and ``repro slap --json`` write
    "pretty-envelope": lambda tmp_path: envelope(indent=2, run_id="bench-2", scale=1.0),
    "telemetry-log": telemetry_log,
    "v2-trace": lambda tmp_path: v2_trace(),
}


def file_of(tmp_path, data, name="artefact"):
    """A file holding ``data``: by default named as the service names its
    spool files, with no suffix, so nothing but the bytes tells the kind."""
    path = tmp_path / name
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
    assert from_bytes.timestamp == ("" if "envelope" in kind else "-")


#: names that once decided a file's kind, or named another kind
NAMES = ("artefact.json", "artefact.jsonl", "artefact.profile", "artefact.rpt2",
         "artefact.txt", "telemetry.jsonl")


@pytest.mark.parametrize("kind", sorted(ARTEFACTS))
def test_a_file_name_never_decides_the_kind(tmp_path, kind):
    data = ARTEFACTS[kind](tmp_path)
    expected = record_from_bytes(data, timestamp=STAMP)
    for name in NAMES:
        assert record_from_path(file_of(tmp_path, data, name), timestamp=STAMP) == expected


def test_a_pretty_printed_envelope_builds_from_bytes():
    record = record_from_bytes(envelope(indent=2, run_id="bench-2", git_sha="e2"))
    assert (record.run_id, record.git_sha, record.source) == ("bench-2", "e2", "bench:gate")
    assert record.metrics == {"wall_s": 1.5, "gate.ratio": 0.9}


def test_a_stream_dump_decodes_as_an_upload_does():
    """``put_stream``'s builder reads a CRLF dump as ``put``'s does."""
    meta = {"stream_id": "abc", "seq": 2, "timestamp": STAMP}
    expected = record_from_stream_dump(dump(), meta)
    assert record_from_stream_dump(dump().replace(b"\n", b"\r\n"), meta) == expected
    assert expected.curves == record_from_bytes(dump()).curves
    with pytest.raises(UnicodeDecodeError):
        record_from_stream_dump(b"repro-profile 1\nF lower_bound=\xff\n", meta)


def telemetry_lines(*records):
    return "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")


GOOD_TELEMETRY = (
    {"type": "meta", "version": 1},
    {"type": "span", "name": "record", "wall": 0.5, "cpu": 0.25, "start": 0.0},
    {"type": "metrics", "metrics": [
        {"kind": "counter", "name": "record.events", "labels": {}, "value": 42}]},
)


@pytest.mark.parametrize("bad", [
    {"type": "span"},
    {"type": "span", "name": "x", "wall": "a"},
    {"type": "span", "name": "x", "cpu": 10 ** 400},
    {"type": "metrics", "metrics": [1]},
    {"type": "metrics", "metrics": {"a": 1}},
    {"type": "metrics", "metrics": [{"kind": "counter", "name": "n", "value": 10 ** 400}]},
], ids=["span-without-name", "text-wall", "huge-cpu", "metric-not-object",
        "metrics-not-list", "huge-counter"])
def test_a_telemetry_record_of_the_wrong_shape_is_skipped(bad):
    """The shared line parser keeps only records of the shape their
    readers use, so a bad one costs its own line, not the log."""
    expected = record_from_bytes(telemetry_lines(*GOOD_TELEMETRY), run_id="t")
    assert expected.metrics["counter.record.events"] == 42.0
    # last: a ``metrics`` snapshot replaces any before it
    assert record_from_bytes(telemetry_lines(*GOOD_TELEMETRY, bad), run_id="t") == expected


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
    b"[1]\n",
    b'{"schema": "repro-bench/1", "run_id": "b", "scale": [1]}\n',
    b'{"schema": "repro-bench/1", "metrics": ' + b"[" * 5000 + b"\n",
    b"[" * 5000 + b"\n",
    b'{"type": "metrics", "metrics": [{"kind": "counter", "name": "record.events", '
    b'"labels": {}, "value": Infinity}]}\n',
    b"repro-profile 1\nP f\t1\t0\t0\n"
    + b"".join(b"S %d 1 1 1%s 1 1\n" % (size, b"0" * 400) for size in (4, 8, 16)),
], ids=["empty", "junk", "non-utf8", "bad-dump", "non-utf8-dump", "bogus-envelope",
        "non-utf8-envelope", "bad-json", "infinite-metric", "torn-trace", "json-list",
        "list-scale", "deep-envelope", "deep-list", "infinite-counter", "huge-cost-dump"])
def test_bytes_fail_as_a_file_of_them_fails(tmp_path, data):
    path = file_of(tmp_path, data)
    with pytest.raises(ValueError) as from_path:
        record_from_path(path)
    with pytest.raises(ValueError) as from_bytes:
        record_from_bytes(data, name="upload")
    assert type(from_bytes.value) is type(from_path.value)
    # where the path's reader names the file, the bytes' names ``name``
    assert str(from_bytes.value) == str(from_path.value).replace(path, "upload")
