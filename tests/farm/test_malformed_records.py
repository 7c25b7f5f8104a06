"""Malformed v2 records end in a typed error, never a crash or a wrong profile.

Three cases patch one record of a recorded trace: an unknown kind
byte, a ``CALL`` routine id past the string table, or a routine id of
-1 (which plain list indexing would resolve to the last name).  Both
decoders and the flat kernel reject all three with
:class:`~repro.core.tracefile.MalformedRecord`.  A fourth shrinks the
first footer entry's ``payload_bytes`` by one, so the chunk index no
longer matches its event count; both decoders reject it with
:class:`~repro.farm.binfmt.BinaryTraceError`.  ``repro analyze`` turns
every case into one ``error:`` line and exit status 2 under every
metric: ``trms``, ``rms`` and ``both``.
"""

import io
import struct

import pytest

from repro.cli import main
from repro.core import EventKind, ProfileDatabase
from repro.core.flatkernel import FlatAnalyzer
from repro.core.tracefile import MalformedRecord
from repro.farm import BinaryTraceError, read_trace_meta
from repro.farm.binfmt import decode_chunk, decode_chunk_columns

from .util import record_benchmark_v2

RECORD = struct.Struct("<Bqq")
TRAILER = struct.Struct("<QQ8s")
CASES = ["unknown-kind", "id-past-table", "id-negative", "bad-payload-size"]
MESSAGES = {
    "unknown-kind": "unknown event kind 99",
    "id-past-table": "outside string table",
    "id-negative": "routine id -1",
    "bad-payload-size": "chunk payload size disagrees with event count",
}
ERRORS = {"bad-payload-size": BinaryTraceError}


def patch_first_call(path, case):
    """Rewrite the trace's first CALL record in place."""
    with open(path, "r+b") as stream:
        meta = read_trace_meta(stream)
        for chunk in meta.chunks:
            stream.seek(chunk.payload_offset)
            payload = stream.read(chunk.payload_bytes)
            for index, (kind, thread, arg) in enumerate(RECORD.iter_unpack(payload)):
                if kind != EventKind.CALL:
                    continue
                if case == "unknown-kind":
                    kind = 99
                elif case == "id-past-table":
                    arg = len(meta.names)
                else:
                    arg = -1
                stream.seek(chunk.payload_offset + index * RECORD.size)
                stream.write(RECORD.pack(kind, thread, arg))
                return
    raise AssertionError("trace has no CALL record")


def shrink_first_payload(path):
    """Claim one byte less for the first chunk in the footer's index."""
    with open(path, "r+b") as stream:
        meta = read_trace_meta(stream)
        stream.seek(-TRAILER.size, 2)
        footer_offset, _, _ = TRAILER.unpack(stream.read(TRAILER.size))
        # string table (count, then length-prefixed names), chunk count,
        # then the first entry: its u64 offset, then its payload bytes
        table = 4 + sum(4 + len(name.encode("utf-8")) for name in meta.names)
        stream.seek(footer_offset + table + 4 + 8)
        stream.write(struct.pack("<I", meta.chunks[0].payload_bytes - 1))
    with open(path, "rb") as stream:
        assert read_trace_meta(stream).chunks[0].payload_bytes == \
            meta.chunks[0].payload_bytes - 1


@pytest.fixture(params=CASES)
def malformed(request, tmp_path):
    path = tmp_path / "kdtree.rpt2"
    record_benchmark_v2("376.kdtree", path, threads=2, scale=0.3)
    if request.param == "bad-payload-size":
        shrink_first_payload(path)
    else:
        patch_first_call(path, request.param)
    return request.param, path


def test_decode_chunk_rejects_malformed_record(malformed):
    case, path = malformed
    with open(path, "rb") as stream:
        meta = read_trace_meta(stream)
        with pytest.raises(ERRORS.get(case, MalformedRecord), match=MESSAGES[case]):
            for chunk in meta.chunks:
                list(decode_chunk(stream, chunk, meta.names))


def test_flat_path_rejects_malformed_record(malformed):
    """Columnar decode rejects the kind byte and the payload size; the
    kernel rejects the ids."""
    case, path = malformed
    with open(path, "rb") as stream:
        meta = read_trace_meta(stream)
        analyzer = FlatAnalyzer(meta.names, ProfileDatabase())
        with pytest.raises(ERRORS.get(case, MalformedRecord), match=MESSAGES[case]):
            for chunk in meta.chunks:
                columns = decode_chunk_columns(stream, chunk)
                assert case not in ("unknown-kind", "bad-payload-size")
                analyzer.feed(columns)


@pytest.mark.parametrize("argv", [
    ("--metric", "trms"),
    ("--metric", "rms"),
    ("--metric", "both"),
], ids=["trms", "rms", "both"])
def test_analyze_exits_2_on_malformed_record(malformed, argv):
    case, path = malformed
    out = io.StringIO()
    code = main(["analyze", str(path), *argv], out=out)
    assert code == 2
    errors = [line for line in out.getvalue().splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and MESSAGES[case] in errors[0]
    assert "retrying" not in out.getvalue()
