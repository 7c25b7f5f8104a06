"""Property and unit tests for the v2 binary trace format."""

import hashlib
import io
import os
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import Event, EventKind, replay
from repro.farm import (
    BinaryTraceError,
    BinaryTraceWriter,
    binfmt,
    is_binary_trace,
    iter_binary_trace,
    read_binary_trace,
    read_trace_meta,
    write_binary_trace,
)
from repro.farm.binfmt import (
    ChunkColumns,
    ChunkMeta,
    decode_chunk,
    decode_chunk_columns,
    encode_chunk_columns,
    iter_positioned,
)

from ..core.util import events_strategy
from .util import reference_v2_bytes


def roundtrip(events, chunk_events=64):
    buffer = io.BytesIO()
    count = write_binary_trace(events, buffer, chunk_events=chunk_events)
    assert count == len(events)
    buffer.seek(0)
    return read_binary_trace(buffer)


@settings(max_examples=100, deadline=None)
@given(events_strategy(), st.sampled_from([1, 3, 64, 4096]))
def test_arbitrary_streams_roundtrip(events, chunk_events):
    assert roundtrip(events, chunk_events) == events


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=90), st.sampled_from([1, 7, 32]))
def test_chunk_metadata_invariants(events, chunk_events):
    buffer = io.BytesIO()
    write_binary_trace(events, buffer, chunk_events=chunk_events)
    buffer.seek(0)
    meta = read_trace_meta(buffer)

    assert meta.event_count == len(events)
    assert sum(chunk.events for chunk in meta.chunks) == len(events)
    # chunk positions tile the global position space contiguously
    position = 0
    for chunk in meta.chunks:
        assert chunk.first_pos == position
        assert 0 < chunk.events <= chunk_events
        assert sum(chunk.thread_counts.values()) == chunk.events
        expected_writes = sum(
            1 for event in events[position:position + chunk.events]
            if event.kind in (EventKind.WRITE, EventKind.KERNEL_WRITE)
        )
        assert chunk.writes == expected_writes
        position += chunk.events
    assert position == len(events)
    # per-thread counts, summed over the chunks, match the event stream
    totals, summed = {}, {}
    for event in events:
        totals[event.thread] = totals.get(event.thread, 0) + 1
    for chunk in meta.chunks:
        for thread, count in chunk.thread_counts.items():
            summed[thread] = summed.get(thread, 0) + count
    assert summed == totals


@settings(max_examples=40, deadline=None)
@given(events_strategy(max_ops=90))
def test_random_access_chunk_decode(events):
    """Decoding one chunk yields exactly that slice of the stream."""
    buffer = io.BytesIO()
    write_binary_trace(events, buffer, chunk_events=8)
    buffer.seek(0)
    meta = read_trace_meta(buffer)
    for chunk in meta.chunks:
        decoded = list(decode_chunk(buffer, chunk, meta.names))
        assert [pair[1] for pair in decoded] == \
            events[chunk.first_pos:chunk.first_pos + chunk.events]
        assert [pair[0] for pair in decoded] == \
            list(range(chunk.first_pos, chunk.first_pos + chunk.events))


def test_iter_positioned_selected_chunks():
    events = [Event(EventKind.READ, 1, addr) for addr in range(20)]
    buffer = io.BytesIO()
    write_binary_trace(events, buffer, chunk_events=5)
    buffer.seek(0)
    meta = read_trace_meta(buffer)
    assert len(meta.chunks) == 4
    picked = [meta.chunks[1], meta.chunks[3]]
    pairs = list(iter_positioned(buffer, meta, picked))
    assert [position for position, _ in pairs] == list(range(5, 10)) + list(range(15, 20))


def test_routine_names_interned_and_restored():
    names = ["f", "weird\tname", "multi\nline", "unicode·routine", "f"]
    events = []
    for name in names:
        events.append(Event(EventKind.CALL, 1, name))
        events.append(Event(EventKind.RETURN, 1, None))
    assert roundtrip(events) == events
    buffer = io.BytesIO()
    write_binary_trace(events, buffer)
    buffer.seek(0)
    meta = read_trace_meta(buffer)
    assert len(meta.names) == 4  # "f" interned once


def test_empty_trace_roundtrip():
    buffer = io.BytesIO()
    assert write_binary_trace([], buffer) == 0
    buffer.seek(0)
    meta = read_trace_meta(buffer)
    assert meta.event_count == 0 and meta.chunks == [] and meta.names == []
    buffer.seek(0)
    assert read_binary_trace(buffer) == []


def test_writer_close_is_idempotent_and_seals():
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer)
    writer.on_call(1, "f")
    writer.close()
    writer.close()
    with pytest.raises(BinaryTraceError, match="sealed"):
        writer.on_return(1)


def test_bad_magic_rejected():
    with pytest.raises(BinaryTraceError, match="bad magic"):
        read_trace_meta(io.BytesIO(b"NOTATRACE" * 10))


def test_unsealed_file_rejected():
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, chunk_events=2)
    for addr in range(6):
        writer.on_read(1, addr)
    # no close(): chunks exist but footer/trailer are missing
    buffer.seek(0)
    with pytest.raises(BinaryTraceError):
        read_trace_meta(buffer)


def test_is_binary_trace_sniffing(tmp_path):
    v2 = tmp_path / "trace.rpt2"
    with open(v2, "wb") as stream:
        write_binary_trace([Event(EventKind.COST, 1, 5)], stream)
    v1 = tmp_path / "trace.v1"
    v1.write_text("repro-trace 1\n$\t1\t5\n")    # the retired text format
    assert is_binary_trace(str(v2))
    assert not is_binary_trace(str(v1))
    assert not is_binary_trace(str(tmp_path / "missing"))


def test_negative_and_large_arguments_roundtrip():
    events = [
        Event(EventKind.READ, -5, 2**62),
        Event(EventKind.WRITE, 3, -(2**40)),
        Event(EventKind.COST, 0, 0),
    ]
    assert roundtrip(events) == events


# -- live-writer additions: flush visibility, durability, torn tails ----------


def test_truncated_chunk_is_typed_and_recoverable():
    """An unsealed (or torn) trace raises :class:`TruncatedChunk` — the
    recoverable subtype a tailer catches — not a generic format error."""
    from repro.farm import TruncatedChunk

    assert issubclass(TruncatedChunk, BinaryTraceError)

    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, chunk_events=2)
    for addr in range(6):
        writer.on_read(1, addr)
    # no close(): the trailer never lands
    buffer.seek(0)
    with pytest.raises(TruncatedChunk, match="writer still running"):
        read_trace_meta(buffer)

    # a sealed trace cut mid-trailer is equally recoverable
    whole = io.BytesIO()
    write_binary_trace([Event(EventKind.COST, 1, 5)], whole)
    torn = io.BytesIO(whole.getvalue()[:-4])
    with pytest.raises(TruncatedChunk):
        read_trace_meta(torn)

    # a bare magic (writer opened, nothing sealed yet) is also "not yet"
    with pytest.raises(TruncatedChunk, match="unsealed"):
        read_trace_meta(io.BytesIO(b"RPTRACE2"))


def test_sealed_chunks_are_flushed_at_seal_time(tmp_path):
    """``_flush_chunk`` must push bytes to the OS: a separate reader sees
    every sealed chunk while the writer is still open."""
    path = tmp_path / "live.rpt2"
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=4)
        for addr in range(11):
            writer.on_read(1, addr)
        # two chunks sealed (8 events), 3 events still buffered
        size_mid_flight = os.path.getsize(path)
        assert size_mid_flight >= len(b"RPTRACE2") + 2 * 4 * 17
        writer.close()
    assert os.path.getsize(path) > size_mid_flight


def test_durable_flag_survives_simulated_crash(tmp_path):
    """``durable=True`` fsyncs each seal; killing the process after a
    seal must leave the chunk on disk (simulated: never close())."""
    path = tmp_path / "crash.rpt2"
    stream = open(path, "wb")
    writer = BinaryTraceWriter(stream, chunk_events=4, durable=True)
    writer.on_call(1, "victim")
    for addr in range(7):
        writer.on_read(1, addr)
    stream.close()      # the "crash": no writer.close(), no footer
    with open(path, "rb") as reopened:
        with pytest.raises(BinaryTraceError):
            read_trace_meta(reopened)
    assert os.path.getsize(path) >= len(b"RPTRACE2") + 4 * 17


def test_names_sidecar_flushes_before_chunk(tmp_path):
    """Any name a sealed chunk references is already readable from the
    sidecar — the invariant the live tailer's decoder depends on."""
    from repro.core.tracefile import unescape_name
    from repro.farm import live_names_path

    path = str(tmp_path / "live.rpt2")
    with open(path, "wb") as stream, \
            open(live_names_path(path), "w", encoding="utf-8") as names:
        writer = BinaryTraceWriter(stream, chunk_events=2, names_stream=names)
        writer.on_call(1, "solver solve")      # space needs escaping
        writer.on_return(1)                     # seals chunk 1
        with open(live_names_path(path), "r", encoding="utf-8") as sidecar:
            flushed = [unescape_name(line.rstrip("\n")) for line in sidecar]
        assert flushed == ["solver solve"]
        writer.on_call(1, "second")
        writer.close()
    with open(live_names_path(path), "r", encoding="utf-8") as sidecar:
        flushed = [unescape_name(line.rstrip("\n")) for line in sidecar]
    assert flushed == ["solver solve", "second"]


class _NamesFirstStream(io.BytesIO):
    """A trace stream that, at every write, checks the names sidecar
    already holds each routine name interned so far."""

    def __init__(self, names, interned):
        super().__init__()
        self.names = names
        self.interned = interned
        self.early_writes = 0

    def write(self, data):
        if len(self.names.getvalue().splitlines()) < len(self.interned):
            self.early_writes += 1
        return super().write(data)


def test_writer_writes_names_before_their_chunk():
    """No chunk byte reaches the trace stream before the sidecar holds
    the names its CALL records use: a payload larger than the stream's
    buffer reaches the OS at once, and a tailer may read it there."""
    names = io.StringIO()
    interned = []
    stream = _NamesFirstStream(names, interned)
    writer = BinaryTraceWriter(stream, chunk_events=4, names_stream=names)
    for index in range(15):
        interned.append(f"routine{index}")
        writer.on_call(1, interned[-1])
        writer.on_read(1, index)
        writer.on_read(1, index + 1)
        writer.on_return(1)
    writer.close()
    assert len(writer.chunks) == 15
    assert stream.early_writes == 0
    assert names.getvalue().splitlines() == interned


# -- the column-buffer writer against the record-by-record encoder ------------


@settings(max_examples=100, deadline=None)
@given(events_strategy(), st.sampled_from([1, 2, 3, 5, 4096]), st.booleans())
def test_writer_bytes_equal_reference_encoder(events, chunk_events, with_names):
    stream = io.BytesIO()
    names = io.StringIO() if with_names else None
    writer = BinaryTraceWriter(stream, chunk_events=chunk_events, names_stream=names)
    replay(events, writer)
    writer.close()
    trace, sidecar = reference_v2_bytes(events, chunk_events)
    assert stream.getvalue() == trace
    assert writer.events_written == len(events)
    if with_names:
        assert names.getvalue() == sidecar


#: SHA-256 of ``repro record NAME --threads 4 --scale S --chunk-events 512``
#: traces as a record-by-record ``<Bqq`` encoder writes them (Python 3.11
#: and 3.12 alike)
PINNED_TRACES = {
    ("350.md", "0.5"): "5c41d551075832d0258a4e57c14da171b4bc015a57f8dfcd448c3e37fa1a3b63",
    ("351.bwaves", "0.25"): "b6f9e7499955394c68030bb2efc12d3488d76df92b333974d20000acbf01301a",
    ("376.kdtree", "1.0"): "f708d2fad11559a1ff3ae96b1670b4eb16d0b64529328571baf526cbc9b9be6b",
    ("367.imagick", "1.0"): "23d8d843ea0ba9ac0a2246f0bfef44a5d6aef7f27cbeea6fca2182b22cc6244e",
}


@pytest.mark.parametrize("name, scale", sorted(PINNED_TRACES))
def test_recorded_trace_bytes_are_pinned(name, scale, tmp_path):
    path = tmp_path / "pinned.rpt2"
    argv = ["record", name, str(path), "--threads", "4", "--scale", scale,
            "--chunk-events", "512"]
    assert main(argv, out=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRACES[(name, scale)]


_I64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(EventKind)), _I64, _I64), max_size=40),
       st.integers(0, 2**40))
def test_encode_decode_columns_round_trip_on_both_paths(records, first_pos):
    """``decode_chunk_columns`` inverts ``encode_chunk_columns``, and the
    per-record fallback of both gives the same bytes and columns."""
    columns = ChunkColumns(
        first_pos, len(records), bytes(kind for kind, _, _ in records),
        array("q", [thread for _, thread, _ in records]),
        array("q", [arg for _, _, arg in records]))
    payload = encode_chunk_columns(columns)
    assert payload == b"".join(struct.pack("<Bqq", *record) for record in records)
    chunk = ChunkMeta(0, 0, len(payload), len(records), first_pos, 0, {})
    assert decode_chunk_columns(io.BytesIO(payload), chunk) == columns
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(binfmt, "_NATIVE_I64", False)
        assert encode_chunk_columns(columns) == payload
        assert decode_chunk_columns(io.BytesIO(payload), chunk) == columns
