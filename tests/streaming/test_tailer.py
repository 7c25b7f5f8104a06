"""The chunk tailer: sealed-chunk visibility, torn tails, name sidecar."""

import os

import pytest

from repro.core import EventKind, replay
from repro.farm import BinaryTraceError, BinaryTraceWriter, TruncatedChunk, live_names_path
from repro.streaming import ChunkTailer

from .util import benchmark_events, live_writer, synthetic_events


def decode_all(tailer):
    """Flatten every polled chunk back into (kind, thread, arg) rows."""
    rows = []
    while True:
        polled = tailer.poll()
        if not polled:
            return rows
        for columns in polled:
            rows.extend(zip(columns.kinds, columns.threads, columns.args))


def test_sealed_chunks_visible_before_close(tmp_path):
    """Every ``_flush_chunk`` must hit the OS: a reader polling while the
    writer is still open sees all sealed chunks, names included."""
    trace = str(tmp_path / "t.rpt2")
    events = synthetic_events({"alpha": lambda n: n, "beta": lambda n: 2 * n})
    seen_mid_flight = 0
    with live_writer(trace, chunk_events=16) as writer:
        replay(events, writer)
        with ChunkTailer(trace) as tailer:
            polled = tailer.poll()
            seen_mid_flight = sum(c.events for c in polled)
            # the sidecar flushes *before* the chunk bytes, so every
            # routine id referenced by a sealed chunk resolves already
            call = int(EventKind.CALL)
            for columns in polled:
                for kind, arg in zip(columns.kinds, columns.args):
                    if kind == call:
                        assert arg < len(tailer.names)
            assert not tailer.sealed
    assert seen_mid_flight > 0
    assert seen_mid_flight % 16 == 0      # whole chunks only, no torn reads


def test_tailer_drains_to_exact_event_stream(tmp_path):
    trace = str(tmp_path / "t.rpt2")
    events = benchmark_events("376.kdtree", threads=2, scale=0.2)
    with live_writer(trace, chunk_events=64) as writer:
        replay(events, writer)
    with ChunkTailer(trace) as tailer:
        rows = decode_all(tailer)
        assert tailer.sealed and tailer.drained
        tailer.finish()               # clean seal: no complaint
    assert len(rows) == len(events)
    names = tailer.names
    for event, (kind, thread, arg) in zip(events, rows):
        assert int(event.kind) == kind
        assert event.thread == thread
        if event.kind == EventKind.CALL:
            assert names[arg] == event.arg


def test_torn_tail_recovers_prefix_and_raises(tmp_path):
    """Truncating a sealed trace mid-chunk must still deliver the intact
    prefix, then fail ``finish()`` with the typed recoverable error."""
    trace = str(tmp_path / "t.rpt2")
    events = synthetic_events({"alpha": lambda n: n * n})
    with live_writer(trace, chunk_events=16) as writer:
        replay(events, writer)
    whole = os.path.getsize(trace)
    os.truncate(trace, whole - whole // 3)   # rip off footer + some chunks
    with ChunkTailer(trace) as tailer:
        rows = decode_all(tailer)
        assert 0 < len(rows) < len(events)
        assert not tailer.sealed
        with pytest.raises(TruncatedChunk):
            tailer.finish()
    # the recovered rows are a strict prefix of the original stream
    for event, (kind, thread, _arg) in zip(events, rows):
        assert (int(event.kind), event.thread) == (kind, thread)


def test_unsealed_trace_without_torn_bytes_still_raises(tmp_path):
    """A writer killed between flushes leaves whole chunks but no seal:
    the prefix is valid, and finish() must say the stream never closed."""
    trace = str(tmp_path / "t.rpt2")
    events = synthetic_events({"alpha": lambda n: n})
    with open(trace, "wb") as stream, \
            open(live_names_path(trace), "w", encoding="utf-8") as names:
        writer = BinaryTraceWriter(stream, chunk_events=16, names_stream=names)
        replay(events, writer)
        writer._flush_chunk()
        stream.flush()
        # no close(): the footer and trailer never land
    with ChunkTailer(trace) as tailer:
        rows = decode_all(tailer)
        assert rows
        with pytest.raises(TruncatedChunk):
            tailer.finish()


def test_missing_and_empty_files_are_quiet(tmp_path):
    missing = ChunkTailer(str(tmp_path / "nope.rpt2"))
    assert missing.poll() == []
    missing.finish()                  # nothing was ever written: fine
    empty = str(tmp_path / "empty.rpt2")
    open(empty, "wb").close()
    with ChunkTailer(empty) as tailer:
        assert tailer.poll() == []
        tailer.finish()


def test_partial_sidecar_line_is_not_consumed(tmp_path):
    trace = str(tmp_path / "t.rpt2")
    sidecar = live_names_path(trace)
    with open(sidecar, "w", encoding="utf-8") as stream:
        stream.write("alpha\nbet")            # second line still in flight
    tailer = ChunkTailer(trace)
    tailer.refresh_names()
    assert tailer.names == ["alpha"]
    with open(sidecar, "a", encoding="utf-8") as stream:
        stream.write("a\ngamma\n")
    tailer.refresh_names()
    assert tailer.names == ["alpha", "beta", "gamma"]
    tailer.close()


def test_poll_budget_counts_stalls(tmp_path):
    trace = str(tmp_path / "t.rpt2")
    events = synthetic_events({"alpha": lambda n: n}, sizes=(8,) * 40)
    with live_writer(trace, chunk_events=8) as writer:
        replay(events, writer)
    with ChunkTailer(trace, max_chunks_per_poll=2) as tailer:
        first = tailer.poll()
        assert len(first) == 2
        assert tailer.stalls >= 1
        while tailer.poll():
            pass
        assert tailer.drained


def test_finish_leaves_the_chunks_of_a_found_seal_to_poll(tmp_path):
    """``finish()`` delivers nothing: on a sealed trace nobody polled
    yet, it finds the seal and every chunk still reaches ``poll()``."""
    trace = str(tmp_path / "t.rpt2")
    events = benchmark_events("376.kdtree", threads=2, scale=0.2)
    with live_writer(trace) as writer:
        replay(events, writer)
    with ChunkTailer(trace) as tailer:
        tailer.finish()
        assert tailer.sealed and not tailer.drained
        rows = decode_all(tailer)
        assert tailer.drained
    assert len(rows) == len(events)


def test_without_a_sidecar_nothing_is_delivered_before_the_seal(tmp_path):
    """A trace recorded without ``--live`` has no names sidecar: its
    chunks wait for the footer's string table, and each poll that
    waited counts as a hold stall."""
    trace = str(tmp_path / "t.rpt2")
    events = synthetic_events({"alpha": lambda n: n})
    with open(trace, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=16)
        replay(events, writer)
        with ChunkTailer(trace) as tailer:
            assert tailer.poll() == [] and tailer.poll() == []
            assert tailer.hold_stalls == 2
            assert tailer.pending_events_estimate() > 0
            writer.close()
            rows = decode_all(tailer)
    assert len(rows) == len(events)
    assert tailer.drained and tailer.hold_stalls == 2
    assert tailer.names == ["alpha"]


def test_sidecar_that_disagrees_with_the_footer_raises_at_the_seal(tmp_path):
    """The footer's string table must start with the names the sidecar
    delivered; a stale sidecar line is a typed error, not a renamed
    routine in a profile."""
    trace = str(tmp_path / "t.rpt2")
    events = synthetic_events({"alpha": lambda n: n})
    with open(trace, "wb") as stream, \
            open(live_names_path(trace), "w", encoding="utf-8") as names:
        names.write("stale\n")            # left over: the footer never lists it
        writer = BinaryTraceWriter(stream, chunk_events=16, names_stream=names)
        replay(events, writer)
        with ChunkTailer(trace) as tailer:
            assert tailer.poll()
            assert tailer.names == ["stale", "alpha"]
            writer.close()
            with pytest.raises(BinaryTraceError, match="sidecar disagrees") as caught:
                tailer.poll()
            assert not isinstance(caught.value, TruncatedChunk)
