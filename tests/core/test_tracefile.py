"""Tests for trace persistence: record to a v2 trace, replay it, and the
routine-name escaping shared by every format that stores names."""

import io

import pytest

from repro.core import EventBus, ProfileDatabase, RmsProfiler, TrmsProfiler, replay
from repro.core.tracefile import TraceFileError
from repro.farm import (
    BinaryTraceWriter,
    live_names_path,
    load_profile,
    read_binary_trace,
    save_profile,
)
from repro.streaming import ChunkTailer
from repro.vm import programs

from .util import db_snapshot


def record_scenario(scenario, **kwargs):
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer)
    scenario.run(tools=writer, **kwargs)
    writer.close()
    buffer.seek(0)
    return buffer, writer.events_written


def test_roundtrip_preserves_analysis():
    """Live profiling and trace-replay profiling are indistinguishable."""
    live = TrmsProfiler(keep_activations=True)
    buffer, _ = record_scenario(programs.producer_consumer(12))
    # run the same scenario live
    programs.producer_consumer(12).run(tools=EventBus([live]))
    replayed = TrmsProfiler(keep_activations=True)
    replay(read_binary_trace(buffer), replayed)
    assert db_snapshot(live.db) == db_snapshot(replayed.db)


def test_event_count_matches():
    buffer, written = record_scenario(programs.buffered_read(6))
    assert written == len(read_binary_trace(buffer))
    assert written > 0


@pytest.mark.parametrize("name", [
    "evil\tname",
    "multi\nline",
    "back\\slash",
    "\\t not a tab",
    "tab\tnewline\nboth\\\t\n",
    "plain_name",
    "unicode·name",
    "carriage\rreturn",
    "crlf\r\nline",
    "next\x85line",
    "line\u2028separator",
    "vertical\x0btab",
])
def test_awkward_routine_names_roundtrip(name, tmp_path):
    """Tabs, line breaks and backslashes in routine names survive every
    format that stores them: the v2 string table, the live ``.names``
    sidecar (read back by the tailer before the footer exists) and a
    ``repro-profile 1`` dump on disk, written and read in text mode the
    way ``merge``, ``fit`` and ``diff`` do."""
    trace = str(tmp_path / "t.rpt2")
    with open(trace, "wb") as stream, \
            open(live_names_path(trace), "w", encoding="utf-8") as names:
        writer = BinaryTraceWriter(stream, chunk_events=2, names_stream=names)
        writer.on_call(1, name)
        writer.on_return(1)                 # seals the chunk, flushes the name
        with ChunkTailer(trace) as tailer:
            assert sum(columns.events for columns in tailer.poll()) == 2
            assert not tailer.sealed
            assert tailer.names == [name]
        writer.close()
    with open(trace, "rb") as stream:
        assert read_binary_trace(stream)[0].arg == name

    db = ProfileDatabase()
    db.add_activation(name, 1, 4, 9)
    dump = tmp_path / "t.profile"
    with open(dump, "w") as stream:
        save_profile(db, stream)
    with open(dump) as stream:
        assert [profile.routine for profile in load_profile(stream)] == [name]


def test_escape_name_helpers():
    from repro.core.tracefile import escape_name, unescape_name

    assert escape_name("plain") == "plain"
    escaped = escape_name("a\tb\nc\\d")
    assert "\t" not in escaped and "\n" not in escaped
    assert unescape_name(escaped) == "a\tb\nc\\d"
    assert escape_name("cr\r") == "cr\\r"
    breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    escaped = escape_name(breaks)
    assert escaped == "".join(f"\\u{ord(char):04x}" for char in breaks)
    assert escaped.splitlines() == [escaped]
    assert unescape_name(escaped) == breaks
    with pytest.raises(TraceFileError):
        unescape_name("dangling\\")
    with pytest.raises(TraceFileError):
        unescape_name("bad\\x")
    for bad in ("\\u0041", "\\u000B", "\\u00"):
        with pytest.raises(TraceFileError, match="bad escape"):
            unescape_name(bad)


def test_kernel_events_roundtrip():
    buffer, _ = record_scenario(programs.buffered_read(4))
    rms = RmsProfiler(keep_activations=True)
    trms = TrmsProfiler(keep_activations=True)
    replay(read_binary_trace(buffer), EventBus([rms, trms]))
    external = [a for a in trms.db.activations if a.routine == "externalRead"][0]
    assert external.induced_external == 4
    assert [a for a in rms.db.activations if a.routine == "externalRead"][0].size == 1
