"""Streaming differential suite: arrival schedule must never matter.

The whole point of the live pipeline is that it is *free* of analysis
drift: feed the flat kernel chunk by chunk as a trace grows, and the
final profile — after ``finalize()`` — is byte-identical to the batch
``repro analyze`` dump of the same trace.  These tests drive real
benchmark traces and hypothesis-generated traces through arbitrary
chunk-arrival schedules and compare dumps byte for byte.
"""

import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.farm import BinaryTraceWriter, load_profile
from repro.streaming import (
    MANIFEST_NAME,
    LiveProfileSession,
    checkpoint_dump_bytes,
    load_manifest,
)

from repro.core import replay

from ..core.util import events_strategy
from .util import (
    batch_dump_bytes,
    benchmark_events,
    dump_bytes,
    live_writer,
    replay_in_slices,
    synthetic_events,
)

#: named arrival schedules: event-index cut points as a function of n
SCHEDULES = {
    "all-at-once": lambda n: [],
    "halves": lambda n: [n // 2],
    "bursts": lambda n: list(range(0, n, max(1, n // 7))),
    "trickle": lambda n: list(range(0, n, max(1, n // 23))),
}


def stream_through(tmp_dir, events, cuts, chunk_events=32, **session_kwargs):
    """Write ``events`` live with polls at ``cuts``; return (session, db)."""
    trace = f"{tmp_dir}/trace.rpt2"
    session = LiveProfileSession(
        trace, f"{tmp_dir}/ckpt",
        checkpoint_events=session_kwargs.pop("checkpoint_events", 500),
        checkpoint_seconds=1e9, **session_kwargs)
    with live_writer(trace, chunk_events=chunk_events) as writer:
        replay_in_slices(events, writer, cuts, session.step)
    db = session.finalize()
    return session, db


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", ["376.kdtree", "372.smithwa"])
def test_benchmark_traces_any_schedule_byte_identical(tmp_path, name, schedule):
    events = benchmark_events(name, threads=2, scale=0.2)
    expected = batch_dump_bytes(events)
    cuts = SCHEDULES[schedule](len(events))
    session, _db = stream_through(str(tmp_path), events, cuts)
    streamed = checkpoint_dump_bytes(str(tmp_path / "ckpt"))
    assert streamed == expected
    manifest = load_manifest(str(tmp_path / "ckpt"))
    assert manifest["closed"] is True
    assert manifest["events_analyzed"] == len(events)
    # mid-flight checkpoints were cut along the way for real schedules
    if schedule != "all-at-once":
        assert len(session.checkpoints) >= 1


@pytest.mark.parametrize("name", ["376.kdtree"])
def test_context_sensitive_streaming_byte_identical(tmp_path, name):
    events = benchmark_events(name, threads=2, scale=0.2)
    expected = batch_dump_bytes(events, context_sensitive=True)
    cuts = SCHEDULES["bursts"](len(events))
    stream_through(str(tmp_path), events, cuts, context_sensitive=True)
    assert checkpoint_dump_bytes(str(tmp_path / "ckpt")) == expected


@settings(max_examples=25, deadline=None)
@given(events_strategy(max_ops=120),
       st.lists(st.integers(min_value=0, max_value=400), max_size=8),
       st.sampled_from([1, 7, 32]))
def test_hypothesis_traces_any_cuts_byte_identical(events, raw_cuts, chunk_events):
    """Any trace, any cut points, any chunk size: same bytes."""
    expected = batch_dump_bytes(events)
    cuts = sorted(min(c, len(events)) for c in raw_cuts)
    with tempfile.TemporaryDirectory() as tmp_dir:
        stream_through(tmp_dir, events, cuts, chunk_events=chunk_events,
                       checkpoint_events=64)
        assert checkpoint_dump_bytes(f"{tmp_dir}/ckpt") == expected


def test_every_checkpoint_loads_and_the_last_equals_batch(tmp_path):
    """Every checkpoint in the directory is a whole ``repro-profile 1``
    dump that loads on its own, and the final one is the batch dump."""
    events = benchmark_events("376.kdtree", threads=2, scale=0.2)
    cuts = SCHEDULES["trickle"](len(events))
    session, _db = stream_through(str(tmp_path), events, cuts,
                                  checkpoint_events=200)
    ckpt = tmp_path / "ckpt"
    names = sorted(name for name in os.listdir(ckpt) if name != MANIFEST_NAME)
    assert len(names) == len(session.checkpoints) > 1
    for name in names:
        with open(ckpt / name, "r", encoding="utf-8") as stream:
            load_profile(stream)
    expected = batch_dump_bytes(events)
    assert (ckpt / names[-1]).read_bytes() == expected
    assert checkpoint_dump_bytes(str(ckpt)) == expected


def test_sidecar_less_trace_streams_whole_at_the_seal(tmp_path):
    """A trace recorded without a names sidecar (``repro record`` with
    no ``--live``) delivers nothing before its seal, however many
    chunks pile up meanwhile; the closed checkpoint is still the batch
    dump, with every event analysed."""
    events = benchmark_events("350.md", threads=4, scale=1.0)
    cuts = SCHEDULES["trickle"](len(events))
    trace = str(tmp_path / "trace.rpt2")
    ckpt = str(tmp_path / "ckpt")
    session = LiveProfileSession(trace, ckpt, checkpoint_events=500,
                                 checkpoint_seconds=1e9)
    with open(trace, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=16)
        replay_in_slices(events, writer, cuts, session.step)
        assert not session.checkpoints          # nothing fed before the seal
        writer.close()
    session.finalize()
    assert len(writer.chunks) > 256 and len(cuts) >= 20
    manifest = load_manifest(ckpt)
    assert manifest["closed"] is True
    assert manifest["events_analyzed"] == len(events)
    assert checkpoint_dump_bytes(ckpt) == batch_dump_bytes(events)
    assert session.hold_stalls >= 20


def test_run_ends_at_the_poll_that_finds_the_seal(tmp_path):
    """Every chunk is delivered before ``close()``, so the poll that finds
    the seal consumes nothing; ``run`` finalizes there instead of
    sleeping ``poll_interval`` first, and cuts no extra checkpoint."""
    events = synthetic_events({"f": lambda n: n * n})
    assert len(events) % 10 == 0      # close() seals no last chunk
    trace = str(tmp_path / "trace.rpt2")
    session = LiveProfileSession(trace, str(tmp_path / "ckpt"),
                                 checkpoint_events=10 ** 9,
                                 checkpoint_seconds=1e9)
    with live_writer(trace, chunk_events=10) as writer:
        replay(events, writer)
        while session.step():
            pass
        assert session.analyzer.events_fed == len(events)
    started = time.perf_counter()
    db = session.run(poll_interval=30.0)
    assert time.perf_counter() - started < 5.0
    assert dump_bytes(db) == batch_dump_bytes(events)
    assert len(session.checkpoints) == 1
    assert load_manifest(str(tmp_path / "ckpt"))["closed"] is True
