"""Acceptance: a doped run must page the operator *before* it finishes.

The scenario: history says ``victim`` is linear.  A new run starts in
which ``victim`` has gone quadratic (the "doped" input).  Streaming
checkpoints are ingested into the observatory as superseding partial
runs — and the drift detector must raise the regression alert while the
trace is still being written, long before batch analysis could run.
"""

from repro.core import ProfileDatabase, replay
from repro.core.flatkernel import analyze_events_flat
from repro.observatory import (
    ObservatoryStore,
    detect_drift,
    ingest_path,
    record_from_profile_db,
)
from repro.streaming import LiveProfileSession

from .util import live_writer, synthetic_events

SIZES = (4, 8, 16, 32, 64, 128)


def seeded_store(path, events, runs=2):
    store = ObservatoryStore(path)
    for index in range(runs):
        db = ProfileDatabase()
        analyze_events_flat(events, db)
        record = record_from_profile_db(
            db, run_id=f"run{index}", git_sha=f"sha{index}",
            timestamp=f"2026-08-{index + 1:02d}T00:00:00+00:00", scale=1.0)
        assert store.add_run(record)
    return store


def test_doping_alert_fires_before_trace_close(tmp_path):
    linear = synthetic_events(
        {"victim": lambda n: 10 * n, "stable": lambda n: 5 * n}, SIZES)
    store = seeded_store(str(tmp_path / "obs"), linear)
    assert not [a for a in detect_drift(store)
                if a.routine == "victim" and a.verdict == "regressed"]

    doped = synthetic_events(
        {"victim": lambda n: n * n, "stable": lambda n: 5 * n}, SIZES)
    # padding keeps every doped RETURN inside a *sealed* chunk while the
    # writer is still running (the unflushed tail only holds padding)
    padding = synthetic_events({"stable": lambda n: 5 * n}, (8,) * 24)

    trace = str(tmp_path / "doped.rpt2")
    ckpt = str(tmp_path / "ckpt")
    session = LiveProfileSession(trace, ckpt, checkpoint_events=10 ** 9,
                                 checkpoint_seconds=10 ** 9)
    alerted_mid_run = False
    with live_writer(trace, chunk_events=16) as writer:
        replay(doped + padding, writer)
        # trace still open: drain what is sealed and cut a checkpoint
        while session.step():
            pass
        info = session.checkpoint()
        assert info.seq == 1
        result = ingest_path(store, ckpt)
        assert result.ingested and result.source == "stream"
        alerts = [a for a in detect_drift(store)
                  if a.routine == "victim" and a.verdict == "regressed"]
        alerted_mid_run = bool(alerts)
        assert alerted_mid_run, "doping must be caught before the run ends"
        assert alerts[0].new_growth and "2" in alerts[0].new_growth
    session.finalize()

    # the final checkpoint supersedes the partial one under the same id:
    # still one streamed run in history, now marked closed
    final = ingest_path(store, ckpt)
    assert final.run_id == result.run_id
    runs = [run for run in store.runs() if run.run_id == result.run_id]
    assert len(runs) == 1
    assert any(a.routine == "victim" and a.verdict == "regressed"
               for a in detect_drift(store))


def test_checkpoint_reingest_is_idempotent(tmp_path):
    linear = synthetic_events({"victim": lambda n: 10 * n}, SIZES)
    store = seeded_store(str(tmp_path / "obs"), linear, runs=1)
    trace = str(tmp_path / "t.rpt2")
    ckpt = str(tmp_path / "ckpt")
    session = LiveProfileSession(trace, ckpt, checkpoint_events=10 ** 9,
                                 checkpoint_seconds=10 ** 9)
    with live_writer(trace, chunk_events=16) as writer:
        replay(linear, writer)
    session.finalize()
    first = ingest_path(store, ckpt)
    assert first.ingested
    again = ingest_path(store, ckpt)
    assert not again.ingested              # identical checkpoint: no-op
    assert "already known" in again.detail


def test_sessions_on_one_trace_path_get_their_own_stream_ids(tmp_path):
    trace = str(tmp_path / "t.rpt2")
    first = LiveProfileSession(trace, str(tmp_path / "a"))
    second = LiveProfileSession(trace, str(tmp_path / "b"))
    assert first.stream_id != second.stream_id
    pinned = LiveProfileSession(trace, str(tmp_path / "c"), stream_id="shared")
    assert pinned.stream_id == "shared"


def test_second_recording_to_one_path_is_a_run_of_its_own(tmp_path):
    """Recording A to a path closes and is ingested; recording B to the
    same path then cuts its first, partial checkpoint.  B's checkpoint
    starts a run of its own and is applied, instead of being taken for
    a late checkpoint of A."""
    store = ObservatoryStore(str(tmp_path / "obs"))
    trace = str(tmp_path / "t.rpt2")
    linear = synthetic_events({"victim": lambda n: 10 * n}, SIZES)
    padding = synthetic_events({"stable": lambda n: 5 * n}, (8,) * 24)

    first = LiveProfileSession(trace, str(tmp_path / "a"), checkpoint_events=10 ** 9,
                               checkpoint_seconds=10 ** 9)
    with live_writer(trace, chunk_events=16) as writer:
        replay(linear, writer)
    first.finalize()
    closed = ingest_path(store, str(tmp_path / "a"))
    assert closed.ingested

    second = LiveProfileSession(trace, str(tmp_path / "b"), checkpoint_events=10 ** 9,
                                checkpoint_seconds=10 ** 9)
    with live_writer(trace, chunk_events=16) as writer:
        replay(linear + padding, writer)
        while second.step():
            pass
        assert second.checkpoint().seq == 1
        partial = ingest_path(store, str(tmp_path / "b"))
    second.finalize()
    assert partial.ingested, partial.detail
    assert partial.run_id != closed.run_id
    assert len(store.runs()) == 2
    stream = next(run for run in store.runs() if run.run_id == partial.run_id)
    assert store.metrics_for(stream.seq)["streaming.closed"] == 0.0
