"""Superseding runs: the streaming-checkpoint contract on the store."""

import io
import os

from repro.farm import save_profile
from repro.observatory import (
    ObservatoryStore,
    ingest_record,
    record_from_profile_db,
    record_from_stream_dump,
)

from .util import db_from


def stream_record(db, seq, run_id="stream-abc", closed=False):
    record = record_from_profile_db(
        db, run_id=run_id, git_sha="sha-live",
        timestamp=f"2026-08-07T00:00:{seq:02d}+00:00",
        scale=1.0, source="stream")
    metrics = dict(record.metrics)
    metrics["streaming.seq"] = float(seq)
    metrics["streaming.closed"] = 1.0 if closed else 0.0
    return record._replace(metrics=metrics)


def test_supersede_replaces_in_place(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(record_from_profile_db(
        db_from({"alpha": lambda n: n}), run_id="batch-0",
        timestamp="2026-08-06T00:00:00+00:00"))
    assert store.add_run(stream_record(db_from({"alpha": lambda n: n}), 1))
    store.add_run(record_from_profile_db(
        db_from({"alpha": lambda n: n}), run_id="batch-1",
        timestamp="2026-08-08T00:00:00+00:00"))

    # checkpoint #2 grows the stream's profile; its history slot is stable
    bigger = db_from({"alpha": lambda n: n, "beta": lambda n: n * n})
    assert store.add_run(stream_record(bigger, 2), supersede=True)
    runs = store.runs()
    assert [run.run_id for run in runs] == ["batch-0", "stream-abc", "batch-1"]
    stream = next(run for run in runs if run.run_id == "stream-abc")
    assert stream.routines == 2
    assert store.metrics_for(stream.seq)["streaming.seq"] == 2.0


def test_without_supersede_known_run_is_a_noop(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    assert store.add_run(stream_record(db_from({"alpha": lambda n: n}), 1))
    bigger = stream_record(db_from({"alpha": lambda n: n * n}), 2)
    assert not store.add_run(bigger)           # default path: idempotent
    assert store.metrics_for(store.runs()[0].seq)["streaming.seq"] == 1.0


def test_identical_supersede_is_idempotent(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    record = stream_record(db_from({"alpha": lambda n: n}), 1)
    assert store.add_run(record, supersede=True)
    assert not store.add_run(record, supersede=True)


def test_replay_converges_to_newest_version(tmp_path):
    path = str(tmp_path / "obs")
    store = ObservatoryStore(path)
    store.add_run(stream_record(db_from({"alpha": lambda n: n}), 1))
    for seq in (2, 3):
        db = db_from({"alpha": lambda n: n ** (seq - 1)})
        store.add_run(stream_record(db, seq, closed=seq == 3), supersede=True)

    reopened = ObservatoryStore(path)          # replays history.jsonl
    runs = reopened.runs()
    assert len(runs) == 1
    metrics = reopened.metrics_for(runs[0].seq)
    assert metrics["streaming.seq"] == 3.0
    assert metrics["streaming.closed"] == 1.0


def test_gc_then_supersede_still_works(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    for index in range(4):
        store.add_run(record_from_profile_db(
            db_from({"alpha": lambda n: n}), run_id=f"old-{index}",
            timestamp=f"2026-08-0{index + 1}T00:00:00+00:00"))
    store.add_run(stream_record(db_from({"alpha": lambda n: n}), 1))
    dropped = store.gc(keep=2)
    assert dropped == 3
    survivors = [run.run_id for run in store.runs()]
    assert survivors == ["old-3", "stream-abc"]
    assert store.add_run(
        stream_record(db_from({"alpha": lambda n: 2 * n}), 2), supersede=True)
    assert [run.run_id for run in store.runs()] == survivors


def dump_of(db):
    out = io.StringIO()
    save_profile(db, out)
    return out.getvalue().encode("utf-8")


def stored_stream_metrics(store):
    (run,) = store.runs()
    metrics = store.metrics_for(run.seq)
    return metrics["streaming.seq"], metrics["streaming.closed"]


def test_late_checkpoint_does_not_replace_a_newer_one(tmp_path):
    """Two ingest workers can finish one stream's uploads out of order:
    checkpoint #4 arriving after the closed #5 is neither applied nor
    logged, and a reopened store agrees."""
    path = str(tmp_path / "obs")
    store = ObservatoryStore(path)
    meta = {"stream_id": "abc", "timestamp": "2026-08-07T00:00:00+00:00"}
    final = db_from({"alpha": lambda n: n, "beta": lambda n: n * n})
    assert ingest_record(store, record_from_stream_dump(
        dump_of(final), {**meta, "seq": 5, "closed": True})).ingested
    with open(store.path, "rb") as stream:
        log = stream.read()

    late = ingest_record(store, record_from_stream_dump(
        dump_of(db_from({"alpha": lambda n: n})), {**meta, "seq": 4, "closed": False}))
    assert not late.ingested
    assert "#4" in late.detail and "#5" in late.detail
    with open(store.path, "rb") as stream:
        assert stream.read() == log              # no line appended
    assert stored_stream_metrics(store) == (5.0, 1.0)
    assert stored_stream_metrics(ObservatoryStore(path)) == (5.0, 1.0)


def test_replay_ignores_out_of_order_supersede_lines(tmp_path):
    """A log whose superseding lines arrive out of order (#1, #3, #2)
    replays to #3, as add_run would have kept it."""
    source = ObservatoryStore(str(tmp_path / "source"))
    source.add_run(stream_record(db_from({"alpha": lambda n: n}), 1))
    for seq in (2, 3):
        db = db_from({"alpha": lambda n: n ** (seq - 1)})
        assert source.add_run(stream_record(db, seq, closed=seq == 3), supersede=True)
    with open(source.path, "r", encoding="utf-8") as stream:
        meta, first, second, third = stream.read().splitlines()
    target = tmp_path / "target"
    os.makedirs(target)
    with open(target / "history.jsonl", "w", encoding="utf-8") as stream:
        stream.write("\n".join([meta, first, third, second]) + "\n")
    assert stored_stream_metrics(ObservatoryStore(str(target))) == (3.0, 1.0)


def test_closed_checkpoint_of_a_second_recording_replaces_the_first(tmp_path):
    """A second recording to the same trace path keeps the stream id but
    restarts seq at 1: its partial checkpoints lose to the first
    recording's closed #5, its closed #3 replaces it, and a reopened
    store agrees."""
    path = str(tmp_path / "obs")
    store = ObservatoryStore(path)
    meta = {"stream_id": "abc", "timestamp": "2026-08-07T00:00:00+00:00"}
    first = dump_of(db_from({"alpha": lambda n: n, "beta": lambda n: n * n}))
    second = dump_of(db_from({"gamma": lambda n: n}))
    for seq in range(1, 6):
        assert ingest_record(store, record_from_stream_dump(
            first, {**meta, "seq": seq, "closed": seq == 5})).ingested
    results = [ingest_record(store, record_from_stream_dump(
                   second, {**meta, "seq": seq, "closed": seq == 3}))
               for seq in range(1, 4)]
    assert [result.ingested for result in results] == [False, False, True]
    assert "#1" in results[0].detail and "#5 (final)" in results[0].detail
    for reopened in (store, ObservatoryStore(path)):
        (run,) = reopened.runs()
        assert run.routines == 1
        assert stored_stream_metrics(reopened) == (3.0, 1.0)
