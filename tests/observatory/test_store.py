"""Store tests: round-trips through the log, idempotency, gc, crash
tolerance, every read pinned, refused numbers and what a write costs."""

import hashlib
import json
import os

import pytest

from repro.observatory import (
    HISTORY_FILENAME,
    CurveRecord,
    ObservatoryStore,
    RunRecord,
    record_from_envelope,
    record_from_profile_db,
    record_from_telemetry,
)
from repro.observatory.store import _record_to_json

from .util import db_from, drifting_history, seeded_store


def empty_run(run_id, timestamp="2026-07-01T00:00:00+00:00", **overrides):
    fields = dict(
        run_id=run_id,
        git_sha="cafe1234",
        timestamp=timestamp,
        scale=2.0,
        source="profile",
        events=100,
        metrics={},
        curves=[],
        points={},
    )
    fields.update(overrides)
    return RunRecord(**fields)


def test_round_trip_through_reopen(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    before_runs = store.runs()
    before_curves = {name: store.curve_trajectory(name)
                     for name in store.routines()}
    before_points = store.points_for(0, "victim")
    assert before_points, "top-K raw plot points should be stored"
    store.close()

    reopened = ObservatoryStore(str(tmp_path / "obs"))
    assert len(reopened) == 5
    assert reopened.runs() == before_runs
    assert reopened.routines() == ["loglike", "stable", "victim"]
    for name, curves in before_curves.items():
        assert reopened.curve_trajectory(name) == curves
    assert reopened.points_for(0, "victim") == before_points


def test_add_run_is_idempotent_by_run_id(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    record = empty_run("r1", metrics={"farm.jobs": 4.0})
    assert store.add_run(record)
    assert not store.add_run(record)
    assert not store.add_run(record._replace(git_sha="other"))
    assert len(store) == 1
    assert store.has_run("r1")

    with open(store.path, encoding="utf-8") as stream:
        lines = [line for line in stream if line.strip()]
    # one meta line + one run line: the duplicate never reached the log
    assert len(lines) == 2


def test_metrics_and_scale_round_trip_fixed_point(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run(
        "r1", scale=0.25,
        metrics={"farm.events_per_s": 12345.678901, "counter.drops": 3.0},
    ))
    (info,) = store.runs()
    assert info.scale == pytest.approx(0.25)
    metrics = store.metrics_for(info.seq)
    assert metrics["counter.drops"] == pytest.approx(3.0)
    # micro-unit fixed point keeps six fractional digits
    assert metrics["farm.events_per_s"] == pytest.approx(12345.678901, abs=1e-6)


def test_curve_row_predict_matches_fit(tmp_path):
    store = seeded_store(tmp_path / "obs", [db_from({"f": lambda n: 10 * n})])
    (row,) = store.curve_trajectory("f")
    assert row.model == "O(n)"
    assert row.predict(64) == pytest.approx(640, rel=0.05)
    assert row.exponent == pytest.approx(1.0, abs=0.1)


def test_runs_ordered_by_timestamp_then_seq(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run("late", timestamp="2026-07-09T00:00:00+00:00"))
    store.add_run(empty_run("early", timestamp="2026-07-01T00:00:00+00:00"))
    assert [info.run_id for info in store.runs()] == ["early", "late"]


def test_gc_keeps_newest_runs_and_compacts_log(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    assert store.gc(keep=2) == 3
    assert len(store) == 2
    assert [info.run_id for info in store.runs()] == ["run3", "run4"]
    # the compaction is durable: a reopen sees the same survivors
    store.close()
    reopened = ObservatoryStore(str(tmp_path / "obs"))
    assert [info.run_id for info in reopened.runs()] == ["run3", "run4"]
    assert reopened.curve_trajectory("victim")[0].model == "O(n^2)"


def test_gc_noop_when_keep_covers_history(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history(runs=2))
    assert store.gc(keep=5) == 0
    assert len(store) == 2
    with pytest.raises(ValueError):
        store.gc(keep=-1)


def test_truncated_trailing_line_is_ignored(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history(runs=2))
    store.close()
    path = tmp_path / "obs" / HISTORY_FILENAME
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"type": "run", "run_id": "torn')   # crash mid-append
    reopened = ObservatoryStore(str(path.parent))
    assert len(reopened) == 2
    # the store stays writable after recovery
    assert reopened.add_run(empty_run("r3"))
    assert len(reopened) == 3


def test_history_lines_are_self_describing(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run("r1", curves=[
        CurveRecord("f", "O(n)", 10.0, 1.0, 0.99, 5, 64, 1.02),
    ]))
    with open(store.path, encoding="utf-8") as stream:
        records = [json.loads(line) for line in stream if line.strip()]
    assert records[0] == {"type": "meta", "schema": "repro-observatory/1"}
    assert records[1]["type"] == "run"
    assert records[1]["schema"] == "repro-observatory/1"
    assert records[1]["curves"][0]["model"] == "O(n)"


def test_store_creates_directory(tmp_path):
    root = tmp_path / "deep" / "obs"
    store = ObservatoryStore(str(root))
    assert os.path.exists(store.path)
    assert len(store) == 0
    assert store.runs() == []


# -- every read, pinned -------------------------------------------------------


class _TelemetryStub:
    """What ``record_from_telemetry`` reads of a ``TelemetryRun``."""

    metrics = [
        {"kind": "counter", "name": "record.events", "value": 4096},
        {"kind": "counter", "name": "binfmt.chunks", "value": 4},
        {"kind": "gauge", "name": "ignored", "value": 1.5},
    ]

    @staticmethod
    def span_totals():
        return {"record": {"wall": 0.123456789, "calls": 1},
                "flatkernel": {"wall": 1 / 3, "calls": 7}}


def pinned_history(root):
    """A history that touches every read: drifting profile runs stored out
    of timestamp order, a timestamp tie, an unparseable timestamp, a
    routine with plot points but no curve, a curve without an exponent, one
    routine fitted twice in a run, a stream superseded from partial to
    closed with a late checkpoint in its log, a bench envelope and a
    telemetry run."""
    store = ObservatoryStore(str(root))
    stamps = ["2026-07-04T00:00:00+00:00", "2026-07-02T00:00:00+00:00",
              "2026-07-02T00:00:00+00:00", "not a time", "2026-07-09T12:30:00Z"]
    for index, db in enumerate(drifting_history()):
        db.add_activation("rare", 1, 4, 9)
        db.add_activation("rare", 1, 8, 20)
        assert store.add_run(record_from_profile_db(
            db, run_id=f"run{index}", git_sha=f"sha{index}",
            timestamp=stamps[index], scale=0.1 * (index + 1)))
    assert not store.add_run(empty_run("run2", git_sha="ignored"))
    store.add_run(empty_run(
        "hand", timestamp="2026-07-03T00:00:00+00:00", scale=1 / 7,
        metrics={"z.last": 2.0000004, "a.first": -0.0000005, "m.mid": 1e9 / 3},
        curves=[CurveRecord("victim", "O(n)", 1 / 3, -2 / 3, 0.987654321, 4, 32, None),
                CurveRecord("lonely", "O(n log n)", 2.5, 0.0, 1.0, 3, 16, 1.1),
                CurveRecord("victim", "O(n^2)", 0.5, 1.5, 0.5, 4, 32, 2.0000007)],
        points={"lonely": [(16, 90), (4, 10), (8, 40)]}))

    def checkpoint(seq, closed, routines):
        record = record_from_profile_db(
            db_from(routines), run_id="stream-live", git_sha="sha-live",
            timestamp=f"2026-07-05T00:00:{seq:02d}+00:00", scale=1.0,
            source="stream")
        metrics = dict(record.metrics, **{"streaming.seq": float(seq),
                                          "streaming.closed": float(closed),
                                          "streaming.checkpoint_lag_ms": 0.25 * seq})
        return record._replace(metrics=metrics)

    assert store.add_run(checkpoint(1, False, {"stable": lambda n: 10 * n}),
                         supersede=True)
    assert store.add_run(checkpoint(2, False, {"stable": lambda n: 11 * n,
                                               "streamed": lambda n: n * n}),
                         supersede=True)
    assert store.add_run(checkpoint(3, True, {"stable": lambda n: 12 * n,
                                              "streamed": lambda n: 2 * n}),
                         supersede=True)
    late = checkpoint(2, False, {"stable": lambda n: 99 * n})
    assert not store.add_run(late, supersede=True)
    store.add_run(record_from_envelope({
        "schema": "repro-bench/1", "bench": "fig4", "run_id": "bench-1",
        "git_sha": "sha-bench", "timestamp": "2026-07-02T00:00:00+00:00",
        "scale": 2.5, "metrics": {"gate": {"ratio": 1.2345678, "ok": True},
                                  "wall_s": 0.5}}))
    store.add_run(record_from_telemetry(
        _TelemetryStub(), run_id="tele-1", git_sha="sha-tele",
        timestamp="2026-07-06T00:00:00+00:00", scale=0.0))
    store.add_run(empty_run("stamp-less", timestamp="", git_sha="", source=""))
    # a late checkpoint that reached the log anyway (a second writer):
    # replay must skip it as add_run did
    with open(store.path, "a", encoding="utf-8") as stream:
        payload = _record_to_json(late)
        payload["supersede"] = True
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
    return store


def store_reads(store):
    """Every read of ``store`` as plain lists, in the order each returns."""
    runs = store.runs()
    seqs = list(range(-1, len(store) + 1))
    routines = store.routines()
    names = routines + ["rare", "never-seen"]
    partial = {info.seq: position for position, info in enumerate(runs[:3])}
    return {
        "len": len(store),
        "runs": [list(info) for info in runs],
        "run_order": sorted(store.run_order().items()),
        "routines": routines,
        "has_run": [store.has_run(info.run_id) for info in runs]
        + [store.has_run("never-seen")],
        "trajectories": [[list(row) for row in store.curve_trajectory(name)]
                         for name in names],
        "partial_order": [[list(row) for row in store.curve_trajectory(name, partial)]
                          for name in names],
        "curves_for_run": [[list(row) for row in store.curves_for_run(seq)]
                           for seq in seqs],
        "points_for": [[seq, name, store.points_for(seq, name)]
                       for seq in seqs for name in names],
        "metrics_for": [store.metrics_for(seq) for seq in seqs],
    }


def read_digest(store):
    """SHA-256 of the canonical JSON of :func:`store_reads` (a replayed
    record's metrics come back in the log's sorted key order)."""
    text = json.dumps(store_reads(store), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: :func:`read_digest` of :func:`pinned_history`, and of it after
#: ``gc(keep=4)``; both taken from the minidb-backed store this one
#: replaced, so every read answers what it answered then
PINNED_READS = "32a18b0a03f6a064a6f7bfa63b65465e3e7221498edc3501f4045084050ef824"
PINNED_READS_AFTER_GC = "5dc709b1f4aea802067ee3851824d1a2c9657968668dfa6a1d8e73d85cc1638f"


def test_every_read_is_pinned_and_survives_a_reopen(tmp_path):
    store = pinned_history(tmp_path / "obs")
    assert read_digest(store) == PINNED_READS
    store.close()
    assert read_digest(ObservatoryStore(str(tmp_path / "obs"))) == PINNED_READS


def test_reads_after_gc_are_pinned_and_survive_a_reopen(tmp_path):
    pinned_history(tmp_path / "obs").close()
    store = ObservatoryStore(str(tmp_path / "obs"))
    assert store.gc(keep=4) == 6
    assert read_digest(store) == PINNED_READS_AFTER_GC
    store.close()
    reopened = ObservatoryStore(str(tmp_path / "obs"))
    assert read_digest(reopened) == PINNED_READS_AFTER_GC


# -- numbers the store cannot keep --------------------------------------------


@pytest.mark.parametrize("overrides,field", [
    ({"scale": float("inf")}, "scale"),
    ({"scale": float("nan")}, "scale"),
    ({"metrics": {"ok": 1.0, "wall_s": float("-inf")}}, "metric 'wall_s'"),
    ({"metrics": {"huge": 1e303}}, "metric 'huge'"),
    ({"curves": [CurveRecord("f", "O(n)", float("nan"), 0.0, 1.0, 5, 64, 1.0)]},
     "curve 'f' a"),
    ({"curves": [CurveRecord("f", "O(n)", 1.0, float("inf"), 1.0, 5, 64, 1.0)]},
     "curve 'f' b"),
    ({"curves": [CurveRecord("f", "O(n)", 1.0, 0.0, float("nan"), 5, 64, 1.0)]},
     "curve 'f' r2"),
    ({"curves": [CurveRecord("f", "O(n)", 1.0, 0.0, 1.0, 5, 64, float("inf"))]},
     "curve 'f' exponent"),
], ids=["scale-inf", "scale-nan", "metric-inf", "metric-huge", "curve-a",
        "curve-b", "curve-r2", "curve-exponent"])
def test_a_number_the_store_cannot_keep_is_refused_before_the_log(
        tmp_path, overrides, field):
    store = ObservatoryStore(str(tmp_path / "obs"))
    assert store.add_run(empty_run("good"))
    with open(store.path, "rb") as stream:
        log = stream.read()
    for supersede in (False, True):
        for run_id in ("bad", "good"):
            with pytest.raises(ValueError, match=f"run '{run_id}': {field} is "):
                store.add_run(empty_run(run_id, **overrides), supersede=supersede)
    with open(store.path, "rb") as stream:
        assert stream.read() == log
    assert [info.run_id for info in ObservatoryStore(store.root).runs()] == ["good"]


def test_replay_skips_a_line_an_older_version_poisoned(tmp_path):
    """Older versions logged a run before rounding its numbers, and every
    later open died on the line; replay now skips it like a torn one."""
    store = ObservatoryStore(str(tmp_path / "obs"))
    store.add_run(empty_run("good", metrics={"streaming.seq": 1.0}))
    good = _record_to_json(store.record_for("good"))
    poisoned = [
        dict(_record_to_json(empty_run("inf-scale")), scale=float("inf")),
        dict(_record_to_json(empty_run("nan-scale")), scale=float("nan")),
        dict(_record_to_json(empty_run("bench")), metrics={"wall_s": float("inf")}),
        dict(good, supersede=True, metrics={"streaming.seq": float("nan")}),
    ]
    with open(store.path, "a", encoding="utf-8") as stream:
        for payload in poisoned:
            stream.write(json.dumps(payload, sort_keys=True) + "\n")
    with open(store.path, encoding="utf-8") as stream:
        text = stream.read()
    assert "Infinity" in text and "NaN" in text
    reopened = ObservatoryStore(store.root)
    assert [info.run_id for info in reopened.runs()] == ["good"]
    assert reopened.metrics_for(0) == {"streaming.seq": 1.0}
    assert reopened.add_run(empty_run("inf-scale"))     # stays writable
    assert len(ObservatoryStore(store.root)) == 2


@pytest.mark.parametrize("line", [
    '[1]',
    '"x"',
    '{"type": "run"}',
    '{"type": "run", "run_id": "r", "curves": 5}',
    '{"type": "run", "run_id": "r", "points": [1]}',
    '{"type": "run", "run_id": "r", "curves": [{"routine": "f"}]}',
], ids=["list", "string", "no-run-id", "curves-not-a-list", "points-not-a-map",
        "curve-without-model"])
def test_replay_skips_a_line_that_is_no_run_record(tmp_path, line):
    """A log line of valid JSON that is no run object is skipped like a
    torn one: the store opens and reads as if the line were not there."""
    pinned_history(tmp_path / "clean").close()
    with open(os.path.join(tmp_path / "clean", HISTORY_FILENAME), encoding="utf-8") as stream:
        lines = stream.read().splitlines(keepends=True)
    os.makedirs(tmp_path / "odd")
    odd = os.path.join(tmp_path / "odd", HISTORY_FILENAME)
    with open(odd, "w", encoding="utf-8") as stream:
        stream.writelines(lines[:3] + [line + "\n"] + lines[3:])
    store = ObservatoryStore(str(tmp_path / "odd"))
    assert store_reads(store) == store_reads(ObservatoryStore(str(tmp_path / "clean")))
    assert store.add_run(empty_run("r"))                # stays writable
    assert len(ObservatoryStore(store.root)) == len(store)


# -- what a write and an open cost --------------------------------------------


def count_applies(monkeypatch):
    """Count calls of the store's one per-record step."""
    calls = []
    original = ObservatoryStore._apply

    def counted(self, seq, record):
        calls.append(record.run_id)
        return original(self, seq, record)

    monkeypatch.setattr(ObservatoryStore, "_apply", counted)
    return calls


def stream_checkpoint(seq, closed=False):
    return empty_run("stream", timestamp="2026-07-02T00:00:00+00:00",
                     source="stream",
                     metrics={"streaming.seq": float(seq),
                              "streaming.closed": float(closed)})


def test_a_write_an_open_and_gc_apply_each_run_once(tmp_path, monkeypatch):
    """A superseding add applies one record, not the whole history; an
    open applies each resolved run once, however many superseded or late
    lines its log carries; gc applies its survivors."""
    store = ObservatoryStore(str(tmp_path / "obs"))
    for index in range(49):
        store.add_run(empty_run(f"run{index}",
                                timestamp=f"2026-07-01T00:{index:02d}:00+00:00"))
    for seq in range(1, 6):
        assert store.add_run(stream_checkpoint(seq), supersede=True)
    late = stream_checkpoint(2)
    with open(store.path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(dict(_record_to_json(late), supersede=True)) + "\n")
    assert len(store) == 50
    calls = count_applies(monkeypatch)

    assert store.add_run(stream_checkpoint(6), supersede=True)
    assert calls == ["stream"]
    assert not store.add_run(late, supersede=True)
    assert not store.add_run(empty_run("run7"))
    assert calls == ["stream"]

    del calls[:]
    reopened = ObservatoryStore(store.root)
    assert len(calls) == len(reopened) == 50
    assert reopened.metrics_for(reopened.runs()[-1].seq)["streaming.seq"] == 6.0

    del calls[:]
    assert reopened.gc(keep=10) == 40
    assert len(calls) == 10


def test_the_observatory_and_the_server_load_no_minidb(tmp_path):
    """minidb and the tracing harness serve the paper's case studies; the
    store does not build on them."""
    import subprocess
    import sys

    import repro

    probe = ("import sys, repro.observatory, repro.service.server; "
             "print(sorted(name for name in sys.modules "
             "if name.startswith(('repro.minidb', 'repro.pytrace'))))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    result = subprocess.run([sys.executable, "-c", probe], env=env, cwd=str(tmp_path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
