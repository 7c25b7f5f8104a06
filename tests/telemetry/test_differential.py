"""Telemetry never perturbs profiles: bit-identical output on vs off."""

from repro import telemetry
from repro.core import TrmsProfiler, replay
from repro.farm import analyze_file
from repro.telemetry import TelemetryRun

from ..farm.util import comparable, online_db, record_benchmark_v2


def test_online_profiler_identical_with_telemetry(tmp_path):
    events = record_benchmark_v2("376.kdtree", tmp_path / "run.rpt2",
                                 threads=3, scale=0.5)
    baseline = comparable(online_db(events))
    with telemetry.session(str(tmp_path / "tele")):
        profiler = TrmsProfiler(keep_activations=True)
        replay(events, profiler)
        profiler.on_finish()
        observed = comparable(profiler.db)
    assert observed == baseline
    run = TelemetryRun.load(str(tmp_path / "tele"))
    assert run.counter_value("profiler.timestamps", tool="aprof-trms") > 0


def test_farm_identical_with_telemetry_enabled(tmp_path):
    """The acceptance gate: farm profiles with a live telemetry session
    equal both the telemetry-off farm run and the online profiler, and
    the session leaves a parseable event log with farm spans and
    worker heartbeats."""
    path = tmp_path / "run.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5)
    without = analyze_file(str(path), jobs=2, keep_activations=True)
    with telemetry.session(str(tmp_path / "tele")):
        with_tele = analyze_file(str(path), jobs=2, keep_activations=True)
    assert comparable(with_tele.db) == comparable(without.db)
    assert comparable(with_tele.db) == comparable(online_db(events))

    run = TelemetryRun.load(str(tmp_path / "tele"))
    assert {"analyze.plan", "analyze.pool", "analyze.merge"} <= \
        set(run.span_names())
    assert run.heartbeats, "workers reported no heartbeats"
    shards = run.heartbeats_by_shard()
    assert set(shards) == {outcome.shard_id
                           for outcome in with_tele.stats.outcomes}
    for beats in shards.values():
        assert beats[-1]["phase"] == "done"
    assert run.counter_value("farm.trace_events") == len(events)
    # one closing heartbeat and two worker spans per shard, under the pool
    assert all(len(beats) == 1 for beats in shards.values())
    (pool,) = run.spans_named("analyze.pool")
    for name in ("worker.decode", "worker.analyze"):
        spans = run.spans_named(name)
        assert sorted(span["shard"] for span in spans) == sorted(shards)
        assert all(span["parent"] == pool["id"] for span in spans)


def test_inline_shard_spans_nest_under_its_inline_span(tmp_path):
    """At ``jobs=1`` the one shard runs inline: its worker spans and its
    heartbeat are rebuilt from the result, under ``analyze.inline``."""
    path = tmp_path / "run.rpt2"
    record_benchmark_v2("350.md", path, threads=3, scale=0.4)
    with telemetry.session(str(tmp_path / "tele")):
        result = analyze_file(str(path), jobs=1)
    run = TelemetryRun.load(str(tmp_path / "tele"))
    (inline,) = run.spans_named("analyze.inline")
    assert "analyze.pool" not in run.span_names()
    for name in ("worker.decode", "worker.analyze"):
        (span,) = run.spans_named(name)
        assert (span["shard"], span["parent"]) == (0, inline["id"])
    (beat,) = run.heartbeats
    assert (beat["shard"], beat["phase"], beat["events"]) == \
        (0, "done", result.stats.outcomes[0].events)


def test_farm_stats_equal_with_and_without_session(tmp_path):
    """The shard books on ``FarmStats`` do not depend on a live session."""
    path = tmp_path / "run.rpt2"
    record_benchmark_v2("canneal", path, threads=3, scale=0.4)
    without = analyze_file(str(path), jobs=2)
    with telemetry.session(str(tmp_path / "tele")):
        with_tele = analyze_file(str(path), jobs=2)

    def tallies(stats):
        return [(o.shard_id, o.where, o.retries, o.timeouts, o.fell_back)
                for o in stats.outcomes]

    assert len(without.stats.outcomes) > 1
    assert tallies(with_tele.stats) == tallies(without.stats)
