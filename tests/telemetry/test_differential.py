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
    the session leaves a parseable event log with one span for the
    pass, carrying its numbers, and no heartbeat records."""
    path = tmp_path / "run.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5)
    without = analyze_file(str(path), keep_activations=True)
    with telemetry.session(str(tmp_path / "tele")):
        with_tele = analyze_file(str(path), keep_activations=True)
    assert comparable(with_tele.db) == comparable(without.db)
    assert comparable(with_tele.db) == comparable(online_db(events))

    run = TelemetryRun.load(str(tmp_path / "tele"))
    assert run.span_names() == ["analyze.pass"]
    (span,) = run.spans
    stats = with_tele.stats
    assert span["attrs"]["events"] == stats.events == len(events)
    assert span["attrs"]["chunks"] == stats.chunks > 1
    assert span["attrs"]["decode_s"] == round(stats.decode_seconds, 6)
    assert span["attrs"]["analyze_s"] == round(stats.analyze_seconds, 6)
    assert run.counter_value("farm.trace_events") == len(events)
    assert all(record.get("type") != "heartbeat" for record in run.records)


def test_farm_stats_equal_with_and_without_session(tmp_path):
    """The pass's counts on ``FarmStats`` do not depend on a live session."""
    path = tmp_path / "run.rpt2"
    record_benchmark_v2("canneal", path, threads=3, scale=0.4)
    without = analyze_file(str(path))
    with telemetry.session(str(tmp_path / "tele")):
        with_tele = analyze_file(str(path))

    def counts(stats):
        return stats.events, stats.chunks, stats.retries, stats.fallbacks

    assert counts(with_tele.stats) == counts(without.stats)
    assert without.stats.events > 0 and without.stats.retries == without.stats.fallbacks == 0
