"""Dashboards: ASCII and HTML rendering of telemetry runs, farm stats."""

from repro import telemetry
from repro.farm import analyze_file
from repro.reporting import (
    render_farm_stats,
    render_telemetry_dashboard,
    render_telemetry_html,
)
from repro.telemetry import TelemetryRun

from ..farm.util import record_benchmark_v2


def _farm_run(tmp_path):
    path = tmp_path / "run.rpt2"
    record_benchmark_v2("350.md", path, threads=4, scale=0.5)
    with telemetry.session(str(tmp_path / "tele")):
        result = analyze_file(str(path), jobs=2)
    return result, TelemetryRun.load(str(tmp_path / "tele"))


def test_ascii_dashboard_sections(tmp_path):
    _, run = _farm_run(tmp_path)
    dashboard = render_telemetry_dashboard(run)
    assert "span tree" in dashboard
    assert "analyze.pool" in dashboard
    # worker spans harvested from heartbeat files nest under the pool
    assert "\n  worker.decode" in dashboard or "  worker.decode" in dashboard
    assert "worker heartbeats" in dashboard
    assert "events/s" in dashboard
    assert "farm.trace_events" in dashboard
    assert "histogram" in dashboard


def test_html_dashboard_is_self_contained(tmp_path):
    _, run = _farm_run(tmp_path)
    html = render_telemetry_html(run, title="farm run")
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html          # the span timeline
    assert "analyze.pool" in html
    assert "Worker heartbeats" in html
    # no external assets: nothing is fetched from anywhere
    assert "src=" not in html and "href=" not in html


def test_dashboard_of_empty_run_renders():
    run = TelemetryRun([{"type": "meta", "version": 1}])
    dashboard = render_telemetry_dashboard(run)
    assert "spans: 0" in dashboard
    assert render_telemetry_html(run).startswith("<!DOCTYPE html>")


def test_farm_stats_report_telemetry_columns(tmp_path):
    result, _ = _farm_run(tmp_path)
    report = render_farm_stats(result.stats)
    for column in ("dec/ana", "beats", "rss", "retries", "timeouts", "ran"):
        assert column in report
    assert "pool" in report
    # healthy run: no shard fell back inline
    assert "!" not in report.split("(")[0]


def test_farm_stats_sources_shard_counters_from_metrics(tmp_path):
    """The farm's shard counters live in the session metrics and agree
    with the shard books on ``FarmStats``."""
    result, run = _farm_run(tmp_path)
    snapshot = {entry["name"] for entry in run.metrics}
    assert "farm.trace_events" in snapshot
    assert "farm.shard.events" in snapshot
    assert len(result.stats.outcomes) > 1
    for outcome in result.stats.outcomes:
        assert run.counter_value(
            "farm.shard.events", shard=outcome.shard_id) == outcome.events
