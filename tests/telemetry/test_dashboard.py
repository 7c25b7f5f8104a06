"""Dashboards: ASCII and HTML rendering of telemetry runs, farm stats."""

import io

from repro import telemetry
from repro.cli import main
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
        result = analyze_file(str(path))
    return result, TelemetryRun.load(str(tmp_path / "tele"))


def test_ascii_dashboard_sections(tmp_path):
    _, run = _farm_run(tmp_path)
    dashboard = render_telemetry_dashboard(run)
    assert "span tree" in dashboard
    assert "analyze.pass" in dashboard
    assert "heartbeat" not in dashboard
    assert "farm.trace_events" in dashboard
    assert "histogram" in dashboard


def test_html_dashboard_is_self_contained(tmp_path):
    _, run = _farm_run(tmp_path)
    html = render_telemetry_html(run, title="farm run")
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html          # the span timeline
    assert "analyze.pass" in html
    assert "heartbeat" not in html
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
    for column in ("events", "chunks", "wall", "dec/ana", "events/s", "rss"):
        assert column in report
    for column in ("shard", "retries", "timeouts", "ran"):
        assert column not in report
    assert str(result.stats.events) in report


#: A log as ``repro analyze --jobs 2 --telemetry DIR`` wrote it before the
#: pass replaced the process pool: pool and worker spans, one closing
#: ``heartbeat`` per shard, and the farm's shard metrics.
LEGACY_LOG = """\
{"type":"meta","version":1,"epoch":1792245644.323,"pid":27105}
{"type":"span","name":"analyze.plan","id":1,"parent":null,"start":0.034702,"wall":0.000142,"cpu":0.000138,"ok":true,"attrs":{"jobs":2}}
{"type":"span","name":"analyze.pool","id":2,"parent":null,"start":0.034984,"wall":0.011131,"cpu":0.00595,"ok":true,"attrs":{"jobs":2,"shards":2}}
{"type":"span","name":"analyze.merge","id":3,"parent":null,"start":0.046414,"wall":0.000114,"cpu":0.000114,"ok":true,"attrs":{"shards":2}}
{"type":"span","name":"worker.decode","shard":0,"wall":0.000185,"cpu":0.000185,"ok":true,"attrs":{"events":509,"chunks":1},"parent":2}
{"type":"span","name":"worker.analyze","shard":0,"wall":0.003012,"cpu":0.001205,"ok":true,"attrs":{"threads":1},"parent":2}
{"type":"heartbeat","shard":0,"phase":"done","events":509,"rss_kb":15324,"pid":27146,"wall":0.003197}
{"type":"span","name":"worker.decode","shard":1,"wall":0.000182,"cpu":0.000182,"ok":true,"attrs":{"events":509,"chunks":1},"parent":2}
{"type":"span","name":"worker.analyze","shard":1,"wall":0.002442,"cpu":0.001401,"ok":true,"attrs":{"threads":2},"parent":2}
{"type":"heartbeat","shard":1,"phase":"done","events":509,"rss_kb":15148,"pid":27147,"wall":0.002624}
{"type":"metrics","metrics":[{"kind":"gauge","name":"farm.jobs","labels":{},"value":2},{"kind":"counter","name":"farm.shard.events","labels":{"shard":0},"value":509},{"kind":"counter","name":"farm.shard.events","labels":{"shard":1},"value":509},{"kind":"histogram","name":"farm.shard_ms","labels":{},"count":2,"sum":5.821389000630006,"buckets":{"2":2}},{"kind":"counter","name":"farm.shards","labels":{},"value":2},{"kind":"counter","name":"farm.trace_events","labels":{},"value":509}]}
"""


def test_log_with_heartbeats_still_loads_renders_and_ingests(tmp_path):
    """Logs written before heartbeats were dropped keep working: the
    reader skips the record type, and ``repro stats`` and ``repro
    observe ingest`` take the run as they did."""
    run_dir = tmp_path / "tele"
    run_dir.mkdir()
    (run_dir / "telemetry.jsonl").write_text(LEGACY_LOG)
    run = TelemetryRun.load(str(run_dir))
    assert len(run.spans) == 7
    assert run.counter_value("farm.trace_events") == 509
    assert {"analyze.pool", "worker.decode", "worker.analyze"} <= set(run.span_names())

    out = io.StringIO()
    html = tmp_path / "dash.html"
    assert main(["stats", str(run_dir), "--html", str(html)], out=out) == 0
    assert "analyze.pool" in out.getvalue() and "  worker.decode" in out.getvalue()
    assert html.read_text().startswith("<!DOCTYPE html>")

    out = io.StringIO()
    code = main(["observe", "ingest", str(run_dir), "--store", str(tmp_path / "obs")],
                out=out)
    assert code == 0, out.getvalue()
    assert "ingested" in out.getvalue() and "[telemetry]" in out.getvalue()
