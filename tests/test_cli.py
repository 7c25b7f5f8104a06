"""Tests for the command-line interface."""

import contextlib
import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_shows_both_suites():
    code, output = run_cli("list")
    assert code == 0
    assert "350.md" in output
    assert "dedup" in output
    assert "spec-omp2012" in output and "parsec" in output


def test_profile_basic():
    code, output = run_cli("profile", "352.nab", "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "basic blocks" in output
    assert "rms profile of 352.nab" in output
    assert "trms profile of 352.nab" in output
    assert "work_region" in output


def test_profile_single_metric():
    code, output = run_cli("profile", "352.nab", "--metric", "rms",
                           "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "rms profile" in output
    assert "trms profile" not in output


def test_profile_unknown_benchmark():
    code, output = run_cli("profile", "999.nothing")
    assert code == 2
    assert "error" in output


def test_profile_with_plot_and_bottlenecks():
    code, output = run_cli("profile", "376.kdtree", "--threads", "2",
                           "--plot", "search", "--bottlenecks")
    assert code == 0
    assert "bottleneck ranking" in output
    assert "worst-case cost plot" in output


def test_profile_plot_unknown_routine():
    code, output = run_cli("profile", "352.nab", "--threads", "2",
                           "--scale", "0.5", "--plot", "missing_routine")
    assert code == 2


def test_profile_context_sensitive():
    code, output = run_cli("profile", "376.kdtree", "--threads", "2", "--context")
    assert code == 0
    assert ";search" in output    # context keys visible in the report


def test_dump_and_fit_roundtrip(tmp_path):
    """``profile --dump`` writes the ``save_profile`` bytes of the online
    TRMS profile, and the file feeds fit, merge, diff and observe ingest."""
    from repro.core import TrmsProfiler
    from repro.farm import save_profile
    from repro.workloads import benchmark

    dump = tmp_path / "p.profile"
    code, _ = run_cli("profile", "376.kdtree", "--threads", "2", "--dump", str(dump))
    assert code == 0
    online = TrmsProfiler()
    benchmark("376.kdtree").run(tools=online, threads=2, scale=1.0)
    expected = io.StringIO()
    save_profile(online.db, expected)
    assert dump.read_bytes() == expected.getvalue().encode("utf-8")

    code, output = run_cli("fit", str(dump), "search")
    assert code == 0
    assert "search:" in output
    assert "R^2" in output
    code, output = run_cli("merge", "-o", str(tmp_path / "all.profile"),
                           str(dump), str(dump))
    assert code == 0 and "merged profile of 2 run(s)" in output
    code, _ = run_cli("diff", str(dump), str(dump))
    assert code == 0
    code, output = run_cli("observe", "ingest", str(dump),
                           "--store", str(tmp_path / "obs"))
    assert code == 0 and f"{dump}: ingested" in output

    sampled = tmp_path / "sampled.profile"
    code, _ = run_cli("profile", "376.kdtree", "--threads", "2", "--sample", "4",
                      "--dump", str(sampled))
    assert code == 0
    assert sampled.read_text().splitlines()[1] == "F lower_bound=1"


def test_fit_unknown_routine(tmp_path):
    dump = tmp_path / "p.profile"
    run_cli("profile", "376.kdtree", "--threads", "2", "--dump", str(dump))
    code, output = run_cli("fit", str(dump), "ghost")
    assert code == 2
    assert "error" in output


@pytest.mark.parametrize("content", [
    None,                                                   # missing file
    "repro-profile 1\nF lower_bound=0\nS 4 1 2 2 2 4\n",    # point before a profile
    "hello\n",                                              # not a dump
], ids=["missing", "point-before-profile", "plain-text"])
def test_fit_rejects_bad_input(tmp_path, content):
    dump = tmp_path / "bad.profile"
    if content is not None:
        dump.write_text(content)
    code, output = run_cli("fit", str(dump), "search")
    assert code == 2
    assert output.startswith("error: ") and output.count("error:") == 1


def test_profile_with_sampling():
    code, output = run_cli("profile", "352.nab", "--threads", "2",
                           "--scale", "0.5", "--sample", "4")
    assert code == 0
    assert "lower bounds" in output


def test_record_and_analyze_roundtrip(tmp_path):
    trace = tmp_path / "run.trace"
    code, output = run_cli("record", "358.botsalgn", str(trace),
                           "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "recorded" in output
    assert trace.exists()
    code, output = run_cli("analyze", str(trace), "--metric", "trms")
    assert code == 0
    assert "trms profile" in output
    assert "do_task" in output


def test_analyze_rejects_non_trace(tmp_path):
    bogus = tmp_path / "bogus.txt"
    for content in ("hello\n",
                    "repro-trace 1\nC\t1\tmain\nR\t1\t0\n"):   # the retired v1 text format
        bogus.write_text(content)
        code, output = run_cli("analyze", str(bogus))
        assert code == 2
        assert output == "error: not a binary trace (bad magic)\n"


def test_record_v2_is_binary_and_analyzable(tmp_path):
    trace = tmp_path / "run.rpt2"
    code, output = run_cli("record", "358.botsalgn", str(trace),
                           "--threads", "2", "--scale", "0.5")
    assert code == 0
    assert "chunks" in output
    assert trace.read_bytes().startswith(b"RPTRACE2")
    code, output = run_cli("analyze", str(trace), "--metric", "trms")
    assert code == 0
    assert "trms profile" in output and "do_task" in output


def test_record_has_no_format_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("record", "376.kdtree", str(tmp_path / "t.rpt2"), "--format", "v1")
    assert exit_info.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("name, induced", [
    ("350.md", 0),        # induced thread reads
    ("367.imagick", 1),   # kernel I/O: induced external reads
])
def test_analyze_dump_bytes_equal_online_profiler(name, induced, tmp_path):
    """``analyze --dump`` writes exactly the bytes ``save_profile``
    writes for the online profiler on the same trace."""
    from repro.core import TrmsProfiler, replay
    from repro.farm import iter_binary_trace, save_profile

    trace = tmp_path / "run.rpt2"
    code, _ = run_cli("record", name, str(trace), "--threads", "4", "--scale", "0.5")
    assert code == 0
    online = TrmsProfiler()
    with open(trace, "rb") as stream:
        replay(iter_binary_trace(stream), online)
    assert online.db.total_induced()[induced] > 0
    expected = io.StringIO()
    save_profile(online.db, expected)
    dump = tmp_path / "analyzed.profile"
    code, _ = run_cli("analyze", str(trace), "--metric", "trms", "--dump", str(dump))
    assert code == 0
    assert dump.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", ["350.md", "367.imagick"])
def test_analyze_rms_dump_equals_online_profile(name, tmp_path):
    """``analyze --metric rms`` over a recorded trace writes the bytes
    ``profile --metric rms`` writes from the live VM run — an oracle
    that does not go through the trace decoder — with and without
    ``--context``."""
    trace = tmp_path / "run.rpt2"
    shape = ("--threads", "4", "--scale", "0.5")
    code, _ = run_cli("record", name, str(trace), *shape)
    assert code == 0
    for context in ((), ("--context",)):
        analyzed = tmp_path / "analyzed.profile"
        code, _ = run_cli("analyze", str(trace), "--metric", "rms", *context,
                          "--dump", str(analyzed))
        assert code == 0
        online = tmp_path / "online.profile"
        code, _ = run_cli("profile", name, "--metric", "rms", *shape, *context,
                          "--dump", str(online))
        assert code == 0
        assert analyzed.read_bytes() == online.read_bytes(), context


def test_analyze_default_metric_is_both_in_one_pass(tmp_path):
    """The default ``--metric both`` dumps the TRMS database, byte for
    byte as ``--metric trms``, and prints the report ``--metric rms``
    prints ahead of it.  An ``--metric rms --context`` run comes between
    the two in the same process, so neither of its options may leak into
    the next ``main`` call."""
    trace = tmp_path / "run.rpt2"
    run_cli("record", "367.imagick", str(trace), "--threads", "4", "--scale", "0.5")
    trms = tmp_path / "trms.profile"
    code, _ = run_cli("analyze", str(trace), "--metric", "trms", "--dump", str(trms))
    assert code == 0
    rms_context = tmp_path / "rms-context.profile"
    code, _ = run_cli("analyze", str(trace), "--metric", "rms", "--context",
                      "--dump", str(rms_context))
    assert code == 0
    both = tmp_path / "both.profile"
    code, output = run_cli("analyze", str(trace), "--dump", str(both))
    assert code == 0
    assert both.read_bytes() == trms.read_bytes() != rms_context.read_bytes()
    code, rms_output = run_cli("analyze", str(trace), "--metric", "rms")
    assert code == 0
    assert output[:output.index(f"trms profile of {trace}")] == rms_output


@pytest.mark.parametrize("metric", ["trms", "rms", "both"])
def test_analyze_dump_of_empty_trace(metric, tmp_path):
    """A 0-event trace dumps the empty database of the metric asked for."""
    from repro.core import ProfileDatabase
    from repro.farm import save_profile, write_binary_trace

    trace = tmp_path / "empty.rpt2"
    with open(trace, "wb") as stream:
        write_binary_trace([], stream)
    dump = tmp_path / "empty.profile"
    code, output = run_cli("analyze", str(trace), "--metric", metric, "--dump", str(dump))
    assert code == 0, output
    expected = io.StringIO()
    save_profile(ProfileDatabase(), expected)
    assert dump.read_bytes() == expected.getvalue().encode("utf-8")


def test_analyze_a_thread_cost_past_int64(tmp_path):
    """Two 2**62-unit COST records take a thread's cost to 2**63, past
    int64: ``analyze --metric both`` still exits 0, and its TRMS dump
    equals the online profiler's on the same trace."""
    from repro.core import Event, EventKind, TrmsProfiler, replay
    from repro.farm import iter_binary_trace, save_profile, write_binary_trace

    half = 1 << 62
    trace = tmp_path / "big.rpt2"
    with open(trace, "wb") as stream:
        write_binary_trace([
            Event(EventKind.COST, 1, half),
            Event(EventKind.COST, 1, half),
            Event(EventKind.CALL, 1, "f"),
            Event(EventKind.READ, 1, 5),
            Event(EventKind.COST, 1, 3),
            Event(EventKind.RETURN, 1, None),
        ], stream)
    online = TrmsProfiler()
    with open(trace, "rb") as stream:
        replay(iter_binary_trace(stream), online)
    assert online.db.profile("<root:1>", 1).cost_sum == 2 * half + 3
    expected = io.StringIO()
    save_profile(online.db, expected)
    dump = tmp_path / "big.profile"
    code, output = run_cli("analyze", str(trace), "--metric", "both", "--dump", str(dump))
    assert code == 0, output
    assert dump.read_bytes() == expected.getvalue().encode("utf-8")


def test_analyze_jobs_stats_report(tmp_path):
    """``--stats`` reports the one pass; ``--jobs`` is no longer an option."""
    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    code, output = run_cli("analyze", str(trace), "--metric", "trms", "--stats")
    assert code == 0
    assert "analysis pass" in output
    assert "events/s" in output and "dec/ana" in output
    assert "shard" not in output


def test_analyze_rms_stats_report(tmp_path):
    """``--stats`` reports the pass under every metric, RMS share included."""
    from repro.farm import analyze_file

    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    code, output = run_cli("analyze", str(trace), "--metric", "rms", "--stats")
    assert code == 0
    assert "analysis pass" in output and "dec/ana/rms" in output
    for metric, has_rms in (("rms", True), ("both", True), ("trms", False)):
        stats = analyze_file(str(trace), metric=metric).stats
        assert (stats.rms_seconds > 0) == has_rms, metric


def test_record_analyze_merge_fit_pipeline(tmp_path):
    """The full farm workflow end to end through temp files."""
    dumps = []
    for index, scale in enumerate(("0.5", "1.0")):
        trace = tmp_path / f"run{index}.rpt2"
        code, _ = run_cli("record", "376.kdtree", str(trace),
                          "--threads", "2", "--scale", scale)
        assert code == 0
        dump = tmp_path / f"run{index}.profile"
        code, output = run_cli("analyze", str(trace), "--metric", "trms",
                               "--dump", str(dump))
        assert code == 0
        assert "profile points" in output
        dumps.append(dump)
    merged = tmp_path / "merged.profile"
    code, output = run_cli("merge", "-o", str(merged), *map(str, dumps))
    assert code == 0
    assert "merged profile of 2 run(s)" in output
    assert merged.exists()
    code, output = run_cli("fit", str(merged), "search")
    assert code == 0
    assert "search:" in output and "R^2" in output


def test_merge_rejects_non_profile(tmp_path):
    bogus = tmp_path / "bogus.profile"
    bogus.write_text("hello\n")
    code, output = run_cli("merge", "-o", str(tmp_path / "out"), str(bogus))
    assert code == 2
    assert "error" in output


def test_profile_html_report(tmp_path):
    html_file = tmp_path / "report.html"
    code, output = run_cli("profile", "376.kdtree", "--threads", "2",
                           "--html", str(html_file))
    assert code == 0
    content = html_file.read_text()
    assert content.startswith("<!DOCTYPE html>")
    assert "search" in content


def test_analyze_with_telemetry_writes_log_and_identical_profile(tmp_path):
    from repro.telemetry import TelemetryRun

    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    dump_without = tmp_path / "without.profile"
    code, _ = run_cli("analyze", str(trace), "--metric", "trms",
                      "--dump", str(dump_without))
    assert code == 0
    dump_with = tmp_path / "with.profile"
    tele_dir = tmp_path / "tele"
    code, output = run_cli("analyze", str(trace), "--metric", "trms",
                           "--dump", str(dump_with), "--telemetry", str(tele_dir))
    assert code == 0
    assert "telemetry written to" in output
    # telemetry observes, never perturbs: bit-identical profile dump
    assert dump_with.read_bytes() == dump_without.read_bytes()
    run = TelemetryRun.load(str(tele_dir))
    assert run.span_names() == ["analyze.pass"]
    assert all(record.get("type") != "heartbeat" for record in run.records)


def test_analyze_both_telemetry_writes_one_pass_span(tmp_path):
    """Both metrics are one pass: one ``analyze.pass`` span, with the RMS
    replay's seconds next to the decode and kernel split."""
    from repro.telemetry import TelemetryRun

    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    tele_dir = tmp_path / "tele"
    code, _ = run_cli("analyze", str(trace), "--metric", "both",
                      "--telemetry", str(tele_dir))
    assert code == 0
    run = TelemetryRun.load(str(tele_dir))
    assert run.span_names() == ["analyze.pass"]
    (span,) = run.spans
    assert {"decode_s", "analyze_s", "rms_s"} <= set(span["attrs"])
    assert span["attrs"]["rms_s"] > 0


def test_stats_renders_dashboard_and_html(tmp_path):
    trace = tmp_path / "run.rpt2"
    run_cli("record", "350.md", str(trace), "--threads", "4", "--scale", "0.5")
    tele_dir = tmp_path / "tele"
    run_cli("analyze", str(trace), "--metric", "trms", "--telemetry", str(tele_dir))
    html_file = tmp_path / "dash.html"
    code, output = run_cli("stats", str(tele_dir), "--html", str(html_file))
    assert code == 0
    assert "span tree" in output
    assert "analyze.pass" in output
    assert html_file.read_text().startswith("<!DOCTYPE html>")


def test_stats_rejects_missing_run(tmp_path):
    code, output = run_cli("stats", str(tmp_path / "nope"))
    assert code == 2
    assert "error" in output


def test_overhead_command_reports_slowdowns():
    code, output = run_cli("overhead", "352.nab", "--threads", "2",
                           "--scale", "0.4", "--repeats", "1",
                           "--tools", "aprof-rms,aprof-trms")
    assert code == 0
    assert "native" in output and "aprof-trms" in output
    assert "slowdown" in output


def test_overhead_unknown_benchmark():
    code, output = run_cli("overhead", "999.nothing")
    assert code == 2
    assert "error" in output


def test_record_with_telemetry_counts_events(tmp_path):
    from repro.telemetry import TelemetryRun

    trace = tmp_path / "run.rpt2"
    tele_dir = tmp_path / "tele"
    code, output = run_cli("record", "358.botsalgn", str(trace),
                           "--threads", "2", "--scale", "0.5",
                           "--telemetry", str(tele_dir))
    assert code == 0
    run = TelemetryRun.load(str(tele_dir))
    events = int(output.split("recorded ")[1].split(" events")[0])
    assert run.counter_value("record.events") == events
    assert run.spans_named("record")[0]["attrs"]["events"] == events


@pytest.mark.parametrize("argv", [
    ["record", "350.md", "{out}", "--chunk-events", "0"],
    ["record", "350.md", "{out}", "--threads", "0"],
    ["record", "350.md", "{out}", "--threads", "-3"],
    ["record", "350.md", "{out}", "--live", "{out}.d", "--checkpoint-events", "0"],
    ["profile", "350.md", "--threads", "0", "--dump", "{out}"],
    ["overhead", "350.md", "--threads", "0", "--telemetry", "{out}"],
    ["watch", "{trace}", "--checkpoints", "{out}", "--checkpoint-events", "0", "--once"],
], ids=["record-chunk-events", "record-threads", "record-negative-threads",
        "record-checkpoint-events", "profile-threads", "overhead-threads",
        "watch-checkpoint-events"])
def test_non_positive_counts_exit_2_before_any_file(argv, tmp_path, capsys):
    """A count below 1 is a usage error at parse time: no traceback, and
    no trace, sidecar, dump or checkpoint directory is left behind."""
    trace = tmp_path / "sealed.rpt2"
    if "{trace}" in argv:
        assert run_cli("record", "350.md", str(trace), "--scale", "0.2")[0] == 0
    argv = [arg.format(out=tmp_path / "out", trace=trace) for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert {path.name for path in tmp_path.iterdir()} <= {"sealed.rpt2"}


@pytest.mark.parametrize("name", ["350.md", "367.imagick"])
def test_live_recording_writes_the_plain_trace(name, tmp_path):
    """``record --live`` adds a sidecar and checkpoints beside the trace
    but writes the trace itself byte for byte as a plain ``record``."""
    plain = tmp_path / "plain.rpt2"
    live = tmp_path / "live.rpt2"
    assert run_cli("record", name, str(plain), "--chunk-events", "512")[0] == 0
    assert run_cli("record", name, str(live), "--chunk-events", "512",
                   "--live", str(tmp_path / "ckpt"))[0] == 0
    assert live.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("argv", [
    ["watch", "{out}", "--interval", "-1"],
    ["watch", "{out}", "--timeout", "0"],
    ["watch", "{out}", "--once", "--top", "-1"],
    ["watch", "{out}", "--once", "--top", "0"],
    ["profile", "350.md", "--sample", "-3", "--dump", "{out}"],
    ["serve", "--root", "{out}", "--workers", "0"],
    ["serve", "--root", "{out}", "--capacity", "0"],
    ["serve", "--root", "{out}", "--slo-window", "0"],
    ["overhead", "352.nab", "--threads", "2", "--scale", "0.1", "--repeats", "0",
     "--telemetry", "{out}"],
], ids=["watch-interval-negative", "watch-timeout-0", "watch-top-negative",
        "watch-top-0", "profile-sample-negative", "serve-workers", "serve-capacity",
        "serve-slo-window", "overhead-repeats"])
def test_non_positive_options_exit_2_before_any_work(argv, tmp_path, capsys):
    """A count below 1 or a duration of 0 or less is a usage error at
    parse time: no profile dump, tenant root or telemetry log is
    written, and no server is started."""
    trace = tmp_path / "sealed.rpt2"
    if "{trace}" in argv:
        assert run_cli("record", "350.md", str(trace), "--scale", "0.2")[0] == 0
    argv = [arg.format(out=tmp_path / "out", trace=trace) for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "must be a positive" in err
    assert {path.name for path in tmp_path.iterdir()} <= {"sealed.rpt2"}


@pytest.mark.parametrize("argv,message", [
    (["diff", "{old}", "{old}", "--tolerance", "0.5", "--fail-on", "slower"],
     "must be at least 1.0"),
    (["observe", "report", "--store", "{out}", "--tolerance", "0.9"],
     "must be at least 1.0"),
    (["observe", "alerts", "--store", "{out}", "--tolerance", "nan"],
     "must be a positive, finite number"),
    (["observe", "report", "--store", "{out}", "--limit", "0"],
     "must be a positive integer"),
    (["observe", "report", "--store", "{out}", "--limit", "-1"],
     "must be a positive integer"),
], ids=["diff-tolerance", "report-tolerance", "alerts-tolerance-nan",
        "report-limit-0", "report-limit-negative"])
def test_out_of_range_tolerance_and_limit_exit_2_before_any_work(
        argv, message, tmp_path, capsys):
    """A tolerance below 1.0 (two equal profiles would read as slower) or
    a ``--limit`` below 1 is a usage error at parse time: no store is
    created."""
    from repro.core import ProfileDatabase
    from repro.farm import save_profile

    old = tmp_path / "old.profile"
    if "{old}" in argv:
        db = ProfileDatabase()
        for size in (4, 8, 16, 32, 64):
            db.add_activation("f", 1, size, 3 * size)
        with open(old, "w") as stream:
            save_profile(db, stream)
    argv = [arg.format(out=tmp_path / "out", old=old) for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err
    assert {path.name for path in tmp_path.iterdir()} <= {"old.profile"}


@pytest.mark.parametrize("argv", [
    ["profile", "352.nab", "--threads", "2", "--scale", "0.2", "--dump", "{bad}"],
    ["profile", "352.nab", "--threads", "2", "--scale", "0.2", "--html", "{bad}"],
    ["analyze", "{trace}", "--metric", "trms", "--dump", "{bad}"],
    ["merge", "-o", "{bad}", "{dump}"],
    ["observe", "report", "--store", "{store}", "--html", "{bad}"],
    ["stats", "{tele}", "--html", "{bad}"],
    ["trace", "{tele}", "--html", "{bad}"],
    ["slap", "--port", "{port}", "--clients", "1", "--uploads", "1", "--json", "{bad}"],
], ids=["profile-dump", "profile-html", "analyze-dump", "merge-output",
        "observe-report-html", "stats-html", "trace-html", "slap-json"])
def test_unwritable_output_path_exits_2(argv, tmp_path):
    """An output file whose directory does not exist ends the command
    with one ``error:`` line and exit status 2, not a traceback."""
    from repro.telemetry import Telemetry

    from .service.util import running_server

    bad = tmp_path / "missing-dir" / "out"
    fields = {"bad": bad}
    if "{trace}" in argv:
        fields["trace"] = tmp_path / "run.rpt2"
        assert run_cli("record", "350.md", str(fields["trace"]), "--scale", "0.2")[0] == 0
    if "{dump}" in argv or "{store}" in argv:
        fields["dump"] = tmp_path / "run.profile"
        assert run_cli("profile", "352.nab", "--threads", "2", "--scale", "0.2",
                       "--dump", str(fields["dump"]))[0] == 0
        fields["store"] = tmp_path / "obs"
        assert run_cli("observe", "ingest", str(fields["dump"]),
                       "--store", str(fields["store"]))[0] == 0
    if "{tele}" in argv:     # one traced span, so `trace` has a trace to render
        fields["tele"] = tmp_path / "tele"
        tele = Telemetry(str(fields["tele"]))
        with tele.trace():
            with tele.span("client.put"):
                pass
        tele.close()
    with contextlib.ExitStack() as stack:
        if "{port}" in argv:
            fields["port"] = stack.enter_context(running_server(tmp_path)).port
        code, output = run_cli(*(arg.format(**fields) for arg in argv))
    assert code == 2, output
    errors = [line for line in output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "missing-dir" in errors[0], output
    assert not bad.parent.exists()
