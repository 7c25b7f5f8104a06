"""Dashboard tests: ASCII report, HTML document, sparklines."""

import hashlib

from repro.observatory import (
    ObservatoryStore,
    detect_drift,
    render_alert_feed,
    render_observatory_html,
    render_observatory_report,
)
from repro.reporting.ascii_charts import sparkline

from .util import db_from, drifting_history, seeded_store


def test_sparkline_maps_range_to_blocks():
    line = sparkline([1.0, 2.0, 3.0, 4.0])
    assert len(line) == 4
    assert line[0] == "▁"
    assert line[-1] == "█"
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"


def test_sparkline_handles_gaps_and_empty():
    assert sparkline([]) == ""
    assert sparkline([None, None]) == "··"
    line = sparkline([1.0, None, 3.0])
    assert line[1] == "·"
    assert line[0] != "·" and line[2] != "·"


def test_ascii_report_shows_fleet_trajectories_and_alerts(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    report = render_observatory_report(store)
    assert "Profile observatory — 5 run(s), 3 routine(s)" in report
    assert "Fleet summary" in report
    assert "Growth trajectories" in report
    assert "Alert feed" in report
    assert "O(n) -> O(n^2)" in report
    assert "regressed" in report
    # alerted routines rank above steady ones in the trajectory table
    assert report.index("victim") < report.index("stable")
    assert "steady" in report


def test_ascii_report_on_empty_store(tmp_path):
    store = ObservatoryStore(str(tmp_path / "obs"))
    report = render_observatory_report(store)
    assert "0 run(s)" in report
    assert "empty store" in report


def test_alert_feed_without_alerts_says_so():
    feed = render_alert_feed([])
    assert "no drift" in feed


def test_alert_feed_rows_carry_verdict_and_classes(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    feed = render_alert_feed(detect_drift(store))
    assert "victim" in feed
    assert "regressed" in feed
    assert "O(n)" in feed
    assert "O(n^2)" in feed
    assert "x" in feed   # rendered cost ratio


def test_html_dashboard_is_a_complete_document(tmp_path):
    store = seeded_store(tmp_path / "obs", drifting_history())
    html = render_observatory_html(store, title="obs test")
    assert html.startswith("<!DOCTYPE html>")
    assert html.rstrip().endswith("</html>")
    assert "obs test" in html
    assert "victim" in html
    assert "regressed" in html
    assert "<svg" in html            # exponent trajectory figures
    assert "Worst alert" in html     # raw cost plot of the top alert
    assert "#aa2222" in html         # alerted routines plot in red


def test_html_dashboard_on_clean_history(tmp_path):
    store = seeded_store(
        tmp_path / "obs", drifting_history(degrade_from=99, runs=3))
    html = render_observatory_html(store)
    assert "No drift" in html
    assert "Worst alert" not in html


#: SHA-256 of each report of ``_every_verdict_store`` (and of an empty
#: store), with the store's path replaced by ``<store>``
PINNED_REPORTS = {
    "ascii": "8bdad69bb918dfc62ab7ae89baa8d460e4c1f5d14094fa4b55f4c1b0aa2d0628",
    "ascii-tolerance-limit":
        "4e00f9e39fd345d65fc39dd8fefa8dae4feac4d3587e8fefee5ec1aaa4802e9e",
    "html": "d2021bbf49e989b9d58e2274a4d7afe9f115a6d66bea431e3adde8534b470faf",
    "html-tolerance-title":
        "8868c0ee3f6c4ec9cc868ce22db32800cd033c9acdc46d6830f87c0a377e7435",
    "empty-ascii": "3ab302e246bfcc3752f39989fae970d6340d7aa412151c38cbfcab9ba8d7aa3b",
    "empty-html": "b20c26a71b50dbef3026eaba439672058b1fbbfac8c8c64e794875eec4c524b0",
}


def _every_verdict_store(path):
    """Five runs in which every verdict shows: ``victim`` regresses,
    ``slowing`` slows within its class, ``retired`` leaves before the
    last run, ``newcomer`` arrives in it, ``stable`` holds."""
    databases = []
    for index in range(5):
        routines = {
            "stable": lambda n: 10 * n,
            "victim": (lambda n: n * n) if index >= 3 else (lambda n: 3 * n),
            "slowing": (lambda n: 4 * n) if index >= 2 else (lambda n: 2 * n),
        }
        if index < 4:
            routines["retired"] = lambda n: 5 * n
        if index == 4:
            routines["newcomer"] = lambda n: n * n
        databases.append(db_from(routines))
    return seeded_store(path, databases)


def test_reports_are_pinned(tmp_path):
    """Both dashboards stay byte for byte what they were before a report
    made one drift pass (one ``runs()`` read, trajectories built once)."""
    store = _every_verdict_store(tmp_path / "obs")
    empty = ObservatoryStore(str(tmp_path / "empty"))
    reports = {
        "ascii": render_observatory_report(store),
        "ascii-tolerance-limit": render_observatory_report(store, tolerance=2.0, limit=2),
        "html": render_observatory_html(store),
        "html-tolerance-title": render_observatory_html(store, tolerance=2.0, title="t"),
        "empty-ascii": render_observatory_report(empty),
        "empty-html": render_observatory_html(empty),
    }
    digests = {}
    for name, text in reports.items():
        for pinned in (store, empty):
            text = text.replace(pinned.path, "<store>")
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digests == PINNED_REPORTS
    assert f"[{store.path}]" in reports["ascii"]    # the CLI names the path


def test_report_name_replaces_the_path(tmp_path):
    store = _every_verdict_store(tmp_path / "obs")
    report = render_observatory_report(store, name="web")
    html = render_observatory_html(store, name="web")
    assert report.split("\n", 1)[0].endswith("routine(s)  [web]")
    assert "&middot; store: web</p>" in html
    assert store.path not in report and store.path not in html
    assert report == render_observatory_report(store).replace(store.path, "web")
