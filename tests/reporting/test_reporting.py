"""Tests for ASCII rendering, reports and figure builders."""

import pytest

from repro.core import ProfileDatabase
from repro.reporting import (
    bars,
    external_input_curve,
    induced_breakdown,
    render_report,
    richness_curve,
    scatter,
    table,
    thread_input_curve,
    volume_curve,
    worst_case_series,
)


def sample_db():
    db = ProfileDatabase()
    db.add_activation("f", 1, size=2, cost=10, induced_thread=1)
    db.add_activation("f", 1, size=2, cost=30)
    db.add_activation("f", 2, size=5, cost=50, induced_external=2)
    db.add_activation("g", 1, size=1, cost=4)
    db.global_induced_thread = 1
    db.global_induced_external = 2
    return db


# -- ascii ------------------------------------------------------------------------


def test_scatter_renders_extremes():
    chart = scatter([(1, 1), (10, 100)], width=20, height=5, title="t")
    assert "t" in chart
    assert "100" in chart and "1" in chart
    assert chart.count("*") == 2


def test_scatter_empty():
    assert "(no points)" in scatter([])


def test_scatter_single_point():
    chart = scatter([(5, 7)], width=10, height=4)
    assert chart.count("*") == 1


def test_table_alignment():
    rendered = table(["name", "value"], [["a", 1], ["long-name", 22]])
    lines = rendered.splitlines()
    assert lines[0].startswith("name")
    assert len({len(line) for line in lines[:2]}) == 1


def test_bars():
    rendered = bars([("x", 50.0), ("y", 100.0)], width=10, unit="%")
    assert "##########" in rendered
    assert "#####" in rendered


def test_bars_empty():
    assert "(no data)" in bars([])


# -- report -----------------------------------------------------------------------


def test_render_report_merged():
    report = render_report(sample_db(), title="session")
    assert "session" in report
    assert "f" in report and "g" in report
    assert "induced split" in report
    assert "33.3% thread / 66.7% external" in report


def test_render_report_per_thread():
    report = render_report(sample_db(), merged=False)
    # per-thread rows: f appears for threads 1 and 2
    assert report.count("f") >= 2


# -- figures -----------------------------------------------------------------------


def test_worst_case_series_merges_threads():
    series = worst_case_series(sample_db(), "f")
    assert series == [(2, 30), (5, 50)]
    assert worst_case_series(sample_db(), "missing") == []


def test_richness_and_volume_curves():
    rms_db = ProfileDatabase()
    trms_db = ProfileDatabase()
    rms_db.add_activation("f", 1, 1, 1)
    rms_db.add_activation("f", 1, 1, 1)
    trms_db.add_activation("f", 1, 2, 1)
    trms_db.add_activation("f", 1, 3, 1)
    richness = richness_curve(rms_db, trms_db)
    assert richness == [(100.0, 1.0)]   # 2 trms points vs 1 rms point
    volume = volume_curve(rms_db, trms_db)
    assert volume == [(100.0, pytest.approx(1 - 2 / 5))]


def test_induced_breakdown_sorted_by_thread_share():
    db_a = ProfileDatabase()
    db_a.global_induced_thread = 9
    db_a.global_induced_external = 1
    db_b = ProfileDatabase()
    db_b.global_induced_thread = 1
    db_b.global_induced_external = 9
    rows = induced_breakdown({"b": db_b, "a": db_a})
    assert [row[0] for row in rows] == ["a", "b"]
    assert rows[0][1] == pytest.approx(90.0)


def test_per_routine_input_curves():
    db = sample_db()
    thread_curve = thread_input_curve(db)
    external_curve = external_input_curve(db)
    assert len(thread_curve) == len(external_curve) == 1   # only routine f
    assert thread_curve[0][1] + external_curve[0][1] == pytest.approx(100.0)
