"""Dashboards over a telemetry run: ``repro stats`` rendering.

Two renderers over one loaded :class:`~repro.telemetry.TelemetryRun`:

* :func:`render_telemetry_dashboard` — the terminal view, built from
  the ASCII primitives (:mod:`repro.reporting.ascii_charts`): the span
  tree with wall/CPU timings, metric tables, histogram bars, and the
  self-overhead table when an ``repro overhead`` run wrote one;
* :func:`render_telemetry_html` — the same content as one
  self-contained HTML file (no external assets), with the span log
  rendered as an SVG timeline (:func:`repro.reporting.html.svg_timeline`).

Both read *only* the telemetry run — a ``telemetry.jsonl`` copied from
another machine renders identically.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Tuple

from ..telemetry.jsonl import TelemetryRun
from ..telemetry.overhead import overhead_rows, render_overhead_report
from ..telemetry.registry import bucket_bound
from .ascii_charts import bars, table
from .html import PAGE_STYLE, svg_timeline

__all__ = ["render_telemetry_dashboard", "render_telemetry_html"]


def _label_suffix(labels: Dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _span_rows(run: TelemetryRun) -> List[List]:
    """Span tree rows: nested spans indented, same-name siblings folded."""
    ids = {span["id"] for span in run.spans if "id" in span}
    children: Dict[Optional[int], List[Dict]] = {}
    for span in run.spans:
        parent = span.get("parent")
        if parent is not None and parent not in ids:
            parent = None  # orphan (its parent span was never written): top level
        children.setdefault(parent, []).append(span)

    rows: List[List] = []

    def walk(parent: Optional[int], depth: int) -> None:
        group = children.get(parent, ())
        folded: Dict[str, Dict] = {}
        for span in group:
            entry = folded.setdefault(
                span["name"],
                {"calls": 0, "wall": 0.0, "cpu": 0.0, "errors": 0, "ids": []})
            entry["calls"] += 1
            entry["wall"] += span.get("wall", 0.0)
            entry["cpu"] += span.get("cpu", 0.0)
            entry["errors"] += 0 if span.get("ok", True) else 1
            if "id" in span:
                entry["ids"].append(span["id"])
        for name, entry in sorted(folded.items(),
                                  key=lambda item: -item[1]["wall"]):
            rows.append([
                "  " * depth + name,
                entry["calls"],
                f"{entry['wall'] * 1000:.1f}ms",
                f"{entry['cpu'] * 1000:.1f}ms",
                entry["errors"] or "",
            ])
            for span_id in entry["ids"]:
                walk(span_id, depth + 1)

    walk(None, 0)
    return rows


def _metric_sections(run: TelemetryRun) -> str:
    counters = [entry for entry in run.metrics if entry["kind"] == "counter"]
    gauges = [entry for entry in run.metrics if entry["kind"] == "gauge"]
    histograms = [entry for entry in run.metrics if entry["kind"] == "histogram"]
    parts = []
    if counters or gauges:
        rows = [[entry["name"] + _label_suffix(entry["labels"]),
                 entry["kind"], entry["value"]]
                for entry in counters + gauges]
        parts.append(table(["metric", "kind", "value"], rows, title="metrics",
                           left=(0,)))
    for entry in histograms:
        items: List[Tuple[str, float]] = []
        for index, count in entry["buckets"].items():
            bound = bucket_bound(int(index))
            label = "<=inf" if bound == float("inf") else f"<={bound:g}"
            items.append((label, float(count)))
        title = (f"histogram {entry['name']}{_label_suffix(entry['labels'])} "
                 f"(n={entry['count']}, sum={entry['sum']:.1f})")
        parts.append(bars(items, title=title))
    return "\n".join(parts)


def render_telemetry_dashboard(run: TelemetryRun) -> str:
    """The full terminal dashboard of one telemetry run."""
    lines = []
    total_wall = sum(span.get("wall", 0.0) for span in run.spans
                     if span.get("parent") is None)
    lines.append(
        f"telemetry run: {run.path or '(in-memory)'}   "
        f"spans: {len(run.spans)}   metrics: {len(run.metrics)}   "
        f"top-level wall: {total_wall * 1000:.1f}ms\n")
    if run.spans:
        lines.append(table(["span", "calls", "wall", "cpu", "errors"],
                           _span_rows(run), title="span tree (wall-ordered)",
                           left=(0,)))
    metrics = _metric_sections(run)
    if metrics:
        lines.append(metrics)
    if overhead_rows(run.metrics):
        lines.append(render_overhead_report(run.metrics))
    return "\n".join(part for part in lines if part)


def _html_table(headers: List[str], rows: List[List]) -> str:
    head = "".join(f"<th>{escape(str(header))}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(str(cell))}</td>" for cell in row) + "</tr>"
        for row in rows)
    return f"<table><tr>{head}</tr>{body}</table>"


def _timeline_intervals(run: TelemetryRun) -> List[Tuple[str, float, float, int]]:
    timed = [span for span in run.spans if "start" in span and "id" in span]
    by_id = {span["id"]: span for span in timed}

    def depth_of(span: Dict) -> int:
        depth = 0
        parent = span.get("parent")
        while parent in by_id:
            depth += 1
            parent = by_id[parent].get("parent")
        return depth

    timed.sort(key=lambda span: (span["start"], span["id"]))
    return [(span["name"], span["start"], span.get("wall", 0.0), depth_of(span))
            for span in timed]


def render_telemetry_html(run: TelemetryRun, title: str = "telemetry run") -> str:
    """The dashboard as one self-contained HTML document."""
    spans_svg = svg_timeline(_timeline_intervals(run))
    span_rows = [[row[0].replace("  ", "  "), row[1], row[2], row[3], row[4]]
                 for row in _span_rows(run)]
    sections = [
        f"<h2>Span timeline</h2>{spans_svg}",
        "<h2>Span tree</h2>" + _html_table(
            ["span", "calls", "wall", "cpu", "errors"], span_rows),
    ]
    if run.metrics:
        rows = []
        for entry in run.metrics:
            if entry["kind"] == "histogram":
                value = f"n={entry['count']} sum={entry['sum']:.1f}"
            else:
                value = entry["value"]
            rows.append([entry["name"] + _label_suffix(entry["labels"]),
                         entry["kind"], value])
        sections.append("<h2>Metrics</h2>" + _html_table(
            ["metric", "kind", "value"], rows))
    overhead = overhead_rows(run.metrics)
    if overhead:
        rows = [[tool, f"{seconds * 1000:.1f}ms", f"{slowdown:.2f}x",
                 f"{space / 1024:.1f} KiB" if space else "-", blocks]
                for tool, seconds, slowdown, space, blocks in overhead]
        sections.append("<h2>Self-overhead (Table 1 style)</h2>" + _html_table(
            ["tool", "best wall", "slowdown", "analysis state", "blocks"], rows))

    meta = f"{len(run.spans)} spans &middot; {len(run.metrics)} metrics"
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{escape(title)}</title>
<style>{PAGE_STYLE}</style></head><body>
<h1>{escape(title)}</h1>
<p class="meta">{meta}</p>
{''.join(sections)}
</body></html>
"""
