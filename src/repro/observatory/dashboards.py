"""Observatory dashboards: the operator's view of a run history.

ASCII for the terminal (``repro observe report``), one self-contained
HTML file for sharing (``--html``), both built from the same store
queries:

* **fleet summary** — one row per ingested run (id, commit, time,
  source, scale, routines, events);
* **growth trajectories** — per routine, a sparkline of the fitted
  power-law exponents across runs next to the growth-class path, so a
  class that is quietly bending upward is visible before it jumps;
* **alert feed** — the severity-ranked drift verdicts.

Rendering reuses the shared primitives: ``reporting.ascii_charts``
(tables, sparklines) and ``reporting.html`` (page style, SVG scatter).
"""

from __future__ import annotations

from datetime import datetime, timezone
from html import escape
from typing import List, Optional, Tuple

from ..reporting.ascii_charts import sparkline, table
from ..reporting.html import PAGE_STYLE, svg_scatter
from .drift import DriftAlert, RoutineTrajectory, detect_drift, trajectories
from .store import ObservatoryStore, RunInfo

__all__ = [
    "render_observatory_report",
    "render_observatory_html",
    "render_alert_feed",
]

_VERDICT_COLORS = {
    "regressed": "#aa2222",
    "slower": "#cc8833",
    "added": "#2266aa",
    "removed": "#777777",
    "faster": "#44aa77",
    "improved": "#227744",
}


def _when(timestamp: int) -> str:
    if not timestamp:
        return "-"
    return datetime.fromtimestamp(
        timestamp, tz=timezone.utc).strftime("%Y-%m-%d %H:%M")


def _ratio(value: Optional[float]) -> str:
    return f"{value:.2f}x" if value is not None else "-"


def _short(identifier: str, width: int = 10) -> str:
    return identifier[:width] if identifier else "-"


def _class_path(trajectory: RoutineTrajectory) -> str:
    """Deduplicated growth-class path, e.g. ``O(n) -> O(n^2)``."""
    path: List[str] = []
    for name in trajectory.classes:
        if not path or path[-1] != name:
            path.append(name)
    return " -> ".join(path) if path else "-"


def _drift_pass(
    store: ObservatoryStore, tolerance: float,
) -> Tuple[List[RunInfo], List[RoutineTrajectory], List[DriftAlert]]:
    """One drift pass for a report: ``store.runs()`` read once, every
    trajectory built once, and the alerts derived from both."""
    runs = store.runs()
    all_trajectories = trajectories(store, tolerance, runs)
    return runs, all_trajectories, detect_drift(store, tolerance, runs,
                                                all_trajectories)


def _fleet_rows(runs: List[RunInfo]) -> List[List[str]]:
    return [
        [
            _short(info.run_id),
            _short(info.git_sha, 8),
            _when(info.timestamp),
            info.source or "-",
            f"{info.scale:g}" if info.scale else "-",
            str(info.routines),
            str(info.events),
        ]
        for info in runs
    ]


def render_alert_feed(alerts: List[DriftAlert], title: str = "Alert feed") -> str:
    """The severity-ranked drift verdicts as a text table."""
    if not alerts:
        return f"{title}\n(no drift: every routine holds its growth class)\n"
    rows = [
        [
            alert.routine,
            alert.verdict,
            alert.old_growth or "-",
            alert.new_growth or "-",
            _ratio(alert.cost_ratio),
            str(alert.runs_observed),
            str(alert.changepoints),
            _short(alert.last_run),
        ]
        for alert in alerts
    ]
    return table(
        ["routine", "verdict", "old growth", "new growth", "cost ratio",
         "runs", "changes", "last run"],
        rows, title=title, left=(0, 1),
    )


def render_observatory_report(
    store: ObservatoryStore,
    tolerance: float = 1.30,
    limit: int = 20,
    name: Optional[str] = None,
) -> str:
    """The full ASCII dashboard of one history store.

    ``name`` is what the header calls the store: its path by default
    (``repro serve`` passes the tenant, so a served report does not
    reveal the server's filesystem).
    """
    runs, all_trajectories, alerts = _drift_pass(store, tolerance)
    lines = [
        f"Profile observatory — {len(runs)} run(s), "
        f"{len(all_trajectories)} routine(s)  [{name or store.path}]",
        "",
    ]
    if not runs:
        lines.append("(empty store: `repro observe ingest` some runs first)")
        return "\n".join(lines) + "\n"
    lines.append(table(
        ["run", "commit", "when (UTC)", "source", "scale", "routines", "events"],
        _fleet_rows(runs), title="Fleet summary", left=(0, 1, 2, 3),
    ))

    alerted = {alert.routine: alert for alert in alerts}
    # worst routines first, stable ones after — same order the operator
    # would triage in
    ranked = sorted(
        (t for t in all_trajectories if t.entries),
        key=lambda t: (0 if t.routine in alerted else 1,
                       -len(t.changepoints), t.routine),
    )
    if ranked:
        exponent_rows = []
        for trajectory in ranked[:limit]:
            alert = alerted.get(trajectory.routine)
            exponent_rows.append([
                trajectory.routine,
                str(len(trajectory.entries)),
                sparkline(trajectory.exponents),
                _class_path(trajectory),
                (f"{alert.verdict} {_ratio(alert.cost_ratio)}"
                 if alert else "steady"),
            ])
        lines.append(table(
            ["routine", "runs", "exponent", "growth path", "drift"],
            exponent_rows,
            title=f"Growth trajectories (top {min(limit, len(ranked))} "
                  f"of {len(ranked)}, worst first)",
            left=(0, 2, 3, 4),
        ))
    lines.append(render_alert_feed(alerts))
    return "\n".join(lines)


def _html_table(headers: List[str], rows: List[List[str]]) -> str:
    head = "".join(f"<th>{escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _html_alert_feed(alerts: List[DriftAlert]) -> str:
    if not alerts:
        return "<p class='meta'>No drift: every routine holds its growth class.</p>"
    rows = []
    for alert in alerts:
        color = _VERDICT_COLORS.get(alert.verdict, "#555")
        rows.append(
            "<tr>"
            f"<td>{escape(alert.routine)}</td>"
            f"<td><b style='color:{color}'>{escape(alert.verdict)}</b></td>"
            f"<td>{escape(alert.old_growth or '-')}</td>"
            f"<td>{escape(alert.new_growth or '-')}</td>"
            f"<td>{escape(_ratio(alert.cost_ratio))}</td>"
            f"<td>{alert.runs_observed}</td>"
            f"<td>{alert.changepoints}</td>"
            f"<td>{escape(_short(alert.last_run))}</td>"
            "</tr>"
        )
    head = "".join(
        f"<th>{escape(h)}</th>"
        for h in ["routine", "verdict", "old", "new", "cost ratio", "runs",
                  "changes", "last run"]
    )
    return f"<table><tr>{head}</tr>{''.join(rows)}</table>"


def render_observatory_html(
    store: ObservatoryStore,
    tolerance: float = 1.30,
    plot_limit: int = 8,
    title: str = "profile observatory",
    name: Optional[str] = None,
) -> str:
    """The dashboard as one self-contained HTML document (``name`` as in
    :func:`render_observatory_report`)."""
    runs, all_trajectories, alerts = _drift_pass(store, tolerance)
    alerted = {alert.routine for alert in alerts}
    ranked = sorted(
        (t for t in all_trajectories if t.entries),
        key=lambda t: (0 if t.routine in alerted else 1,
                       -len(t.changepoints), t.routine),
    )

    figures = []
    for trajectory in ranked[:plot_limit]:
        series = [(index, exponent)
                  for index, exponent in enumerate(trajectory.exponents)
                  if exponent is not None]
        if len(series) < 2:
            continue
        color = "#aa2222" if trajectory.routine in alerted else "#2266aa"
        figures.append(
            "<figure>"
            + svg_scatter(series, color=color)
            + f"<figcaption>{escape(trajectory.routine)} — fitted exponent "
            f"per run ({escape(_class_path(trajectory))})</figcaption></figure>"
        )
    # the worst alert also shows its latest raw cost plot, when stored
    cost_plot = ""
    if alerts:
        worst = alerts[0]
        plots = (store.points_for(info.seq, worst.routine) for info in reversed(runs))
        points = next((plot for plot in plots if plot), None)
        if points is not None:
            cost_plot = (
                f"<h2>Worst alert — {escape(worst.routine)} "
                f"({escape(worst.verdict)})</h2><div class='plots'><figure>"
                + svg_scatter(points, color="#aa2222")
                + "<figcaption>latest stored worst-case cost plot"
                "</figcaption></figure></div>"
            )

    fleet = _html_table(
        ["run", "commit", "when (UTC)", "source", "scale", "routines", "events"],
        _fleet_rows(runs))
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{escape(title)}</title>
<style>{PAGE_STYLE}</style></head><body>
<h1>{escape(title)}</h1>
<p class="meta">{len(runs)} run(s) &middot; {len(all_trajectories)} routine(s)
&middot; {len(alerts)} alert(s) &middot; store: {escape(name or store.path)}</p>
<h2>Fleet summary</h2>
{fleet}
<h2>Alert feed</h2>
{_html_alert_feed(alerts)}
<h2>Exponent trajectories</h2>
<div class="plots">{''.join(figures) or "<p class='meta'>Not enough history for any trajectory.</p>"}</div>
{cost_plot}
</body></html>
"""
