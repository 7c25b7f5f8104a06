"""Reporting: ASCII charts, aprof-style reports, figure-series builders."""

from .ascii_charts import bars, scatter, table
from .bottlenecks import Bottleneck, rank_bottlenecks, render_bottlenecks
from .diffing import ProfileDiff, diff_databases, render_diff
from .html import render_html_report, svg_scatter, svg_timeline
from .telemetry import render_telemetry_dashboard, render_telemetry_html
from .tracing import (
    Trace,
    TraceSpan,
    assemble_traces,
    load_trace_spans,
    render_trace_waterfall,
    render_traces_html,
    slowest,
)
from .figures import (
    external_input_curve,
    induced_breakdown,
    richness_curve,
    thread_input_curve,
    volume_curve,
    worst_case_series,
)
from .report import (
    render_farm_stats,
    render_report,
    routine_summary,
)

__all__ = [
    "Bottleneck",
    "rank_bottlenecks",
    "render_bottlenecks",
    "bars",
    "scatter",
    "table",
    "external_input_curve",
    "induced_breakdown",
    "richness_curve",
    "thread_input_curve",
    "volume_curve",
    "worst_case_series",
    "render_farm_stats",
    "render_report",
    "render_html_report",
    "render_telemetry_dashboard",
    "render_telemetry_html",
    "svg_timeline",
    "Trace",
    "TraceSpan",
    "assemble_traces",
    "load_trace_spans",
    "render_trace_waterfall",
    "render_traces_html",
    "slowest",
    "ProfileDiff",
    "diff_databases",
    "render_diff",
    "svg_scatter",
    "routine_summary",
]
