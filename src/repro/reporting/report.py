"""aprof-style text reports from profile databases.

The original aprof writes one report file per profiling session; tools
downstream plot from it.  This module renders the equivalent from a
:class:`~repro.core.profile_data.ProfileDatabase`: a per-routine summary
(calls, distinct input sizes, cost envelope, induced-input split).  The
machine-readable form is the ``repro-profile 1`` dump of
:mod:`repro.farm.merge`.
"""

from __future__ import annotations

from typing import List

from ..core.metrics import induced_split
from ..core.profile_data import ProfileDatabase, RoutineProfile
from .ascii_charts import table

__all__ = [
    "routine_summary",
    "render_report",
    "render_farm_stats",
]


def routine_summary(profile: RoutineProfile) -> List:
    """One summary row for a routine profile."""
    worst = max((stats.cost_max for stats in profile.points.values()), default=0)
    induced = profile.induced_sum
    induced_pct = 100.0 * induced / profile.size_sum if profile.size_sum else 0.0
    return [
        profile.routine,
        profile.thread if profile.thread >= 0 else "all",
        profile.calls,
        profile.distinct_sizes,
        profile.size_sum,
        worst,
        f"{induced_pct:.1f}%",
    ]


def render_report(db: ProfileDatabase, merged: bool = True, title: str = "profile") -> str:
    """Human-readable session report."""
    if merged:
        profiles = sorted(db.merged().values(), key=lambda p: -p.cost_sum)
    else:
        profiles = sorted(db, key=lambda p: (-p.cost_sum, p.thread))
    rows = [routine_summary(profile) for profile in profiles]
    headers = ["routine", "thread", "calls", "points", "input", "worst", "induced"]
    thread_pct, external_pct = induced_split(db)
    footer = (
        f"threads: {len(db.threads())}   routines: {len(db.routines())}   "
        f"induced split: {thread_pct:.1f}% thread / {external_pct:.1f}% external\n"
    )
    return table(headers, rows, title=title) + footer


def render_farm_stats(stats) -> str:
    """Report of one analysis pass (``repro.farm.FarmStats``): trace
    events and chunks, wall time split into decode / flat TRMS kernel /
    RMS replay (``dec/ana/rms``), events/s and peak RSS."""
    split = (stats.decode_seconds, stats.analyze_seconds, stats.rms_seconds)
    row = [
        stats.events,
        stats.chunks,
        f"{stats.wall_seconds * 1000:.1f}ms",
        "/".join(f"{seconds * 1000:.0f}" for seconds in split) + "ms",
        f"{stats.events_per_s:,.0f}",
        f"{stats.max_rss_kb / 1024:.0f}M" if stats.max_rss_kb else "-",
    ]
    headers = ["events", "chunks", "wall", "dec/ana/rms", "events/s", "rss"]
    return table(headers, [row], title="analysis pass")
