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
    """Progress/health report of one farm run (``repro.farm.FarmStats``).

    One row per shard — where it ran, how many pool attempts it took,
    how the worker split its time between decode and analysis,
    heartbeat-reported peak RSS and throughput — plus the shard's
    failure ledger (failed attempts, timeouts, inline fallback), all
    read from its :class:`~repro.farm.engine.ShardOutcome`, and a footer
    with the run's jobs, trace size, wall time and aggregate tallies.
    """
    rows = []
    for outcome in stats.outcomes:
        rows.append([
            outcome.shard_id,
            len(outcome.threads),
            outcome.events,
            f"{outcome.seconds * 1000:.1f}ms",
            f"{outcome.decode_seconds * 1000:.0f}/"
            f"{outcome.analyze_seconds * 1000:.0f}ms",
            f"{outcome.events_per_s:,.0f}",
            outcome.heartbeats,
            f"{outcome.max_rss_kb / 1024:.0f}M" if outcome.max_rss_kb else "-",
            outcome.attempts,
            outcome.retries,
            outcome.timeouts,
            outcome.where + ("!" if outcome.fell_back else ""),
        ])
    headers = ["shard", "threads", "events", "time", "dec/ana", "events/s",
               "beats", "rss", "attempts", "retries", "timeouts", "ran"]
    footer = (
        f"jobs: {stats.jobs}   trace events: {stats.event_count}   "
        f"wall: {stats.wall_seconds * 1000:.1f}ms\n"
        f"retries: {stats.retries}   inline fallbacks: {stats.fallbacks}   "
        f"pool failures: {stats.pool_failures}\n"
        "('!' marks a shard that exhausted its pool attempts and ran inline)\n"
    )
    return table(headers, rows, title="farm shards") + footer
