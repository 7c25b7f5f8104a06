"""Associative merging of profile databases, and a lossless dump format.

Cost plots aggregate with per-field semantics that make the merge of
two :class:`~repro.core.profile_data.ProfileDatabase` objects exact:

* per ``(routine, thread, size)`` point: ``calls`` and ``cost_sum`` /
  ``cost_sumsq`` add, ``cost_min`` / ``cost_max`` take min/max — this
  is :meth:`SizeStats.merge`, and it is associative and commutative
  because each field's combiner is;
* per ``(routine, thread)`` profile: the induced-input tallies add;
* per database: the session-global induced counters add, raw
  activation records concatenate, and the sampling lower-bound flag
  ORs (one sampled constituent makes every merged size a lower bound).

Because the per-thread databases a farm run produces are key-disjoint,
merging them reconstructs exactly what a single sequential analysis
would have built.  The same operation applied to profiles of
*independent executions* of one program folds many runs into a single,
richer cost plot — more distinct sizes, tighter envelopes — which is
the paper's per-plot aggregation extended across runs.

The dump format (``repro-profile 1``) is the one on-disk profile
format: ``profile --dump``, ``analyze --dump``, ``merge`` and the
streaming checkpoints all write it.  It serialises everything the merge
needs bit-exactly: ``cost_sumsq``, the per-profile induced splits, the
global induced counters, and the lower-bound flag.  Raw activation
records are deliberately not stored (they are a debugging aid,
unbounded in size).
"""

from __future__ import annotations

from typing import IO, Iterable, Optional

from ..core.profile_data import ProfileDatabase, RoutineProfile, SizeStats
from ..core.tracefile import TraceFileError, escape_name, unescape_name

__all__ = [
    "PROFILE_MAGIC",
    "ProfileDumpError",
    "copy_database",
    "merge_into",
    "merge_databases",
    "save_profile",
    "load_profile",
    "is_profile_dump",
]

PROFILE_MAGIC = "repro-profile 1"


class ProfileDumpError(TraceFileError):
    """Raised on malformed profile dump files."""


def _copy_profile(profile: RoutineProfile) -> RoutineProfile:
    clone = RoutineProfile(profile.routine, profile.thread)
    clone.merge(profile)
    return clone


def copy_database(db: ProfileDatabase) -> ProfileDatabase:
    """Deep copy of the mergeable state of ``db``."""
    clone = ProfileDatabase(keep_activations=db.keep_activations)
    merge_into(clone, db)
    return clone


def merge_into(dst: ProfileDatabase, src: ProfileDatabase) -> ProfileDatabase:
    """Fold ``src`` into ``dst`` (exact, associative); returns ``dst``.

    ``src`` is not modified; profiles new to ``dst`` are deep-copied so
    later merges into ``dst`` never alias ``src``'s state.
    """
    for key, profile in src._profiles.items():
        mine = dst._profiles.get(key)
        if mine is None:
            dst._profiles[key] = _copy_profile(profile)
        else:
            mine.merge(profile)
    dst.global_induced_thread += src.global_induced_thread
    dst.global_induced_external += src.global_induced_external
    dst.activations.extend(src.activations)
    dst.sizes_lower_bound = dst.sizes_lower_bound or src.sizes_lower_bound
    return dst


def merge_databases(
    databases: Iterable[ProfileDatabase],
    keep_activations: bool = False,
) -> ProfileDatabase:
    """Merge any number of databases into a fresh one.

    Works for the two farm cases alike: per-shard databases of one run
    (key-disjoint — the result equals the sequential analysis) and
    databases of independent runs (overlapping keys — points merge).
    """
    merged = ProfileDatabase(keep_activations=keep_activations)
    for db in databases:
        merge_into(merged, db)
    return merged


# -- persistence --------------------------------------------------------------


def save_profile(db: ProfileDatabase, stream: IO[str]) -> int:
    """Write ``db`` as a ``repro-profile 1`` dump; returns the point count.

    Line vocabulary: ``F`` flags, ``G`` global induced counters, ``P``
    opens a (routine, thread) profile, ``S`` one size point of the open
    profile.  Routine names are escaped with
    :func:`~repro.core.tracefile.escape_name`.
    """
    stream.write(PROFILE_MAGIC + "\n")
    stream.write(f"F lower_bound={int(db.sizes_lower_bound)}\n")
    stream.write(f"G {db.global_induced_thread} {db.global_induced_external}\n")
    count = 0
    for key in sorted(db._profiles):
        profile = db._profiles[key]
        stream.write(
            f"P {escape_name(profile.routine)}\t{profile.thread}\t"
            f"{profile.induced_thread_sum}\t{profile.induced_external_sum}\n"
        )
        for size in sorted(profile.points):
            stats = profile.points[size]
            stream.write(
                f"S {size} {stats.calls} {stats.cost_min} {stats.cost_max} "
                f"{stats.cost_sum} {stats.cost_sumsq}\n"
            )
            count += 1
    return count


def load_profile(stream: IO[str]) -> ProfileDatabase:
    """Rebuild a database from :func:`save_profile` output (exact)."""
    header = stream.readline().rstrip("\n")
    if header != PROFILE_MAGIC:
        raise ProfileDumpError(f"not a profile dump (header {header!r})")
    db = ProfileDatabase()
    profile: Optional[RoutineProfile] = None
    for line_no, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        tag, _, rest = line.partition(" ")
        try:
            if tag == "F":
                for flag in rest.split():
                    name, _, value = flag.partition("=")
                    if name == "lower_bound":
                        db.sizes_lower_bound = bool(int(value))
            elif tag == "G":
                thread_part, external_part = rest.split()
                db.global_induced_thread = int(thread_part)
                db.global_induced_external = int(external_part)
            elif tag == "P":
                name_text, thread_text, ind_thread, ind_external = rest.split("\t")
                profile = RoutineProfile(unescape_name(name_text), int(thread_text))
                profile.induced_thread_sum = int(ind_thread)
                profile.induced_external_sum = int(ind_external)
                db._profiles[(profile.routine, profile.thread)] = profile
            elif tag == "S":
                if profile is None:
                    raise ValueError("size point before any profile")
                size, calls, cost_min, cost_max, cost_sum, cost_sumsq = (
                    int(field) for field in rest.split()
                )
                stats = SizeStats()
                stats.calls = calls
                stats.cost_min = cost_min
                stats.cost_max = cost_max
                stats.cost_sum = cost_sum
                stats.cost_sumsq = cost_sumsq
                profile.points[size] = stats
                profile.calls += calls
                profile.size_sum += size * calls
                profile.cost_sum += cost_sum
            else:
                raise ValueError(f"unknown record tag {tag!r}")
        except (ValueError, TraceFileError) as error:
            raise ProfileDumpError(f"line {line_no}: {error}") from None
    return db


def is_profile_dump(path: str) -> bool:
    """True when the file at ``path`` starts with the profile magic."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as stream:
            return stream.readline().rstrip("\n") == PROFILE_MAGIC
    except OSError:
        return False
