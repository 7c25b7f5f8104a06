"""Profile data collected by the input-sensitive profiler.

For every routine activation the profiler learns a tuple::

    (routine, thread, input size, inclusive cost,
     induced-by-thread count, induced-by-kernel count)

aprof aggregates these on the fly, keyed by ``(routine, thread)`` and,
inside each routine profile, by distinct input-size value: each distinct
size is one *point* of the routine's cost plots, carrying the number of
activations observed at that size and min/max/total cost (Section 3 of
the paper: worst-case running time plots use the max, workload plots use
the activation count).

Profiles are *thread-sensitive* (Section 4): activations of the same
routine by different threads feed different profiles; merging across
threads is an explicit, separate step (:meth:`ProfileDatabase.merged`),
exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["SizeStats", "ActivationRecord", "RoutineProfile", "ProfileDatabase"]


class SizeStats:
    """Aggregate cost statistics for one (routine, thread, size) point."""

    __slots__ = ("calls", "cost_min", "cost_max", "cost_sum", "cost_sumsq")

    def __init__(self) -> None:
        self.calls = 0
        self.cost_min = 0
        self.cost_max = 0
        self.cost_sum = 0
        self.cost_sumsq = 0

    @property
    def cost_avg(self) -> float:
        """Mean cost over the activations observed at this size."""
        return self.cost_sum / self.calls if self.calls else 0.0

    def merge(self, other: "SizeStats") -> None:
        if other.calls == 0:
            return
        if self.calls == 0:
            self.cost_min = other.cost_min
            self.cost_max = other.cost_max
        else:
            self.cost_min = min(self.cost_min, other.cost_min)
            self.cost_max = max(self.cost_max, other.cost_max)
        self.calls += other.calls
        self.cost_sum += other.cost_sum
        self.cost_sumsq += other.cost_sumsq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SizeStats(calls={self.calls}, max={self.cost_max})"


class ActivationRecord(NamedTuple):
    """One raw activation, kept only when the database records history."""

    routine: str
    thread: int
    size: int
    cost: int
    induced_thread: int
    induced_external: int


class RoutineProfile:
    """Input-sensitive profile of one routine in one thread."""

    __slots__ = (
        "routine",
        "thread",
        "points",
        "calls",
        "size_sum",
        "cost_sum",
        "induced_thread_sum",
        "induced_external_sum",
    )

    def __init__(self, routine: str, thread: int):
        self.routine = routine
        self.thread = thread
        #: distinct input size -> SizeStats (each key is one plot point)
        self.points: Dict[int, SizeStats] = {}
        self.calls = 0
        self.size_sum = 0
        self.cost_sum = 0
        self.induced_thread_sum = 0
        self.induced_external_sum = 0

    @property
    def distinct_sizes(self) -> int:
        """Number of distinct input-size values (plot points) collected."""
        return len(self.points)

    @property
    def induced_sum(self) -> int:
        """Total induced first-accesses (thread-induced + external)."""
        return self.induced_thread_sum + self.induced_external_sum

    def induced_fraction(self) -> float:
        """Fraction of this routine's input due to induced first-accesses."""
        if self.size_sum == 0:
            return 0.0
        return self.induced_sum / self.size_sum

    def worst_case_points(self) -> List[Tuple[int, int]]:
        """Sorted ``(size, max cost)`` pairs — the worst-case cost plot."""
        return sorted((size, stats.cost_max) for size, stats in self.points.items())

    def average_points(self) -> List[Tuple[int, float]]:
        """Sorted ``(size, mean cost)`` pairs — the average cost plot."""
        return sorted((size, stats.cost_avg) for size, stats in self.points.items())

    def workload_points(self) -> List[Tuple[int, int]]:
        """Sorted ``(size, activation count)`` pairs — the workload plot."""
        return sorted((size, stats.calls) for size, stats in self.points.items())

    def merge(self, other: "RoutineProfile") -> None:
        """Fold ``other`` (same routine, any thread) into this profile."""
        if other.routine != self.routine:
            raise ValueError(
                f"cannot merge profile of {other.routine!r} into {self.routine!r}"
            )
        for size, stats in other.points.items():
            mine = self.points.get(size)
            if mine is None:
                mine = SizeStats()
                self.points[size] = mine
            mine.merge(stats)
        self.calls += other.calls
        self.size_sum += other.size_sum
        self.cost_sum += other.cost_sum
        self.induced_thread_sum += other.induced_thread_sum
        self.induced_external_sum += other.induced_external_sum


class ProfileDatabase:
    """All routine profiles produced by one profiling session.

    Args:
        keep_activations: when True, every raw activation tuple is also
            appended to :attr:`activations`; tests and a few analyses use
            this to join per-activation results of different metrics.
    """

    def __init__(self, keep_activations: bool = False):
        self._profiles: Dict[Tuple[str, int], RoutineProfile] = {}
        self.keep_activations = keep_activations
        self.activations: List[ActivationRecord] = []
        #: True when input sizes are lower bounds (read sampling was
        #: active during collection).  Merging databases ORs the flag:
        #: one sampled constituent makes the whole merged plot a bound.
        self.sizes_lower_bound = False
        #: session-global induced first-access tallies (each access counted
        #: once, in the thread that performed the read — the paper's
        #: "global benchmark measure" of Figure 17)
        self.global_induced_thread = 0
        self.global_induced_external = 0

    def add_activation(
        self,
        routine: str,
        thread: int,
        size: int,
        cost: int,
        induced_thread: int = 0,
        induced_external: int = 0,
    ) -> None:
        """Record one finished activation, in place.

        Finds or makes the ``(routine, thread)`` profile and its ``size``
        point and updates both.  A point whose ``calls`` is 0 (new, or
        loaded so from a dump) takes ``cost`` as its min and max.
        """
        key = (routine, thread)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = RoutineProfile(routine, thread)
        points = profile.points
        stats = points.get(size)
        if stats is None:
            stats = points[size] = SizeStats()
        if stats.calls:
            if cost < stats.cost_min:
                stats.cost_min = cost
            if cost > stats.cost_max:
                stats.cost_max = cost
        else:
            stats.cost_min = stats.cost_max = cost
        stats.calls += 1
        stats.cost_sum += cost
        stats.cost_sumsq += cost * cost
        profile.calls += 1
        profile.size_sum += size
        profile.cost_sum += cost
        profile.induced_thread_sum += induced_thread
        profile.induced_external_sum += induced_external
        if self.keep_activations:
            self.activations.append(
                ActivationRecord(routine, thread, size, cost, induced_thread, induced_external)
            )

    # lookups ----------------------------------------------------------------

    def profile(self, routine: str, thread: int) -> Optional[RoutineProfile]:
        """The profile of ``routine`` in ``thread``, or None."""
        return self._profiles.get((routine, thread))

    def routine_profiles(self, routine: str) -> List[RoutineProfile]:
        """All per-thread profiles of ``routine``."""
        return [p for (name, _), p in self._profiles.items() if name == routine]

    def routines(self) -> List[str]:
        """Sorted list of routine names with at least one profile."""
        return sorted({name for name, _ in self._profiles})

    def threads(self) -> List[int]:
        """Sorted list of thread ids with at least one profile."""
        return sorted({thread for _, thread in self._profiles})

    def __iter__(self) -> Iterator[RoutineProfile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    # merging ------------------------------------------------------------------

    def merged(self) -> Dict[str, RoutineProfile]:
        """Combine per-thread profiles of each routine into one.

        Returns a dict keyed by routine name; merged profiles report
        thread id -1.  This is the "subsequent step" the paper mentions
        for combining thread-sensitive profiles.
        """
        result: Dict[str, RoutineProfile] = {}
        for (routine, _), profile in sorted(
            self._profiles.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            merged = result.get(routine)
            if merged is None:
                merged = RoutineProfile(routine, -1)
                result[routine] = merged
            merged.merge(profile)
        return result

    # aggregates used by the evaluation metrics ---------------------------------

    def total_size_sum(self) -> int:
        """Sum of input sizes over every activation in the session."""
        return sum(profile.size_sum for profile in self._profiles.values())

    def total_induced(self) -> Tuple[int, int]:
        """Session totals: ``(thread-induced, external)`` first-accesses."""
        return self.global_induced_thread, self.global_induced_external
