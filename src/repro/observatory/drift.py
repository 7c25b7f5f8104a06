"""Growth-rate drift detection over a run history.

:func:`repro.reporting.diffing.diff_databases` answers "did this
routine scale worse between *these two* runs"; this module generalises
the question to the whole history the store has seen: per-routine
growth-class *trajectories*, changepoint flagging, and a
severity-ranked alert feed.  An O(n) → O(n log n) → O(n²) slide across
commits — invisible to any pairwise diff of adjacent versions if each
step stays inside the tolerance — shows up here as a trajectory whose
endpoints disagree.

Semantics (shared vocabulary with the pairwise diff, enforced by using
its :func:`~repro.reporting.diffing.classify_pair`):

* a routine's trajectory is its fitted-curve rows across runs, in run
  order; runs where it was unfittable (< 3 distinct sizes) or absent
  contribute no entry;
* a **changepoint** is an adjacent pair of entries whose verdict is not
  ``unchanged`` — a class-rank jump, or a predicted-cost ratio at the
  common largest size beyond the tolerance;
* the routine's overall **verdict** compares the first and the last
  fittable entry (so a slow multi-run slide still classifies as one
  regression); a routine absent from the newest run is ``removed``, one
  that only ever appeared in later runs with a single entry is
  ``added``;
* alerts are every non-``unchanged`` verdict, ranked by the shared
  severity order, worst first.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..reporting.diffing import SEVERITY, classify_pair
from .store import CurveRow, ObservatoryStore, RunInfo

__all__ = [
    "Changepoint",
    "RoutineTrajectory",
    "DriftAlert",
    "trajectories",
    "detect_drift",
]


class Changepoint(NamedTuple):
    """One adjacent-run shift in a routine's cost function."""

    run_id: str           #: run where the new behaviour first appears
    prev_run_id: str
    old_growth: str
    new_growth: str
    cost_ratio: Optional[float]
    verdict: str          #: regressed | improved | slower | faster


class RoutineTrajectory(NamedTuple):
    """One routine's fitted curves across the history, in run order."""

    routine: str
    entries: List[CurveRow]       #: fittable runs only
    run_ids: List[str]            #: run id per entry (parallel list)
    changepoints: List[Changepoint]

    @property
    def classes(self) -> List[str]:
        return [entry.model for entry in self.entries]

    @property
    def exponents(self) -> List[Optional[float]]:
        return [entry.exponent for entry in self.entries]


class DriftAlert(NamedTuple):
    """One routine's overall verdict over the observed history."""

    routine: str
    verdict: str          #: regressed | improved | slower | faster | added | removed
    old_growth: Optional[str]
    new_growth: Optional[str]
    #: last/first predicted-cost ratio at the common largest size
    cost_ratio: Optional[float]
    first_run: str        #: run id of the first fittable observation
    last_run: str         #: run id of the last fittable observation
    runs_observed: int    #: fittable entries in the trajectory
    changepoints: int


def _pair_ratio(old: CurveRow, new: CurveRow) -> Optional[float]:
    common_max = min(old.max_size, new.max_size)
    old_cost = old.predict(common_max)
    if old_cost <= 1e-9:
        return None
    return max(new.predict(common_max), 0.0) / old_cost


def trajectories(
    store: ObservatoryStore,
    tolerance: float = 1.30,
    runs: Optional[List[RunInfo]] = None,
) -> List[RoutineTrajectory]:
    """Every routine's trajectory with its changepoints, by name.

    ``runs`` is ``store.runs()``, for a caller that has read it already;
    one run order serves every routine.
    """
    if runs is None:
        runs = store.runs()
    order = {info.seq: position for position, info in enumerate(runs)}
    run_id_by_seq = {info.seq: info.run_id for info in runs}
    result = []
    for routine in store.routines():
        entries = store.curve_trajectory(routine, order)
        run_ids = [run_id_by_seq.get(entry.run_seq, "?") for entry in entries]
        changepoints = []
        for previous, current, prev_id, cur_id in zip(
                entries, entries[1:], run_ids, run_ids[1:]):
            verdict = classify_pair(previous.order, current.order,
                                    _pair_ratio(previous, current), tolerance)
            if verdict != "unchanged":
                changepoints.append(Changepoint(
                    run_id=cur_id,
                    prev_run_id=prev_id,
                    old_growth=previous.model,
                    new_growth=current.model,
                    cost_ratio=_pair_ratio(previous, current),
                    verdict=verdict,
                ))
        result.append(RoutineTrajectory(routine, entries, run_ids, changepoints))
    return result


def detect_drift(
    store: ObservatoryStore,
    tolerance: float = 1.30,
    runs: Optional[List[RunInfo]] = None,
    all_trajectories: Optional[List[RoutineTrajectory]] = None,
) -> List[DriftAlert]:
    """Severity-ranked alerts over the whole history (worst first).

    ``runs`` and ``all_trajectories`` are ``store.runs()`` and
    :func:`trajectories` over them at the same ``tolerance``, for a
    caller that has built both already: a report shows the trajectories
    next to the alerts, and derives both from one pass.
    """
    if runs is None:
        runs = store.runs()
    if not runs:
        return []
    if all_trajectories is None:
        all_trajectories = trajectories(store, tolerance, runs)
    # added/removed are judged against *profiled* runs only — ingesting a
    # curveless run (a bench envelope, a telemetry log) must not make
    # every routine look removed
    profiled = {entry.run_seq
                for trajectory in all_trajectories
                for entry in trajectory.entries}
    if not profiled:
        return []
    order = {info.seq: position for position, info in enumerate(runs)}
    latest_seq = max(profiled, key=lambda seq: order.get(seq, -1))
    total_runs = len(profiled)
    alerts: List[DriftAlert] = []
    for trajectory in all_trajectories:
        entries = trajectory.entries
        if not entries:
            continue
        first, last = entries[0], entries[-1]
        first_id, last_id = trajectory.run_ids[0], trajectory.run_ids[-1]
        if last.run_seq != latest_seq and total_runs > 1:
            verdict: str = "removed"
            ratio: Optional[float] = None
            old_growth: Optional[str] = last.model
            new_growth: Optional[str] = None
        elif len(entries) == 1:
            if total_runs > 1 and first.run_seq == latest_seq:
                verdict, ratio = "added", None
                old_growth, new_growth = None, first.model
            else:
                continue    # single-run history: nothing to compare yet
        else:
            ratio = _pair_ratio(first, last)
            verdict = classify_pair(first.order, last.order, ratio, tolerance)
            old_growth, new_growth = first.model, last.model
            if verdict == "unchanged":
                continue
        alerts.append(DriftAlert(
            routine=trajectory.routine,
            verdict=verdict,
            old_growth=old_growth,
            new_growth=new_growth,
            cost_ratio=ratio,
            first_run=first_id,
            last_run=last_id,
            runs_observed=len(entries),
            changepoints=len(trajectory.changepoints),
        ))

    def severity_key(alert: DriftAlert) -> Tuple:
        return (SEVERITY.get(alert.verdict, 9), -(alert.cost_ratio or 0.0),
                alert.routine)

    alerts.sort(key=severity_key)
    return alerts
