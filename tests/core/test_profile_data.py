"""Unit tests for profile data containers."""

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ActivationRecord, ProfileDatabase, RoutineProfile, SizeStats
from repro.farm import load_profile, save_profile


def _point(*costs, size=1):
    """The ``size`` point of routine ``f`` after activations of ``costs``."""
    db = ProfileDatabase()
    for cost in costs:
        db.add_activation("f", 1, size, cost)
    return db.profile("f", 1).points[size]


def test_size_stats_min_max_sum():
    stats = _point(5, 2, 9)
    assert stats.calls == 3
    assert stats.cost_min == 2
    assert stats.cost_max == 9
    assert stats.cost_sum == 16
    assert stats.cost_sumsq == 25 + 4 + 81
    assert stats.cost_avg == pytest.approx(16 / 3)


def test_size_stats_merge():
    a, b = _point(5), _point(1, 10)
    a.merge(b)
    assert (a.calls, a.cost_min, a.cost_max, a.cost_sum) == (3, 1, 10, 16)


def test_size_stats_merge_empty_cases():
    a, b = SizeStats(), SizeStats()
    a.merge(b)
    assert a.calls == 0
    b = _point(4)
    a.merge(b)
    assert (a.cost_min, a.cost_max) == (4, 4)


def test_routine_profile_points_and_plots():
    db = ProfileDatabase()
    db.add_activation("f", 1, size=2, cost=10)
    db.add_activation("f", 1, size=2, cost=30)
    db.add_activation("f", 1, size=5, cost=50)
    profile = db.profile("f", 1)
    assert profile.distinct_sizes == 2
    assert profile.worst_case_points() == [(2, 30), (5, 50)]
    assert profile.average_points() == [(2, 20.0), (5, 50.0)]
    assert profile.workload_points() == [(2, 2), (5, 1)]
    assert profile.calls == 3
    assert profile.size_sum == 9
    assert profile.cost_sum == 90


def test_routine_profile_induced_fraction():
    db = ProfileDatabase()
    db.add_activation("f", 1, size=4, cost=1, induced_thread=1, induced_external=2)
    profile = db.profile("f", 1)
    assert profile.induced_sum == 3
    assert profile.induced_fraction() == pytest.approx(0.75)
    empty = RoutineProfile("g", 1)
    assert empty.induced_fraction() == 0.0


def test_routine_profile_merge_rejects_other_routine():
    a = RoutineProfile("f", 1)
    b = RoutineProfile("g", 2)
    with pytest.raises(ValueError):
        a.merge(b)


def test_database_add_and_lookup():
    db = ProfileDatabase()
    db.add_activation("f", 1, size=3, cost=7)
    db.add_activation("f", 2, size=3, cost=9)
    db.add_activation("g", 1, size=1, cost=2)
    assert db.routines() == ["f", "g"]
    assert db.threads() == [1, 2]
    assert db.profile("f", 1).calls == 1
    assert db.profile("f", 3) is None
    assert len(db) == 3
    assert len(db.routine_profiles("f")) == 2


def test_database_merged_combines_threads():
    db = ProfileDatabase()
    db.add_activation("f", 1, size=3, cost=7, induced_thread=1)
    db.add_activation("f", 2, size=3, cost=9, induced_external=2)
    db.add_activation("f", 2, size=4, cost=1)
    merged = db.merged()
    profile = merged["f"]
    assert profile.thread == -1
    assert profile.calls == 3
    assert profile.distinct_sizes == 2
    assert profile.points[3].cost_max == 9
    assert profile.induced_thread_sum == 1
    assert profile.induced_external_sum == 2


def test_database_keep_activations():
    db = ProfileDatabase(keep_activations=True)
    db.add_activation("f", 1, size=3, cost=7)
    assert len(db.activations) == 1
    record = db.activations[0]
    assert (record.routine, record.thread, record.size, record.cost) == ("f", 1, 3, 7)


def test_database_totals():
    db = ProfileDatabase()
    db.add_activation("f", 1, size=3, cost=7)
    db.add_activation("g", 1, size=5, cost=7)
    db.global_induced_thread = 4
    db.global_induced_external = 1
    assert db.total_size_sum() == 8
    assert db.total_induced() == (4, 1)


# -- add_activation against the arithmetic it replaced ------------------------


def reference_add(db, routine, thread, size, cost, induced_thread=0, induced_external=0):
    """``ProfileDatabase.add_activation`` as it was when the arithmetic
    lived in ``RoutineProfile.add_activation`` and ``SizeStats.add``."""
    key = (routine, thread)
    profile = db._profiles.get(key)
    if profile is None:
        profile = RoutineProfile(routine, thread)
        db._profiles[key] = profile
    stats = profile.points.get(size)
    if stats is None:
        stats = SizeStats()
        profile.points[size] = stats
    if stats.calls == 0:
        stats.cost_min = cost
        stats.cost_max = cost
    else:
        if cost < stats.cost_min:
            stats.cost_min = cost
        if cost > stats.cost_max:
            stats.cost_max = cost
    stats.calls += 1
    stats.cost_sum += cost
    stats.cost_sumsq += cost * cost
    profile.calls += 1
    profile.size_sum += size
    profile.cost_sum += cost
    profile.induced_thread_sum += induced_thread
    profile.induced_external_sum += induced_external
    if db.keep_activations:
        db.activations.append(
            ActivationRecord(routine, thread, size, cost, induced_thread, induced_external))


def full_state(db):
    """Every field of every profile and point, in iteration order."""
    return [
        (key, profile.routine, profile.thread, profile.calls, profile.size_sum,
         profile.cost_sum, profile.induced_thread_sum, profile.induced_external_sum,
         [(size, stats.calls, stats.cost_min, stats.cost_max, stats.cost_sum,
           stats.cost_sumsq) for size, stats in profile.points.items()])
        for key, profile in db._profiles.items()
    ]


_small = st.integers(-3, 12)
_cost = st.one_of(st.integers(0, 50), st.integers(-(1 << 70), 1 << 70))
_activations = st.lists(st.tuples(
    st.sampled_from(["f", "g", "main;f"]), st.integers(0, 2), _small, _cost,
    st.integers(0, 3), st.integers(0, 3)), max_size=40)
#: dump points: (routine, thread, size, calls, min, max, sum, sumsq), calls may be 0
_dump_points = st.lists(st.tuples(
    st.sampled_from(["f", "g"]), st.integers(0, 2), _small, st.integers(0, 3),
    _cost, _cost, _cost, st.integers(0, 1 << 70)), max_size=8)


def dump_text(points):
    lines = ["repro-profile 1", "F lower_bound=0", "G 0 0"]
    by_key = {}
    for routine, thread, size, *fields in points:
        by_key.setdefault((routine, thread), {})[size] = fields
    for (routine, thread), sizes in by_key.items():
        lines.append(f"P {routine}\t{thread}\t1\t2")
        lines.extend(f"S {size} " + " ".join(map(str, fields))
                     for size, fields in sizes.items())
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_activations, st.none() | _dump_points, st.booleans())
@example([("f", 1, 3, 8, 0, 0), ("f", 1, 3, 5, 1, 0)],
         [("f", 1, 3, 0, 7, 9, 0, 0)], False)
@example([("f", 1, 3, 8, 0, 0), ("f", 1, 3, 5, 1, 0)],
         [("f", 1, 3, 0, 7, 9, 0, 0)], True)
def test_add_activation_matches_the_old_arithmetic(activations, dump_points, keep):
    """Over random activation streams, into a fresh database or one
    loaded from a dump (whose points may hold ``calls`` 0, or a min
    above the max), ``add_activation`` leaves every field, the
    ``activations`` list and the dump bytes as the old arithmetic did."""
    if dump_points is None:
        mine, ref = ProfileDatabase(keep), ProfileDatabase(keep)
    else:
        text = dump_text(dump_points)
        mine, ref = load_profile(io.StringIO(text)), load_profile(io.StringIO(text))
        mine.keep_activations = ref.keep_activations = keep
    for activation in activations:
        mine.add_activation(*activation)
        reference_add(ref, *activation)
    assert full_state(mine) == full_state(ref)
    assert mine.activations == ref.activations
    assert len(mine.activations) == (len(activations) if keep else 0)
    mine_dump, ref_dump = io.StringIO(), io.StringIO()
    save_profile(mine, mine_dump)
    save_profile(ref, ref_dump)
    assert mine_dump.getvalue() == ref_dump.getvalue()
