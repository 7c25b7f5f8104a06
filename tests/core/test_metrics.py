"""Unit tests for the Section 6.1 evaluation metrics."""

import pytest

from repro.core import (
    ProfileDatabase,
    RoutineProfile,
    induced_split,
    induced_split_by_routine,
    input_volume,
    input_volume_by_routine,
    profile_richness,
    richness_by_routine,
    tail_curve,
)


def make_dbs():
    rms_db = ProfileDatabase()
    trms_db = ProfileDatabase()
    # routine f: rms sees sizes {2, 2, 3}; trms sees {4, 5, 6}
    for rms_size, trms_size in ((2, 4), (2, 5), (3, 6)):
        rms_db.add_activation("f", 1, rms_size, cost=1)
        trms_db.add_activation("f", 1, trms_size, cost=1, induced_thread=trms_size - rms_size)
    # routine g: identical under both metrics
    rms_db.add_activation("g", 1, 7, cost=1)
    trms_db.add_activation("g", 1, 7, cost=1)
    trms_db.global_induced_thread = 6
    trms_db.global_induced_external = 2
    return rms_db, trms_db


def test_profile_richness_single_routine():
    rms_db, trms_db = make_dbs()
    rms_f = rms_db.merged()["f"]
    trms_f = trms_db.merged()["f"]
    # |rms_f| = 2 points, |trms_f| = 3 points -> richness 0.5
    assert profile_richness(rms_f, trms_f) == pytest.approx(0.5)


def test_profile_richness_can_be_negative():
    rms_db = ProfileDatabase()
    trms_db = ProfileDatabase()
    rms_db.add_activation("f", 1, 1, 0)
    rms_db.add_activation("f", 1, 2, 0)
    trms_db.add_activation("f", 1, 5, 0)
    trms_db.add_activation("f", 1, 5, 0)
    rms = rms_db.profile("f", 1)
    trms = trms_db.profile("f", 1)
    assert profile_richness(rms, trms) == pytest.approx(-0.5)


def test_profile_richness_zero_rms_points():
    assert profile_richness(RoutineProfile("f", 1), RoutineProfile("f", 1)) == 0.0


def test_richness_by_routine():
    rms_db, trms_db = make_dbs()
    richness = richness_by_routine(rms_db, trms_db)
    assert richness["f"] == pytest.approx(0.5)
    assert richness["g"] == pytest.approx(0.0)


def test_input_volume_global():
    rms_db, trms_db = make_dbs()
    # sums: rms 2+2+3+7 = 14, trms 4+5+6+7 = 22
    assert input_volume(rms_db, trms_db) == pytest.approx(1 - 14 / 22)


def test_input_volume_empty():
    assert input_volume(ProfileDatabase(), ProfileDatabase()) == 0.0


def test_input_volume_by_routine():
    rms_db, trms_db = make_dbs()
    volumes = input_volume_by_routine(rms_db, trms_db)
    assert volumes["f"] == pytest.approx(1 - 7 / 15)
    assert volumes["g"] == pytest.approx(0.0)


def test_induced_split_global():
    _, trms_db = make_dbs()
    thread_pct, external_pct = induced_split(trms_db)
    assert thread_pct == pytest.approx(75.0)
    assert external_pct == pytest.approx(25.0)
    assert thread_pct + external_pct == pytest.approx(100.0)


def test_induced_split_no_induced_accesses():
    assert induced_split(ProfileDatabase()) == (0.0, 0.0)


def test_induced_split_by_routine():
    trms_db = ProfileDatabase()
    trms_db.add_activation("f", 1, 10, cost=1, induced_thread=3, induced_external=1)
    trms_db.add_activation("g", 1, 10, cost=1)
    split = induced_split_by_routine(trms_db)
    assert split["f"][0] == pytest.approx(75.0)
    assert split["f"][1] == pytest.approx(25.0)
    assert "g" not in split


def test_tail_curve_shape():
    curve = tail_curve([3.0, 1.0, 2.0])
    assert curve == [
        (pytest.approx(100 / 3), 3.0),
        (pytest.approx(200 / 3), 2.0),
        (100.0, 1.0),
    ]
    # y must be non-increasing as x grows
    ys = [y for _, y in curve]
    assert ys == sorted(ys, reverse=True)


def test_tail_curve_empty():
    assert tail_curve([]) == []
