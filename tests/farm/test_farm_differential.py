"""Differential tests: the farm's contract is bit-exactness.

Farm-analysed profiles (any shard plan, in-process or multiprocess)
must equal the online ``TrmsProfiler`` on every registered workload
suite, down to the bytes of their profile dumps, and merged per-run
profiles must equal the merge of the online results.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import (
    analyze_events,
    analyze_file,
    merge_databases,
    save_profile,
)
from repro.workloads import all_benchmarks

from ..core.util import events_strategy
from .util import comparable, online_db, record_benchmark_v2

ALL_NAMES = [bench.name for bench in all_benchmarks()]
#: one entry per kernel family, both suites — the multiprocess subset
POOLED_NAMES = ["350.md", "367.imagick", "376.kdtree", "dedup", "canneal", "vips"]


def flat_ids(names):
    """Test ids name the analysis kernel the farm runs."""
    return [f"{name}-flat" for name in names]


@pytest.mark.parametrize("name", ALL_NAMES, ids=flat_ids(ALL_NAMES))
def test_farm_equals_online_on_every_benchmark(name, tmp_path):
    """In-process farm (full shard/decode/merge machinery) vs online."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    result = analyze_file(str(path), jobs=1, keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernel_dumps_byte_identical_on_every_benchmark(name, tmp_path):
    """The farm and the online profiler must agree to the *byte* in
    their profile dumps — the equality the CI gate re-checks via SHA-256."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)

    def dump(db):
        stream = io.StringIO()
        save_profile(db, stream)
        return stream.getvalue()

    assert dump(analyze_file(str(path), jobs=1).db) == dump(online_db(events))


@pytest.mark.parametrize("name", POOLED_NAMES, ids=flat_ids(POOLED_NAMES))
def test_multiprocess_farm_equals_online(name, tmp_path):
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=6, scale=0.5)
    result = analyze_file(str(path), jobs=3, keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))
    # every shard really ran on the pool, no silent degradation
    assert all(outcome.where == "pool" for outcome in result.stats.outcomes)
    assert result.stats.fallbacks == 0


def test_farm_exact_under_any_jobs_count(tmp_path):
    """Shard plans differ with the job count; the profile must not."""
    path = tmp_path / "md.rpt2"
    events = record_benchmark_v2("350.md", path, threads=6, scale=0.5)
    reference = comparable(online_db(events))
    for jobs in (1, 2, 5, 16):
        result = analyze_file(str(path), jobs=jobs, keep_activations=True)
        assert comparable(result.db) == reference, f"jobs={jobs}"


def test_farm_context_sensitive_equals_online(tmp_path):
    path = tmp_path / "kdtree.rpt2"
    events = record_benchmark_v2("376.kdtree", path, threads=4, scale=0.5)
    result = analyze_file(str(path), jobs=2, context_sensitive=True,
                          keep_activations=True)
    assert comparable(result.db) == \
        comparable(online_db(events, context_sensitive=True))


def test_skewed_plan_is_exact(tmp_path):
    """dedup's pipeline stages are uneven; force tiny chunks so every
    shard decodes a scattered chunk subset, then check the output."""
    path = tmp_path / "dedup.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5,
                                 chunk_events=32)
    result = analyze_file(str(path), jobs=3, keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=100), st.sampled_from([4, 64]))
def test_farm_equals_online_on_arbitrary_streams(events, chunk_events):
    result = analyze_events(events, jobs=1, chunk_events=chunk_events,
                            keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))


def test_merged_runs_equal_merged_online(tmp_path):
    """merge(farm(A), farm(B)) == merge(online(A), online(B))."""
    farm_dbs, online_dbs = [], []
    for index, scale in enumerate((0.4, 0.7)):
        path = tmp_path / f"run{index}.rpt2"
        events = record_benchmark_v2("372.smithwa", path, threads=4, scale=scale)
        farm_dbs.append(analyze_file(str(path), jobs=2).db)
        online_dbs.append(online_db(events))
    merged_farm = merge_databases(farm_dbs)
    merged_online = merge_databases(online_dbs)
    assert comparable(merged_farm)[:2] == comparable(merged_online)[:2]
