"""Failure-policy tests: crashes, errors, hangs, and dead pools.

The farm's contract is that failures cost time, never correctness:
every scenario here must still produce the exact online profile.
"""

import pytest

from repro.farm import analyze_file
from repro.farm.worker import ShardTask, run_shard
from repro.reporting import render_farm_stats

from .util import comparable, online_db, record_benchmark_v2


@pytest.fixture
def recorded(tmp_path):
    path = tmp_path / "trace.rpt2"
    events = record_benchmark_v2("350.md", path, threads=4, scale=0.4)
    return str(path), comparable(online_db(events))


def test_worker_crash_is_retried(recorded, tmp_path):
    path, reference = recorded
    sentinel = str(tmp_path / "crashed-once")
    result = analyze_file(
        path, jobs=2, keep_activations=True, retries=2,
        faults={0: ("crash-once", sentinel)},
    )
    assert comparable(result.db) == reference
    assert result.stats.retries >= 1
    assert result.stats.pool_failures >= 1
    by_id = {outcome.shard_id: outcome for outcome in result.stats.outcomes}
    assert by_id[0].attempts >= 2


def test_persistent_crash_falls_back_inline(recorded):
    path, reference = recorded
    result = analyze_file(
        path, jobs=2, keep_activations=True, retries=1,
        faults={0: ("crash-always",)},
    )
    assert comparable(result.db) == reference
    assert result.stats.fallbacks >= 1
    by_id = {outcome.shard_id: outcome for outcome in result.stats.outcomes}
    assert by_id[0].where == "inline"
    # the shard's books: both pool attempts failed, then it ran inline
    assert (by_id[0].attempts, by_id[0].retries, by_id[0].fell_back) == (2, 2, True)


def test_worker_exception_is_retried_then_falls_back(recorded):
    path, reference = recorded
    # "error" faults raise on every attempt: exhaust retries, go inline
    result = analyze_file(
        path, jobs=2, keep_activations=True, retries=1,
        faults={0: ("error",)},
    )
    assert comparable(result.db) == reference
    assert result.stats.retries >= 1
    assert result.stats.fallbacks >= 1


def test_hung_worker_times_out_and_falls_back(recorded):
    path, reference = recorded
    result = analyze_file(
        path, jobs=2, keep_activations=True, retries=0, timeout=0.3,
        faults={0: ("hang", 1.5)},
    )
    assert comparable(result.db) == reference
    assert result.stats.fallbacks >= 1
    assert result.stats.pool_failures >= 1
    by_id = {outcome.shard_id: outcome for outcome in result.stats.outcomes}
    assert (by_id[0].retries, by_id[0].timeouts, by_id[0].fell_back) == (1, 1, True)


def test_dead_pool_degrades_to_inline(recorded, monkeypatch):
    path, reference = recorded

    def broken_pool(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", broken_pool)
    messages = []
    result = analyze_file(path, jobs=4, keep_activations=True,
                          progress=messages.append)
    assert comparable(result.db) == reference
    assert result.stats.pool_failures == 1
    assert result.stats.fallbacks == len(result.stats.outcomes)
    assert all(outcome.where == "inline" and outcome.fell_back
               for outcome in result.stats.outcomes)
    assert any("inline" in message for message in messages)
    report = render_farm_stats(result.stats)
    assert report.count("inline!") == len(result.stats.outcomes)


def test_worker_death_during_submission_is_a_failed_attempt(recorded, monkeypatch):
    """Once a worker has died, ``submit`` itself raises
    ``BrokenProcessPool``: the shard being submitted has failed one
    pool attempt, and the pool is recycled like any broken pool."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    class DiesBeforeSecondSubmit(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submits = 0

        def submit(self, *args, **kwargs):
            self.submits += 1
            if self.submits == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", DiesBeforeSecondSubmit)
    path, reference = recorded
    result = analyze_file(path, jobs=2, keep_activations=True)
    assert comparable(result.db) == reference
    assert result.stats.pool_failures >= 1
    by_id = {outcome.shard_id: outcome for outcome in result.stats.outcomes}
    assert len(by_id) == 2
    assert (by_id[1].attempts, by_id[1].retries, by_id[1].where) == (2, 1, "pool")


def test_inline_execution_strips_faults(recorded, tmp_path):
    """Fallback execution must never re-trigger the injected fault."""
    path, reference = recorded
    result = analyze_file(
        path, jobs=2, keep_activations=True, retries=0,
        faults={0: ("crash-always",), 1: ("crash-always",)},
    )
    assert comparable(result.db) == reference
    assert all(outcome.where == "inline" for outcome in result.stats.outcomes)


def test_run_shard_fault_vocabulary(tmp_path, recorded):
    path, _ = recorded
    with pytest.raises(RuntimeError, match="injected"):
        run_shard(ShardTask(path, 0, (1,), (0,), fault=("error",)))
    with pytest.raises(ValueError, match="unknown fault"):
        run_shard(ShardTask(path, 0, (1,), (0,), fault=("nonsense",)))
