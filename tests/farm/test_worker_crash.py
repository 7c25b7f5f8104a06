"""Failure-policy tests: crashes, raises, hangs, processes that cannot start.

Every shard process gets one attempt against one deadline; a shard
whose process fails is rerun inline.  The farm's contract is that
failures cost time, never correctness: every scenario here ends with
the exact online profile — or, for a malformed trace, a
``TraceFileError`` — and with no process of the run left behind.

Faults are injected from the test side: ``run_shard`` as the engine
sees it is replaced by a wrapper that misbehaves for one shard, but
only in a child process (the fork context carries the patch into the
child); the inline rerun in the coordinator runs the real shard.
"""

import io
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import repro.farm.engine as engine
from repro.cli import main
from repro.core.tracefile import MalformedRecord
from repro.farm import analyze_file
from repro.reporting import render_farm_stats

from .test_malformed_records import patch_first_call
from .util import comparable, online_db, record_benchmark_v2

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture
def recorded(tmp_path):
    path = tmp_path / "trace.rpt2"
    events = record_benchmark_v2("350.md", path, threads=4, scale=0.4)
    return str(path), comparable(online_db(events))


def fault_in_child(monkeypatch, fault, shard_id=0):
    """Make shard ``shard_id`` run ``fault()`` in its process, not inline."""
    real = engine.run_shard
    coordinator = os.getpid()

    def run_shard(task):
        if task.shard_id == shard_id and os.getpid() != coordinator:
            fault()
        return real(task)

    monkeypatch.setattr(engine, "run_shard", run_shard)


def crash():
    os._exit(3)


def hang():
    time.sleep(30)


def raise_error():
    raise RuntimeError("injected worker error")


def outcomes(result):
    return {outcome.shard_id: outcome for outcome in result.stats.outcomes}


def assert_no_children():
    assert multiprocessing.active_children() == []


def assert_shard_0_fell_back(result, messages, note, timeouts=0):
    """Shard 0's process failed and it ran inline; shard 1 stayed on its own."""
    by_id = outcomes(result)
    assert (by_id[0].where, by_id[0].retries, by_id[0].timeouts,
            by_id[0].fell_back) == ("inline", 1, timeouts, True)
    assert (by_id[1].where, by_id[1].retries, by_id[1].fell_back) == ("pool", 0, False)
    assert (result.stats.retries, result.stats.fallbacks) == (1, 1)
    assert messages == [f"farm: shard 0 {note}; falling back inline\n"]
    assert render_farm_stats(result.stats).count("inline!") == 1


def test_persistent_crash_falls_back_inline(recorded, monkeypatch):
    """A crash is seen as EOF on the shard's pipe; its sibling still
    finishes on its own process."""
    path, reference = recorded
    fault_in_child(monkeypatch, crash)
    messages = []
    result = analyze_file(path, jobs=2, keep_activations=True,
                          progress=messages.append)
    assert comparable(result.db) == reference
    assert_no_children()
    assert_shard_0_fell_back(result, messages, "process exited with code 3")


def test_worker_exception_falls_back_inline(recorded, monkeypatch):
    path, reference = recorded
    fault_in_child(monkeypatch, raise_error)
    messages = []
    result = analyze_file(path, jobs=2, keep_activations=True,
                          progress=messages.append)
    assert comparable(result.db) == reference
    assert_no_children()
    assert_shard_0_fell_back(result, messages,
                             "raised RuntimeError: injected worker error")


def test_hung_worker_times_out_and_falls_back(recorded, monkeypatch):
    """A process still running at the deadline is killed, not awaited."""
    path, reference = recorded
    fault_in_child(monkeypatch, hang)
    messages = []
    started = time.monotonic()
    result = analyze_file(path, jobs=2, keep_activations=True, timeout=2,
                          progress=messages.append)
    assert time.monotonic() - started < 10
    assert comparable(result.db) == reference
    assert_no_children()
    assert_shard_0_fell_back(result, messages, "timed out after 2s", timeouts=1)


def fail_to_start(monkeypatch, shard_ids):
    """Make starting the process of each shard in ``shard_ids`` raise."""
    from multiprocessing.context import ForkProcess

    real_popen = ForkProcess._Popen

    def popen(process):
        if process._args[0].shard_id in shard_ids:
            raise OSError("fork failed")
        return real_popen(process)

    monkeypatch.setattr(ForkProcess, "_Popen", staticmethod(popen))


def test_shard_whose_process_cannot_start_runs_inline(recorded, monkeypatch):
    path, reference = recorded
    fail_to_start(monkeypatch, {0})
    messages = []
    result = analyze_file(path, jobs=2, keep_activations=True,
                          progress=messages.append)
    assert comparable(result.db) == reference
    assert_no_children()
    assert_shard_0_fell_back(result, messages, "process could not start (fork failed)")


def test_dead_pool_degrades_to_inline(recorded, monkeypatch):
    """No process can start at all: every shard runs inline."""
    path, reference = recorded
    fail_to_start(monkeypatch, {0, 1, 2, 3})
    messages = []
    result = analyze_file(path, jobs=4, keep_activations=True,
                          progress=messages.append)
    assert comparable(result.db) == reference
    assert_no_children()
    shards = len(result.stats.outcomes)
    assert shards > 1
    assert (result.stats.retries, result.stats.fallbacks) == (shards, shards)
    assert all(outcome.where == "inline" and outcome.fell_back
               for outcome in result.stats.outcomes)
    assert len(messages) == shards
    assert all("falling back inline" in message for message in messages)
    assert render_farm_stats(result.stats).count("inline!") == shards


def test_inline_execution_strips_faults(recorded, monkeypatch):
    """Every shard's process fails; the inline reruns never see the fault."""
    path, reference = recorded
    fault_in_child(monkeypatch, crash, shard_id=0)
    fault_in_child(monkeypatch, raise_error, shard_id=1)
    result = analyze_file(path, jobs=2, keep_activations=True)
    assert comparable(result.db) == reference
    assert_no_children()
    assert all(outcome.where == "inline" and outcome.fell_back
               for outcome in result.stats.outcomes)
    assert render_farm_stats(result.stats).count("inline!") == 2


def test_malformed_trace_raises_at_once_and_leaves_no_process(tmp_path, monkeypatch):
    """One shard's ``TraceFileError`` comes back over its pipe and
    propagates; the sibling, hung here, is killed rather than awaited."""
    path = tmp_path / "kdtree.rpt2"
    record_benchmark_v2("376.kdtree", path, threads=2, scale=0.3)
    patch_first_call(path, "id-past-table")
    fault_in_child(monkeypatch, hang, shard_id=1)
    messages = []
    started = time.monotonic()
    with pytest.raises(MalformedRecord, match="outside string table"):
        analyze_file(str(path), jobs=2, timeout=20, progress=messages.append)
    assert time.monotonic() - started < 10
    assert_no_children()
    assert messages == []

    out = io.StringIO()
    assert main(["analyze", str(path), "--metric", "trms", "--jobs", "2"], out=out) == 2
    assert_no_children()
    errors = [line for line in out.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "outside string table" in errors[0]


HUNG_SHARD_SCRIPT = """
import os, sys, time
import repro.farm.engine as engine
from repro.cli import main

real, coordinator = engine.run_shard, os.getpid()

def run_shard(task):
    if task.shard_id == 0 and os.getpid() != coordinator:
        time.sleep(20)
    return real(task)

engine.run_shard = run_shard
sys.exit(main(sys.argv[1:]))
"""


def test_hung_worker_does_not_hold_the_process_past_the_deadline(tmp_path):
    """The whole ``repro analyze`` process exits soon after the deadline
    with the exact dump, instead of waiting out a 20 s hang."""
    trace = tmp_path / "md.rpt2"
    record_benchmark_v2("350.md", trace, threads=4, scale=0.4)
    inline = tmp_path / "inline.profile"
    assert main(["analyze", str(trace), "--metric", "trms", "--dump", str(inline)],
                out=io.StringIO()) == 0

    pooled = tmp_path / "pooled.profile"
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-c", HUNG_SHARD_SCRIPT, "analyze", str(trace),
         "--metric", "trms", "--jobs", "2", "--timeout", "0.5",
         "--dump", str(pooled)],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 10, elapsed
    assert pooled.read_bytes() == inline.read_bytes()
    assert "shard 0 timed out after 0.5s; falling back inline" in completed.stdout
