"""Differential tests: ``analyze_file``'s contract is bit-exactness.

Profiles from the one analysis pass over a v2 trace must equal the
online ``TrmsProfiler`` (and, for RMS, the online ``RmsProfiler``) on
every registered workload suite, down to the bytes of their profile
dumps, and merged per-run profiles must equal the merge of the online
results.
"""

import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Event, EventKind, RmsProfiler, replay
from repro.farm import (
    analyze_file,
    merge_databases,
    save_profile,
    write_binary_trace,
)
from repro.workloads import all_benchmarks

from ..core.util import events_strategy
from .util import comparable, online_db, record_benchmark_v2

ALL_NAMES = [bench.name for bench in all_benchmarks()]


def flat_ids(names):
    """Test ids name the analysis kernel the farm runs."""
    return [f"{name}-flat" for name in names]


def dump(db):
    stream = io.StringIO()
    save_profile(db, stream)
    return stream.getvalue()


@pytest.mark.parametrize("name", ALL_NAMES, ids=flat_ids(ALL_NAMES))
def test_farm_equals_online_on_every_benchmark(name, tmp_path):
    """The whole pass (file, chunk decode, flat kernel) vs online."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    result = analyze_file(str(path), keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernel_dumps_byte_identical_on_every_benchmark(name, tmp_path):
    """The farm and the online profiler must agree to the *byte* in
    their profile dumps — the equality the CI gate re-checks via SHA-256."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    assert dump(analyze_file(str(path)).db) == dump(online_db(events))


def online_rms_db(events, **kwargs):
    profiler = RmsProfiler(keep_activations=True, **kwargs)
    replay(events, profiler)
    return profiler.db


@pytest.mark.parametrize("name", ALL_NAMES)
def test_one_pass_serves_both_metrics_on_every_benchmark(name, tmp_path):
    """``metric="both"``: the TRMS and RMS databases of the one pass dump
    the bytes of the online profiler of their metric."""
    path = tmp_path / f"{name}.rpt2"
    events = record_benchmark_v2(name, path, threads=4, scale=0.4)
    result = analyze_file(str(path), metric="both")
    assert dump(result.db) == dump(online_db(events))
    assert dump(result.rms_db) == dump(online_rms_db(events))


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=100), st.sampled_from([4, 64]), st.booleans())
def test_one_pass_metrics_equal_online_on_arbitrary_streams(events, chunk_events, context):
    """Each metric gets exactly its database, equal to its online profiler."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "stream.rpt2")
        with open(path, "wb") as stream:
            write_binary_trace(events, stream, chunk_events=chunk_events)
        results = {metric: analyze_file(path, metric=metric, context_sensitive=context,
                                        keep_activations=True)
                   for metric in ("trms", "rms", "both")}
    trms = comparable(online_db(events, context_sensitive=context))
    rms = comparable(online_rms_db(events, context_sensitive=context))
    assert comparable(results["both"].db) == comparable(results["trms"].db) == trms
    assert comparable(results["both"].rms_db) == comparable(results["rms"].rms_db) == rms
    assert results["trms"].rms_db is None and results["rms"].db is None


#: thread 2's first record is a COST with no THREAD_SWITCH before it:
#: 1 calls f and costs 5; 2 costs 7, calls g, costs 1, returns; 1 returns
UNSWITCHED_COST = [
    Event(EventKind.CALL, 1, "f"),
    Event(EventKind.COST, 1, 5),
    Event(EventKind.COST, 2, 7),
    Event(EventKind.CALL, 2, "g"),
    Event(EventKind.COST, 2, 1),
    Event(EventKind.RETURN, 2, None),
    Event(EventKind.RETURN, 1, None),
]


@pytest.mark.parametrize("chunk_events", [1, 2, 3, 64])
def test_cost_follows_threads_without_switch_records(chunk_events, tmp_path):
    """Each thread keeps its own cost across thread changes that no
    ``THREAD_SWITCH`` announces, in one chunk and split across chunks."""
    path = tmp_path / "unswitched.rpt2"
    with open(path, "wb") as stream:
        write_binary_trace(UNSWITCHED_COST, stream, chunk_events=chunk_events)
    result = analyze_file(str(path), metric="both", keep_activations=True)
    assert comparable(result.db) == comparable(online_db(UNSWITCHED_COST))
    assert comparable(result.rms_db) == comparable(online_rms_db(UNSWITCHED_COST))


def test_unknown_metric_is_rejected(tmp_path):
    path = tmp_path / "empty.rpt2"
    with open(path, "wb") as stream:
        write_binary_trace([], stream)
    with pytest.raises(ValueError, match="unknown metric"):
        analyze_file(str(path), metric="tmrs")


def test_farm_exact_under_any_jobs_count(tmp_path):
    """``jobs`` is accepted and ignored: every count gives the same bytes."""
    path = tmp_path / "md.rpt2"
    events = record_benchmark_v2("350.md", path, threads=6, scale=0.5)
    reference = dump(online_db(events))
    for jobs in (1, 2, 16):
        assert dump(analyze_file(str(path), jobs=jobs).db) == reference, f"jobs={jobs}"


def test_record_and_analyze_start_no_process(tmp_path):
    """The analysis is one in-process pass: a fresh interpreter that
    records and analyzes a trace never imports ``multiprocessing``."""
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"trace = {str(tmp_path / 'md.rpt2')!r}\n"
        "assert main(['record', '350.md', trace, '--scale', '0.3']) == 0\n"
        "assert main(['analyze', trace, '--stats']) == 0\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]


def test_farm_context_sensitive_equals_online(tmp_path):
    path = tmp_path / "kdtree.rpt2"
    events = record_benchmark_v2("376.kdtree", path, threads=4, scale=0.5)
    result = analyze_file(str(path), context_sensitive=True, keep_activations=True)
    assert comparable(result.db) == \
        comparable(online_db(events, context_sensitive=True))


def test_skewed_plan_is_exact(tmp_path):
    """dedup's pipeline stages are uneven; force tiny chunks so thread
    runs and activations span many chunk boundaries, then check the
    output."""
    path = tmp_path / "dedup.rpt2"
    events = record_benchmark_v2("dedup", path, threads=4, scale=0.5,
                                 chunk_events=32)
    result = analyze_file(str(path), keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=100), st.sampled_from([4, 64]))
def test_farm_equals_online_on_arbitrary_streams(events, chunk_events):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "stream.rpt2")
        with open(path, "wb") as stream:
            write_binary_trace(events, stream, chunk_events=chunk_events)
        result = analyze_file(path, keep_activations=True)
    assert comparable(result.db) == comparable(online_db(events))


def test_merged_runs_equal_merged_online(tmp_path):
    """merge(farm(A), farm(B)) == merge(online(A), online(B))."""
    farm_dbs, online_dbs = [], []
    for index, scale in enumerate((0.4, 0.7)):
        path = tmp_path / f"run{index}.rpt2"
        events = record_benchmark_v2("372.smithwa", path, threads=4, scale=scale)
        farm_dbs.append(analyze_file(str(path)).db)
        online_dbs.append(online_db(events))
    merged_farm = merge_databases(farm_dbs)
    merged_online = merge_databases(online_dbs)
    assert comparable(merged_farm)[:2] == comparable(merged_online)[:2]
