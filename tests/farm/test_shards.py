"""Shard-planning properties: exhaustive, disjoint, chunk-complete,
and a dominant thread alone in its shard."""

import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Event, EventKind
from repro.farm import plan_shards, read_trace_meta, write_binary_trace

from ..core.util import THREADS, events_strategy


def meta_of(events, chunk_events=8):
    buffer = io.BytesIO()
    write_binary_trace(events, buffer, chunk_events=chunk_events)
    buffer.seek(0)
    return read_trace_meta(buffer)


@settings(max_examples=80, deadline=None)
@given(events_strategy(max_ops=100), st.integers(min_value=1, max_value=6))
def test_plan_covers_every_thread_exactly_once(events, jobs):
    meta = meta_of(events)
    shards = plan_shards(meta, jobs)
    seen = []
    for shard in shards:
        seen.extend(shard.threads)
    assert sorted(seen) == sorted(meta.thread_totals())
    assert len(shards) <= jobs


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=100), st.integers(min_value=1, max_value=4))
def test_shard_chunks_are_sufficient(events, jobs):
    """A shard's chunk set contains every write chunk and every chunk
    with one of its threads' events — what the worker's exactness needs."""
    meta = meta_of(events, chunk_events=4)
    for shard in plan_shards(meta, jobs):
        mine = set(shard.threads)
        chunk_set = set(shard.chunk_indices)
        for index, chunk in enumerate(meta.chunks):
            if chunk.writes or mine & set(chunk.thread_counts):
                assert index in chunk_set


def test_single_job_single_shard():
    events = [Event(EventKind.READ, thread, thread) for thread in (1, 2, 3)] * 5
    shards = plan_shards(meta_of(events), 1)
    assert len(shards) == 1
    assert shards[0].threads == (1, 2, 3)


def test_balanced_threads_use_thread_strategy():
    events = []
    for _ in range(30):
        for thread in (1, 2, 3, 4):
            events.append(Event(EventKind.READ, thread, thread))
    shards = plan_shards(meta_of(events), 2)
    assert len(shards) == 2
    loads = sorted(shard.events for shard in shards)
    assert loads == [60, 60]


@settings(max_examples=80, deadline=None)
@given(events_strategy(max_ops=100), st.sampled_from(THREADS),
       st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=6))
def test_dominant_thread_is_alone_in_its_shard(events, heavy, margin, jobs):
    """A thread holding more than half of all events goes first into an
    empty shard, and the rest of the trace together is too light for
    LPT to put anything next to it: its shard's load is that thread's
    count, the lower bound of every whole-thread plan."""
    counts = Counter(event.thread for event in events)
    others = len(events) - counts[heavy]
    padding = max(0, others - counts[heavy]) + margin
    events = events + [Event(EventKind.READ, heavy, 0)] * padding
    meta = meta_of(events)
    totals = meta.thread_totals()
    assert 2 * totals[heavy] > sum(totals.values())
    shards = plan_shards(meta, jobs)
    assert [shard.threads for shard in shards if heavy in shard.threads] == [(heavy,)]


def test_empty_trace_plans_no_shards():
    assert plan_shards(meta_of([]), 4) == []


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        plan_shards(meta_of([]), 0)
