"""Differential property tests: flat-array kernel vs the online profiler.

The flat kernel (:mod:`repro.core.flatkernel`) re-implements the TRMS
hot loop over columnar event batches — packed latest-write shadow, flat
array stacks, single interleaved pass.  Its contract is *bit identity*:
on any trace hypothesis can dream up, it must produce exactly the
database of the online :class:`~repro.core.trms.TrmsProfiler` —
including under timestamp renumbering (Section 4.4) and context
sensitivity.
"""

import io

from hypothesis import given, settings

from repro.core import Event, EventKind, ProfileDatabase, TrmsProfiler, replay
from repro.core.flatkernel import analyze_events_flat

from .util import db_snapshot, events_strategy


def flat_db(events, **kwargs):
    db = ProfileDatabase(keep_activations=True)
    analyze_events_flat(events, db, **kwargs)
    return db


def online_db(events, **kwargs):
    profiler = TrmsProfiler(keep_activations=True, **kwargs)
    replay(events, profiler)
    return profiler.db


@settings(max_examples=150, deadline=None)
@given(events_strategy())
def test_flat_kernel_matches_online_profiler(events):
    assert db_snapshot(flat_db(events)) == db_snapshot(online_db(events))


@settings(max_examples=120, deadline=None)
@given(events_strategy())
def test_flat_kernel_matches_online_under_renumbering(events):
    """The online profiler under a tiny counter bound renumbers its
    timestamps constantly (Section 4.4); the flat kernel uses unbounded
    trace positions and must still land on the identical profiles —
    the counter-overflow edge cases cancel out or neither is exact."""
    assert db_snapshot(flat_db(events)) == \
        db_snapshot(online_db(events, max_count=40))


@settings(max_examples=120, deadline=None)
@given(events_strategy())
def test_flat_kernel_context_sensitive_matches_online(events):
    assert db_snapshot(flat_db(events, context_sensitive=True)) == \
        db_snapshot(online_db(events, context_sensitive=True))


@settings(max_examples=100, deadline=None)
@given(events_strategy())
def test_flat_kernel_dumps_are_byte_identical(events):
    """The CI gate compares SHA-256 of profile dumps, so equality has to
    hold at the *byte* level of ``save_profile``, not just structurally."""
    from repro.farm import save_profile

    flat_dump = io.StringIO()
    online_dump = io.StringIO()
    save_profile(flat_db(events), flat_dump)
    save_profile(online_db(events), online_dump)
    assert flat_dump.getvalue() == online_dump.getvalue()


def test_flat_kernel_holds_a_thread_cost_past_int64():
    """A thread cost of 2**63 fits no int64 column; the flat stack's
    list columns hold it, so the kernel agrees with the online profiler
    (an ``array('q')`` cost column raised ``OverflowError`` at the
    ``CALL`` that snapshots it)."""
    half = 1 << 62
    events = [
        Event(EventKind.COST, 1, half),
        Event(EventKind.COST, 1, half),
        Event(EventKind.CALL, 1, "f"),
        Event(EventKind.READ, 1, 5),
        Event(EventKind.COST, 1, 3),
        Event(EventKind.RETURN, 1, None),
        Event(EventKind.COST, 1, half),
    ]
    flat = flat_db(events)
    assert db_snapshot(flat) == db_snapshot(online_db(events))
    assert flat.profile("f", 1).cost_sum == 3
    assert flat.profile("<root:1>", 1).cost_sum == 3 * half + 3


def test_flat_kernel_on_real_vm_trace():
    """End to end on a recorded multithreaded guest run."""
    import sys
    sys.path.insert(0, "benchmarks")
    from conftest import EventRecorder

    from repro.vm import programs

    recorder = EventRecorder()
    programs.producer_consumer(20).run(tools=recorder)
    events = []
    kind_map = {
        "on_call": EventKind.CALL, "on_return": EventKind.RETURN,
        "on_read": EventKind.READ, "on_write": EventKind.WRITE,
        "on_kernel_read": EventKind.KERNEL_READ,
        "on_kernel_write": EventKind.KERNEL_WRITE,
        "on_thread_switch": EventKind.THREAD_SWITCH,
        "on_cost": EventKind.COST,
    }
    for name, first, second in recorder.events:
        kind = kind_map[name]
        if kind == EventKind.THREAD_SWITCH:
            events.append(Event(kind, first, first))
        elif kind == EventKind.RETURN:
            events.append(Event(kind, first, None))
        else:
            events.append(Event(kind, first, second))
    flat = flat_db(events)
    assert db_snapshot(flat) == db_snapshot(online_db(events))
    consumer = [a for a in flat.activations if a.routine == "consumer"][0]
    assert consumer.size == 20
    assert consumer.induced_thread == 20
