"""Shared helpers for core tests: trace generation and database snapshots."""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from hypothesis import strategies as st

from repro.core import Event, EventKind, ProfileDatabase

ROUTINES = ["f", "g", "h", "k"]
THREADS = [1, 2, 3]
ADDRESSES = list(range(8))


def db_snapshot(db: ProfileDatabase) -> Dict:
    """Canonical, comparable representation of a profile database."""
    profiles = {}
    for profile in db:
        points = {
            size: (stats.calls, stats.cost_min, stats.cost_max, stats.cost_sum)
            for size, stats in profile.points.items()
        }
        profiles[(profile.routine, profile.thread)] = (
            points,
            profile.calls,
            profile.size_sum,
            profile.cost_sum,
            profile.induced_thread_sum,
            profile.induced_external_sum,
        )
    return {
        "profiles": profiles,
        "activations": sorted(db.activations),
        "global_induced": db.total_induced(),
    }


class _OpsToEvents:
    """Expand a generated op list into a merged event stream.

    Ops are tuples driven by hypothesis, turned into events one for one:
    no pending-call depth is tracked, so a ``return`` op becomes a RETURN
    even on a thread with no open call (about three in four seeded op
    lists hold one).  Every profiler and oracle treats an unmatched
    return as a no-op, so the differential property covers that case
    too, alongside the dedicated unit tests.
    """

    def __init__(self, ops: List[Tuple]):
        self.ops = ops

    def build(self) -> List[Event]:
        events: List[Event] = []
        current_thread = None
        routine_cycle = itertools.cycle(ROUTINES)
        for op in self.ops:
            kind, thread, arg = op
            if thread != current_thread:
                events.append(Event(EventKind.THREAD_SWITCH, thread, thread))
                current_thread = thread
            if kind == "call":
                events.append(Event(EventKind.CALL, thread, next(routine_cycle)))
            elif kind == "return":
                events.append(Event(EventKind.RETURN, thread, None))
            elif kind == "read":
                events.append(Event(EventKind.READ, thread, arg))
            elif kind == "write":
                events.append(Event(EventKind.WRITE, thread, arg))
            elif kind == "kread":
                events.append(Event(EventKind.KERNEL_READ, thread, arg))
            elif kind == "kwrite":
                events.append(Event(EventKind.KERNEL_WRITE, thread, arg))
            elif kind == "cost":
                events.append(Event(EventKind.COST, thread, arg))
        return events


def op_strategy():
    """One random trace operation: (kind, thread, arg)."""
    kinds = st.sampled_from(
        ["call", "call", "return", "read", "read", "read", "write", "write",
         "kread", "kwrite", "cost"]
    )
    return st.tuples(kinds, st.sampled_from(THREADS), st.sampled_from(ADDRESSES))


def events_strategy(max_ops: int = 120):
    """A merged event stream from a random op list."""
    return st.lists(op_strategy(), min_size=0, max_size=max_ops).map(
        lambda ops: _OpsToEvents(ops).build()
    )


def repeat_reads_strategy(max_runs: int = 12):
    """A merged event stream made of runs of same-thread reads.

    ``events_strategy`` draws each op's thread uniformly, so a thread
    rarely reads one cell twice in one epoch (no call, thread switch or
    kernel write in between).  Here each run is one thread reading three
    cells four to ten times in a row, so it repeats at least one; between
    runs come calls, returns, writes (a thread switch first when by
    another thread), kernel reads and writes, and bare thread switches
    (a ``cost`` on another thread).
    """
    cells = ADDRESSES[:3]
    run = st.tuples(st.sampled_from(THREADS),
                    st.lists(st.sampled_from(cells), min_size=4, max_size=10))
    gap = st.tuples(
        st.sampled_from(["call", "return", "write", "kread", "kwrite", "cost"]),
        st.sampled_from(THREADS),
        st.sampled_from(cells),
    )

    def ops_of(parts):
        ops = []
        for (thread, addrs), gaps in parts:
            ops.extend(("read", thread, addr) for addr in addrs)
            ops.extend(gaps)
        return ops

    return st.lists(st.tuples(run, st.lists(gap, max_size=3)),
                    min_size=1, max_size=max_runs).map(
        lambda parts: _OpsToEvents(ops_of(parts)).build())


def repeat_reads(events: List[Event]) -> int:
    """How many reads in ``events`` repeat an access of the same thread
    to the same cell within one epoch, counted from the stream alone.

    Such a read finds its cell stamp equal to the profiler's counter:
    the thread's access stamped it with the counter, and only a call, a
    thread switch or a kernel write moves the counter on.
    """
    repeats = 0
    touched = set()
    for event in events:
        kind = event.kind
        if kind in (EventKind.CALL, EventKind.THREAD_SWITCH, EventKind.KERNEL_WRITE):
            touched.clear()
        elif kind in (EventKind.READ, EventKind.KERNEL_READ, EventKind.WRITE):
            key = (event.thread, event.arg)
            if kind != EventKind.WRITE and key in touched:
                repeats += 1
            touched.add(key)
    return repeats
