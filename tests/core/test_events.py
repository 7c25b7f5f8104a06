"""Unit tests for the trace event model and merging."""

import itertools

import pytest

from repro.core import Event, EventBus, EventKind, Trace, TraceConsumer, merge_traces, replay


class Recorder(TraceConsumer):
    """Collects callback invocations as tuples for assertions."""

    def __init__(self):
        self.log = []

    def on_start(self):
        self.log.append(("start",))

    def on_call(self, thread, routine):
        self.log.append(("call", thread, routine))

    def on_return(self, thread):
        self.log.append(("return", thread))

    def on_read(self, thread, addr):
        self.log.append(("read", thread, addr))

    def on_write(self, thread, addr):
        self.log.append(("write", thread, addr))

    def on_kernel_read(self, thread, addr):
        self.log.append(("kread", thread, addr))

    def on_kernel_write(self, thread, addr):
        self.log.append(("kwrite", thread, addr))

    def on_thread_switch(self, thread):
        self.log.append(("switch", thread))

    def on_cost(self, thread, units):
        self.log.append(("cost", thread, units))

    def on_finish(self):
        self.log.append(("finish",))


def test_trace_records_events_in_order():
    trace = Trace(7)
    trace.call("f")
    trace.read(3)
    trace.write(4)
    trace.ret()
    kinds = [event.kind for event in trace]
    assert kinds == [EventKind.CALL, EventKind.READ, EventKind.WRITE, EventKind.RETURN]
    assert all(event.thread == 7 for event in trace)


def test_trace_multi_cell_access_expands_per_cell():
    trace = Trace(1)
    trace.read(10, size=3)
    trace.kernel_write(20, size=2)
    addrs = [event.arg for event in trace]
    assert addrs == [10, 11, 12, 20, 21]


def test_trace_times_are_monotonic():
    trace = Trace(1)
    for _ in range(5):
        trace.read(0)
    times = [event.time for event in trace]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_merge_inserts_thread_switches():
    clock = itertools.count(1)
    tick = lambda: next(clock)
    t1, t2 = Trace(1, clock=tick), Trace(2, clock=tick)
    t1.call("f")
    t2.call("g")
    t1.read(0)
    merged = merge_traces([t1, t2])
    switches = [event for event in merged if event.kind == EventKind.THREAD_SWITCH]
    assert [event.arg for event in switches] == [1, 2, 1]


def test_merge_orders_by_shared_clock():
    clock = itertools.count(1)
    tick = lambda: next(clock)
    t1, t2 = Trace(1, clock=tick), Trace(2, clock=tick)
    t1.write(0)   # time 1
    t2.write(1)   # time 2
    t1.write(2)   # time 3
    merged = [event for event in merge_traces([t1, t2]) if event.kind == EventKind.WRITE]
    assert [event.arg for event in merged] == [0, 1, 2]


def test_merge_breaks_ties_deterministically():
    t1, t2 = Trace(1), Trace(2)   # independent clocks: both start at 1
    t1.write(0)
    t2.write(1)
    merged = [event for event in merge_traces([t1, t2]) if event.kind == EventKind.WRITE]
    # tie at time 1 broken by thread id
    assert [event.thread for event in merged] == [1, 2]


def test_merge_empty():
    assert merge_traces([]) == []
    assert merge_traces([Trace(1)]) == []


def test_replay_dispatches_every_kind():
    recorder = Recorder()
    events = [
        Event(EventKind.THREAD_SWITCH, 1, 1),
        Event(EventKind.CALL, 1, "f"),
        Event(EventKind.READ, 1, 5),
        Event(EventKind.WRITE, 1, 6),
        Event(EventKind.KERNEL_READ, 1, 7),
        Event(EventKind.KERNEL_WRITE, 1, 8),
        Event(EventKind.COST, 1, 3),
        Event(EventKind.RETURN, 1, None),
    ]
    replay(events, recorder)
    assert recorder.log == [
        ("start",),
        ("switch", 1),
        ("call", 1, "f"),
        ("read", 1, 5),
        ("write", 1, 6),
        ("kread", 1, 7),
        ("kwrite", 1, 8),
        ("cost", 1, 3),
        ("return", 1),
        ("finish",),
    ]


#: one event of every kind, thread and argument distinct, and the one
#: callback each must fire
EVERY_KIND = [
    (Event(EventKind.CALL, 1, "f"), ("call", 1, "f")),
    (Event(EventKind.RETURN, 2, None), ("return", 2)),
    (Event(EventKind.READ, 3, 5), ("read", 3, 5)),
    (Event(EventKind.WRITE, 4, 6), ("write", 4, 6)),
    (Event(EventKind.KERNEL_READ, 5, 7), ("kread", 5, 7)),
    (Event(EventKind.KERNEL_WRITE, 6, 8), ("kwrite", 6, 8)),
    (Event(EventKind.THREAD_SWITCH, 7, 9), ("switch", 9)),
    (Event(EventKind.COST, 8, 3), ("cost", 8, 3)),
]


@pytest.mark.parametrize("event, fired", EVERY_KIND,
                         ids=[event.kind.name for event, _ in EVERY_KIND])
def test_replay_plain_row_fires_what_the_equal_event_fires(event, fired):
    """A plain ``(kind, thread, arg, 0)`` tuple with an int kind, as
    ``repro analyze`` hands rows over, dispatches like its ``Event``."""
    row = (int(event.kind), event.thread, event.arg, 0)
    assert row == event and type(row[0]) is int
    from_event, from_row = Recorder(), Recorder()
    replay([event], from_event)
    replay([row], from_row)
    assert from_event.log == from_row.log == [("start",), fired, ("finish",)]


@pytest.mark.parametrize("kind", [-1, len(EventKind), 99])
def test_replay_unknown_kind_raises_and_fires_nothing(kind):
    """No handler table indexed by kind: ``-1`` must not reach ``on_cost``."""
    recorder = Recorder()
    with pytest.raises(KeyError):
        replay([Event(kind, 1, 5)], recorder)
    assert recorder.log == [("start",)]


def test_event_bus_fans_out_and_nests():
    inner1, inner2, outer = Recorder(), Recorder(), Recorder()
    bus = EventBus([inner1])
    bus.attach(EventBus([inner2]))
    bus.attach(outer)
    replay([Event(EventKind.READ, 1, 0)], bus)
    for recorder in (inner1, inner2, outer):
        assert ("read", 1, 0) in recorder.log
        assert recorder.log[0] == ("start",)
        assert recorder.log[-1] == ("finish",)


def test_event_bus_space_is_sum():
    class Sized(TraceConsumer):
        def __init__(self, n):
            self.n = n

        def space_bytes(self):
            return self.n

    bus = EventBus([Sized(10), Sized(32)])
    assert bus.space_bytes() == 42


def test_default_consumer_ignores_everything():
    consumer = TraceConsumer()
    replay([Event(EventKind.READ, 1, 0), Event(EventKind.CALL, 1, "f")], consumer)
    assert consumer.space_bytes() == 0


def test_trace_len_and_iter():
    trace = Trace(1)
    trace.call("f")
    trace.cost(2)
    assert len(trace) == 2
    assert [event.kind for event in trace] == [EventKind.CALL, EventKind.COST]
