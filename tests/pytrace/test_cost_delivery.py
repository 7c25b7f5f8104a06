"""A session delivers cost per thread, as one sum, at the points where
consumers read it.

Consumers read a thread's cost only at its calls and returns, so a
session keeps the units the emitting thread is charged (``op_cost`` per
tracked access, ``call_cost`` per call, and ``charge``) and hands them
over as one ``on_cost`` just before that thread's next call or return,
before a change to another thread, or before ``on_finish``.
"""

import io
from collections import Counter

import pytest

from repro.core import EventBus, RmsProfiler, TrmsProfiler
from repro.farm import BinaryTraceWriter, analyze_file, save_profile
from repro.pytrace import TraceSession

from ..core.test_events import Recorder
from . import programs

COSTS = ((1, 1), (0, 3), (3, 0), (2, 5), (0, 0))


def record(program, op_cost, call_cost):
    recorder = Recorder()
    session = TraceSession(tools=recorder, op_cost=op_cost, call_cost=call_cost)
    with session:
        charged = program(session)
    return recorder.log, charged


def run_nested_outer(session):
    """The nested program, its inner session recording elsewhere."""
    return programs.make_nested(Recorder())(session)


PROGRAMS = dict(programs.PROGRAMS, nested=run_nested_outer)


@pytest.mark.parametrize("op_cost,call_cost", COSTS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_units_delivered_per_thread_are_every_unit_charged(name, op_cost, call_cost):
    log, charged = record(PROGRAMS[name], op_cost, call_cost)
    accesses, calls, delivered = Counter(), Counter(), Counter()
    for event in log:
        if event[0] in ("read", "write"):
            accesses[event[1]] += 1
        elif event[0] == "call":
            calls[event[1]] += 1
        elif event[0] == "cost":
            delivered[event[1]] += event[2]
    threads = set(accesses) | set(calls) | set(charged) | set(delivered)
    assert threads
    for thread in threads:
        expected = (op_cost * accesses[thread] + call_cost * calls[thread]
                    + charged[thread])
        assert delivered[thread] == expected, thread


@pytest.mark.parametrize("op_cost,call_cost", COSTS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_each_cost_is_nonzero_and_just_before_a_delivery_point(name, op_cost, call_cost):
    """No zero sums, and every COST of thread T comes right before T's
    call or return, a change away from T, or the end of the session."""
    log, _ = record(PROGRAMS[name], op_cost, call_cost)
    assert log[-1] == ("finish",)
    for event, after in zip(log, log[1:]):
        if event[0] != "cost":
            continue
        _, thread, units = event
        assert units != 0
        assert (after[0] in ("call", "return") and after[1] == thread
                or after[0] == "switch" and after[1] != thread
                or after[0] == "finish"), (event, after)
    kinds = Counter(event[0] for event in log)
    assert kinds["cost"] <= kinds["call"] + kinds["return"] + kinds["switch"] + 1


def test_a_call_delivers_its_callers_units_and_keeps_its_own():
    """``call_cost`` lands on the callee: it waits with the callee's ops."""
    log, _ = record(programs.solo, op_cost=1, call_cost=3)
    first_call = next(index for index, event in enumerate(log)
                      if event[0] == "call")
    first_return = next(index for index, event in enumerate(log)
                        if event[0] == "return")
    between = log[first_call + 1:first_return]
    accesses = sum(1 for event in between if event[0] in ("read", "write"))
    assert log[first_return - 1] == ("cost", 1, 3 + accesses)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_analyzed_trace_equals_the_online_profiles(tmp_path, name):
    """A session recorded to a v2 trace, analysed with both metrics,
    gives the dumps its online profilers wrote."""
    path = tmp_path / "session.rpt2"
    trms, rms = TrmsProfiler(), RmsProfiler()
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=64)
        with TraceSession(tools=EventBus([writer, trms, rms])) as session:
            PROGRAMS[name](session)
        writer.close()
    result = analyze_file(str(path), metric="both")
    assert dump(result.db) == dump(trms.db)
    assert dump(result.rms_db) == dump(rms.db)


def dump(db) -> str:
    stream = io.StringIO()
    save_profile(db, stream)
    return stream.getvalue()
