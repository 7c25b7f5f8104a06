"""Stepwise verification of Invariant 2 (the algorithm's heart).

The differential tests compare final profile databases; these go finer:
after *every single event*, for *every pending activation* of every
thread, the suffix sum of shadow-stack partials must equal the true
(t)rms of that activation so far — computed independently by the naive
oracle, whose frames hold the explicit access sets of Figure 10.
"""

from hypothesis import given, settings

from repro.core import NaiveRms, NaiveTrms, RmsProfiler, TrmsProfiler
from repro.core.events import bind_handlers

from .util import events_strategy


def step_both(events, fast, oracle):
    """Drive both consumers one event at a time, through the handlers
    ``replay`` binds, checking after each."""
    fast_handlers = bind_handlers(fast)
    oracle_handlers = bind_handlers(oracle)
    fast.on_start()
    oracle.on_start()
    for event in events:
        fast_handlers[event.kind](event.thread, event.arg)
        oracle_handlers[event.kind](event.thread, event.arg)
        check_invariant(fast, oracle)
    fast.on_finish()
    oracle.on_finish()


def check_invariant(fast, oracle):
    for thread, state in fast.states.items():
        oracle_stack = oracle._stacks.get(thread)
        assert oracle_stack is not None, thread
        assert len(oracle_stack) == len(state.stack)
        for index, oracle_frame in enumerate(oracle_stack):
            suffix = state.stack.suffix_partial_sum(index)
            assert suffix == oracle_frame.size, (
                thread, index, oracle_frame.rtn, suffix, oracle_frame.size
            )


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=60))
def test_invariant2_holds_after_every_event_trms(events):
    step_both(events, TrmsProfiler(), NaiveTrms())


@settings(max_examples=60, deadline=None)
@given(events_strategy(max_ops=60))
def test_invariant2_holds_after_every_event_rms(events):
    step_both(events, RmsProfiler(), NaiveRms())


@settings(max_examples=40, deadline=None)
@given(events_strategy(max_ops=60))
def test_invariant2_under_renumbering(events):
    """Renumbering must never disturb the partials, only the stamps."""
    step_both(events, TrmsProfiler(max_count=15), NaiveTrms())
