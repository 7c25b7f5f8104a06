"""Differential property tests: timestamping algorithm vs. Figure 10 oracle.

These are the highest-value tests in the suite: hypothesis generates
arbitrary interleaved multi-thread traces (calls, returns, reads, writes,
kernel I/O, costs) and we require the efficient read/write timestamping
profilers to produce *exactly* the same profile databases as the naive
stack-walking oracles — sizes, costs, induced-access attribution, global
tallies, everything.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NaiveRms, NaiveTrms, RmsProfiler, TrmsProfiler, replay

from .util import db_snapshot, events_strategy, repeat_reads, repeat_reads_strategy


@settings(max_examples=200, deadline=None)
@given(events_strategy())
def test_trms_matches_naive_oracle(events):
    fast = TrmsProfiler(keep_activations=True)
    oracle = NaiveTrms(keep_activations=True)
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)


@settings(max_examples=200, deadline=None)
@given(events_strategy())
def test_rms_matches_naive_oracle(events):
    fast = RmsProfiler(keep_activations=True)
    oracle = NaiveRms(keep_activations=True)
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)


@settings(max_examples=150, deadline=None)
@given(events_strategy())
def test_trms_with_renumbering_matches_oracle(events):
    """A tiny counter bound forces renumbering constantly; results must
    be identical to the unbounded oracle (Section 4.4 correctness)."""
    fast = TrmsProfiler(keep_activations=True, max_count=40)
    oracle = NaiveTrms(keep_activations=True)
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)


@settings(max_examples=100, deadline=None)
@given(events_strategy())
def test_rms_with_renumbering_matches_oracle(events):
    fast = RmsProfiler(keep_activations=True, max_count=40)
    oracle = NaiveRms(keep_activations=True)
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)


@settings(max_examples=100, deadline=None)
@given(events_strategy())
def test_chunked_shadow_matches_dict_shadow(events):
    plain = TrmsProfiler(keep_activations=True)
    chunked = TrmsProfiler(keep_activations=True, use_chunked_shadow=True)
    replay(events, plain)
    replay(events, chunked)
    assert db_snapshot(plain.db) == db_snapshot(chunked.db)


@settings(max_examples=150, deadline=None)
@given(events_strategy())
def test_inequality_trms_ge_rms(events):
    """Inequality 1: trms >= rms for every activation, on any trace."""
    trms = TrmsProfiler(keep_activations=True)
    rms = RmsProfiler(keep_activations=True)
    replay(events, trms)
    replay(events, rms)
    trms_by_order = [(a.routine, a.thread, a.size) for a in trms.db.activations]
    rms_by_order = [(a.routine, a.thread, a.size) for a in rms.db.activations]
    assert len(trms_by_order) == len(rms_by_order)
    for (routine_t, thread_t, size_t), (routine_r, thread_r, size_r) in zip(
        trms_by_order, rms_by_order
    ):
        assert (routine_t, thread_t) == (routine_r, thread_r)
        assert size_t >= size_r


@settings(max_examples=100, deadline=None)
@given(events_strategy())
def test_trms_size_decomposition(events):
    """Per activation: induced accesses never exceed the trms, and the
    global induced tallies equal the root-level per-thread sums."""
    trms = TrmsProfiler(keep_activations=True)
    replay(events, trms)
    for record in trms.db.activations:
        assert record.induced_thread + record.induced_external <= record.size
        assert record.size >= 0
    roots = [a for a in trms.db.activations if a.routine.startswith("<root:")]
    assert sum(a.induced_thread for a in roots) == trms.db.global_induced_thread
    assert sum(a.induced_external for a in roots) == trms.db.global_induced_external


@settings(max_examples=100, deadline=None)
@given(events_strategy())
def test_single_consumer_reuse_is_rejected_by_state(events):
    """Replaying a second stream into a finished profiler must not
    corrupt earlier results: pending stacks were fully unwound."""
    profiler = TrmsProfiler(keep_activations=True)
    replay(events, profiler)
    first = len(profiler.db.activations)
    for state in profiler.states.values():
        assert len(state.stack) == 0
    replay([], profiler)
    assert len(profiler.db.activations) == first


@settings(max_examples=120, deadline=None)
@given(events_strategy(), st.booleans(), st.booleans())
def test_trms_kind_selection_matches_oracle(events, thread_kind, external_kind):
    """The induced-kind configuration (Figure 7b's "external input only"
    and friends) must agree with the identically configured oracle."""
    fast = TrmsProfiler(keep_activations=True, count_thread_induced=thread_kind,
                        count_external=external_kind)
    oracle = NaiveTrms(keep_activations=True, count_thread_induced=thread_kind,
                       count_external=external_kind)
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)


@settings(max_examples=120, deadline=None)
@given(events_strategy())
def test_trms_with_no_induced_kinds_equals_rms(events):
    """With both induced kinds disabled, trms degenerates to rms."""
    degenerate = TrmsProfiler(keep_activations=True, count_thread_induced=False,
                              count_external=False)
    rms = RmsProfiler(keep_activations=True)
    replay(events, degenerate)
    replay(events, rms)
    assert [(a.routine, a.thread, a.size, a.cost) for a in degenerate.db.activations] \
        == [(a.routine, a.thread, a.size, a.cost) for a in rms.db.activations]


@settings(max_examples=60, deadline=None)
@given(events_strategy())
def test_all_features_combined_matches_oracle(events):
    """Chunked shadows + tiny counter (constant renumbering) + context
    keys + external-only counting, all at once, against the identically
    configured oracle — the configuration-interaction property."""
    fast = TrmsProfiler(
        keep_activations=True,
        use_chunked_shadow=True,
        max_count=35,
        context_sensitive=True,
        count_thread_induced=False,
    )
    oracle = NaiveTrms(
        keep_activations=True,
        context_sensitive=True,
        count_thread_induced=False,
    )
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)


NO_INDUCED = dict(count_thread_induced=False, count_external=False)

#: (profiler, oracle) factories: each online profiler in four variants
REPEAT_READ_PAIRS = {
    "trms": lambda: (TrmsProfiler(keep_activations=True),
                     NaiveTrms(keep_activations=True)),
    "trms-renumbering": lambda: (TrmsProfiler(keep_activations=True, max_count=40),
                                 NaiveTrms(keep_activations=True)),
    "trms-chunked": lambda: (TrmsProfiler(keep_activations=True, use_chunked_shadow=True),
                             NaiveTrms(keep_activations=True)),
    "trms-no-induced": lambda: (TrmsProfiler(keep_activations=True, **NO_INDUCED),
                                NaiveTrms(keep_activations=True, **NO_INDUCED)),
    "rms": lambda: (RmsProfiler(keep_activations=True),
                    NaiveRms(keep_activations=True)),
    "rms-renumbering": lambda: (RmsProfiler(keep_activations=True, max_count=40),
                                NaiveRms(keep_activations=True)),
    "rms-chunked": lambda: (RmsProfiler(keep_activations=True, use_chunked_shadow=True),
                            NaiveRms(keep_activations=True)),
    "rms-no-induced": lambda: (TrmsProfiler(keep_activations=True, **NO_INDUCED),
                               NaiveRms(keep_activations=True)),
}


@pytest.mark.parametrize("pair", sorted(REPEAT_READ_PAIRS))
@settings(max_examples=100, deadline=None)
@given(repeat_reads_strategy())
def test_repeat_reads_match_oracle(pair, events):
    """A read that repeats an access in the same epoch returns early in
    the online profilers; on streams full of them every variant still
    equals its oracle."""
    assert repeat_reads(events) > 0
    fast, oracle = REPEAT_READ_PAIRS[pair]()
    replay(events, fast)
    replay(events, oracle)
    assert db_snapshot(fast.db) == db_snapshot(oracle.db)
