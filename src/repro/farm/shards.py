"""Shard planning: carve a chunked trace into independent work units.

The flat kernel (:mod:`repro.core.flatkernel`) is exact per thread:
thread ``t``'s profile depends only on ``t``'s own events and on the
writes of every thread and of the kernel, seen in trace order.  A
*shard* is therefore a set of whole threads plus the chunk subset a
worker must decode to analyse them:

* every chunk containing a write (by anyone) — the worker replays those
  writes into its own latest-write map, which is cheaper than sharing
  one across process boundaries;
* every chunk containing at least one event of an assigned thread.

Threads are packed into ``jobs`` shards by longest-processing-time
(LPT) bin packing over their whole-trace event counts: heaviest thread
first, each into the currently lightest shard.  Threads stay whole —
the per-thread automaton is sequential, so splitting one would break
exactness — which makes the heaviest thread's count a lower bound on
any plan's critical shard.  LPT meets that bound whenever one thread
dominates: placed first into an empty shard, a thread holding more
than half of all events is never joined there, because the rest of the
trace together is lighter.

The plan is exhaustive and disjoint: every thread of the trace appears
in exactly one shard, which the differential tests rely on.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .binfmt import ChunkMeta, TraceMeta

__all__ = ["Shard", "plan_shards"]


class Shard(NamedTuple):
    """One unit of farm work: whole threads + the chunks to decode."""

    shard_id: int
    threads: Tuple[int, ...]
    chunk_indices: Tuple[int, ...]   #: chunks the worker decodes (threads ∪ writes)
    events: int                      #: assigned threads' event total (load estimate)


def _chunks_for(threads: frozenset, chunks: Sequence[ChunkMeta]) -> Tuple[int, ...]:
    """Indices of every chunk a worker for ``threads`` must decode."""
    needed = []
    for index, chunk in enumerate(chunks):
        if chunk.writes or not threads.isdisjoint(chunk.thread_counts):
            needed.append(index)
    return tuple(needed)


def _pack_by_thread(totals: Dict[int, int], jobs: int) -> List[List[int]]:
    """LPT bin packing: heaviest thread first, into the lightest bin."""
    loads = [0] * jobs
    bins: List[List[int]] = [[] for _ in range(jobs)]
    for thread, count in sorted(totals.items(), key=lambda item: (-item[1], item[0])):
        slot = min(range(jobs), key=loads.__getitem__)
        bins[slot].append(thread)
        loads[slot] += count
    return [sorted(members) for members in bins if members]


def plan_shards(meta: TraceMeta, jobs: int) -> List[Shard]:
    """Plan at most ``jobs`` shards covering every thread of ``meta``."""
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    totals = meta.thread_totals()
    shards = []
    for shard_id, members in enumerate(_pack_by_thread(totals, jobs)):
        shards.append(Shard(
            shard_id,
            tuple(members),
            _chunks_for(frozenset(members), meta.chunks),
            sum(totals[thread] for thread in members),
        ))
    return shards
