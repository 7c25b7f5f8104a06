"""cachegrind: cache simulation over the same event stream.

The paper's comparator set (nulgrind, memcheck, callgrind, helgrind)
omits Valgrind's other prominent heavyweight tool, cachegrind; we
implement it as an extension so the overhead story covers the whole
family.  The analysis simulates a two-level cache hierarchy on every
memory access and attributes misses to the routine performing them:

* L1: set-associative, LRU within a set;
* LL (last level): same structure, checked on L1 misses;
* per-routine counters: accesses, L1 misses, LL misses, attributed to
  the routine on top of the (per-thread) call stack, cachegrind-style.

Kernel transfers touch memory too (DMA is invisible to a real cache,
but Valgrind's serialized model performs them with CPU copies), so they
are simulated as ordinary accesses by the issuing thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .base import AnalysisTool

__all__ = ["Cachegrind", "CacheConfig", "SetAssociativeCache"]


class CacheConfig:
    """Geometry of one cache level."""

    def __init__(self, sets: int = 64, ways: int = 2, line_cells: int = 4):
        if sets <= 0 or ways <= 0 or line_cells <= 0:
            raise ValueError("cache geometry must be positive")
        self.sets = sets
        self.ways = ways
        self.line_cells = line_cells


class SetAssociativeCache:
    """LRU set-associative cache over cell addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        #: per set: list of resident line tags, most recently used last
        self._sets: List[List[int]] = [[] for _ in range(config.sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch the line holding ``addr``; True on hit."""
        self.accesses += 1
        line = addr // self.config.line_cells
        index = line % self.config.sets
        resident = self._sets[index]
        if line in resident:
            resident.remove(line)
            resident.append(line)
            return True
        self.misses += 1
        if len(resident) >= self.config.ways:
            resident.pop(0)
        resident.append(line)
        return False

    def space_bytes(self) -> int:
        return sum(len(resident) for resident in self._sets) * 8


class Cachegrind(AnalysisTool):
    """Two-level cache simulator with per-routine miss attribution."""

    name = "cachegrind"

    def __init__(self, l1: Optional[CacheConfig] = None,
                 ll: Optional[CacheConfig] = None):
        self.l1 = SetAssociativeCache(l1 or CacheConfig(sets=16, ways=2, line_cells=4))
        self.ll = SetAssociativeCache(ll or CacheConfig(sets=64, ways=4, line_cells=4))
        self._stacks: Dict[int, List[str]] = {}
        #: routine -> [accesses, l1 misses, ll misses]
        self.by_routine: Dict[str, List[int]] = {}

    def _current_routine(self, thread: int) -> str:
        stack = self._stacks.get(thread)
        if stack:
            return stack[-1]
        return f"<root:{thread}>"

    def _access(self, thread: int, addr: int) -> None:
        counters = self.by_routine.setdefault(self._current_routine(thread), [0, 0, 0])
        counters[0] += 1
        if not self.l1.access(addr):
            counters[1] += 1
            if not self.ll.access(addr):
                counters[2] += 1

    # -- events ------------------------------------------------------------------

    def on_call(self, thread: int, routine: str) -> None:
        self._stacks.setdefault(thread, []).append(routine)

    def on_return(self, thread: int) -> None:
        stack = self._stacks.get(thread)
        if stack:
            stack.pop()

    def on_read(self, thread: int, addr: int) -> None:
        self._access(thread, addr)

    def on_write(self, thread: int, addr: int) -> None:
        self._access(thread, addr)

    def on_kernel_read(self, thread: int, addr: int) -> None:
        self._access(thread, addr)

    def on_kernel_write(self, thread: int, addr: int) -> None:
        self._access(thread, addr)

    # -- results -------------------------------------------------------------------

    def miss_rates(self) -> Tuple[float, float]:
        """Global (L1, LL) miss rates in [0, 1]."""
        l1_rate = self.l1.misses / self.l1.accesses if self.l1.accesses else 0.0
        ll_rate = self.ll.misses / self.ll.accesses if self.ll.accesses else 0.0
        return l1_rate, ll_rate

    def worst_routines(self, count: int = 5) -> List[Tuple[str, int]]:
        """Routines with the most L1 misses."""
        ranked = sorted(self.by_routine.items(), key=lambda item: -item[1][1])
        return [(routine, counters[1]) for routine, counters in ranked[:count]]

    def space_bytes(self) -> int:
        return self.l1.space_bytes() + self.ll.space_bytes() + 48 * len(self.by_routine)

    def report(self) -> dict:
        l1_rate, ll_rate = self.miss_rates()
        return {
            "l1_accesses": self.l1.accesses,
            "l1_misses": self.l1.misses,
            "l1_miss_rate": l1_rate,
            "ll_misses": self.ll.misses,
            "ll_miss_rate": ll_rate,
            "by_routine": {k: tuple(v) for k, v in self.by_routine.items()},
        }
