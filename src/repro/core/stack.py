"""Shadow run-time stacks.

Each traced thread ``t`` owns a shadow stack ``S_t`` mirroring its call
stack.  Stack entry ``S_t[i]`` stores, for the ``i``-th pending routine
activation (Section 4.2 of the paper):

* ``rtn``  — the routine identifier;
* ``ts``   — the activation timestamp (value of the global counter when
  the routine was entered);
* ``cost`` — the thread cost counter snapshot taken at entry, so the
  inclusive cost of the activation is ``thread_cost_now - cost`` at
  return time;
* ``partial`` — the *partial* (t)rms of the activation, maintained so
  that Invariant 2 holds: the true (t)rms of pending activation ``i`` is
  ``sum(S_t[j].partial for j in range(i, top+1))``.

The stack also carries the increment-only partial counters that this
reproduction adds for input attribution (thread-induced and external
induced first-accesses); they obey the same suffix-sum invariant, but
never receive the ancestor decrement (an induced access is new input to
every pending ancestor).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["StackEntry", "ShadowStack", "FlatStack"]


class StackEntry:
    """One pending routine activation on a shadow stack."""

    __slots__ = ("rtn", "ts", "cost", "partial", "induced_thread", "induced_external")

    def __init__(self, rtn: str, ts: int, cost: int):
        self.rtn = rtn
        self.ts = ts
        self.cost = cost
        self.partial = 0
        self.induced_thread = 0
        self.induced_external = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StackEntry(rtn={self.rtn!r}, ts={self.ts}, cost={self.cost}, "
            f"partial={self.partial})"
        )


class ShadowStack:
    """Shadow stack for one thread, with the binary search of the paper.

    The only non-constant-time operation of the profiling algorithm is
    locating, for a location last accessed at time ``ts_l``, the deepest
    pending activation whose timestamp does not exceed ``ts_l`` (line 7
    of procedure ``read``).  Because activation timestamps are strictly
    increasing from the bottom to the top of the stack, this is a binary
    search costing ``O(log depth)``.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[StackEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    @property
    def top(self) -> StackEntry:
        """The topmost pending activation (raises IndexError if empty)."""
        return self.entries[-1]

    def push(self, rtn: str, ts: int, cost: int) -> StackEntry:
        entry = StackEntry(rtn, ts, cost)
        self.entries.append(entry)
        return entry

    def pop(self) -> StackEntry:
        return self.entries.pop()

    def parent(self) -> Optional[StackEntry]:
        """The activation just below the top, or None at the outermost level."""
        if len(self.entries) >= 2:
            return self.entries[-2]
        return None

    def find_latest_not_after(self, ts_value: int) -> Optional[StackEntry]:
        """Deepest pending activation with ``entry.ts <= ts_value``.

        Returns None when every pending activation started after
        ``ts_value`` (which can only happen for timestamps predating the
        bottom-most activation).
        """
        entries = self.entries
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid].ts <= ts_value:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return None
        return entries[lo - 1]

    def suffix_partial_sum(self, index: int) -> int:
        """``sum of partials from index to the top`` — Invariant 2 helper.

        Used only by tests that check Invariant 2 directly; the algorithm
        itself never needs the explicit sum.
        """
        return sum(entry.partial for entry in self.entries[index:])


class FlatStack:
    """Struct-of-lists shadow stack: six parallel int columns.

    Semantically identical to :class:`ShadowStack`, but one pending
    activation is a *row index* into six parallel Python lists instead
    of a heap-allocated :class:`StackEntry`.  The flat analysis kernel
    binds the columns to local variables and mutates them in place, so
    the hot path performs no attribute lookups and allocates no
    per-activation objects; routine identity is an interned integer id,
    resolved to a name only when the activation completes.

    The columns are lists, not ``array('q')``, for two reasons.  They
    are faster where the kernel touches them: under CPython 3.11,
    ``col[-1] += 1`` costs about 57 ns on a list against 107 ns on an
    array, and an append plus a pop about 20 ns against 72 ns, because
    an array boxes and unboxes every element it hands out.  And they
    hold any int: a thread cost of 2**63 or more does not fit an int64
    column, so an array column raised ``OverflowError`` where the
    online profiler, whose :class:`StackEntry` holds plain ints, gives
    an answer.

    The paper's binary search (deepest pending activation whose
    timestamp does not exceed a given value) becomes the kernel's inline
    ``bisect_right`` over the timestamp column — the column is sorted by
    construction, exactly like ``StackEntry.ts`` bottom-to-top.
    """

    __slots__ = ("rtn", "ts", "cost", "partial", "induced_thread", "induced_external")

    def __init__(self) -> None:
        self.rtn: List[int] = []               #: interned routine ids
        self.ts: List[int] = []                #: activation timestamps (sorted)
        self.cost: List[int] = []              #: thread-cost snapshots at entry
        self.partial: List[int] = []           #: partial (t)rms per Invariant 2
        self.induced_thread: List[int] = []    #: thread-induced partial tallies
        self.induced_external: List[int] = []  #: external-induced partial tallies

    def __len__(self) -> int:
        return len(self.ts)

    def __bool__(self) -> bool:
        return bool(self.ts)

    def push(self, rtn_id: int, ts: int, cost: int) -> None:
        self.rtn.append(rtn_id)
        self.ts.append(ts)
        self.cost.append(cost)
        self.partial.append(0)
        self.induced_thread.append(0)
        self.induced_external.append(0)

    def pop(self) -> Tuple[int, int, int, int, int, int]:
        """Pop the top row: ``(rtn_id, ts, cost, partial, ind_thread, ind_ext)``."""
        return (
            self.rtn.pop(), self.ts.pop(), self.cost.pop(),
            self.partial.pop(), self.induced_thread.pop(),
            self.induced_external.pop(),
        )
