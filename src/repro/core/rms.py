"""The sequential RMS profiler (the PLDI 2012 contribution).

Definition 1 (Coppa et al., PLDI 2012): the *read memory size* (rms) of
the execution of a routine ``r`` is the number of distinct memory cells
first accessed by ``r``, or by a descendant of ``r`` in the call tree,
with a read operation.

The profiler computes the rms of every activation in a single pass with
the *latest-access* algorithm: a per-thread shadow memory ``ts_t`` holds
the timestamp of the thread's latest access (read or write) to each
cell, and each pending activation carries a partial rms obeying
Invariant 2 (suffix sums give true rms values).  On a read of cell ``l``:

* if ``ts_t[l] < S_t[top].ts`` the cell is new to the topmost pending
  activation: its partial rms is incremented, and — if the cell was ever
  accessed before by this thread — the partial rms of the deepest
  pending *ancestor* whose activation precedes that access is
  decremented, so that suffix sums stay exact (the ancestor had already
  accounted the cell, and will re-absorb the top's increment at return
  time).

Writes and reads both refresh ``ts_t[l]``; a cell first *written* by an
activation never counts toward its rms.

A read whose cell stamp ``ts_t[l]`` already equals the global counter
returns at once, and the early return is exact.  Every stamp in
``ts_t`` and the shadow stack is at most ``count``: the counter only
grows, and renumbering restarts it above every stamp it assigns.  So
``ts_t[l] == count`` makes ``ts_t[l] < S_t[top].ts`` false, and the one
store left, ``ts_t[l] = count``, would change nothing.  Such repeats —
the same thread reading a cell again with no call or thread switch in
between — are common in loops that reread their data.

On multithreaded runs this profiler deliberately ignores all cross-thread
effects, exactly like the original aprof-rms the paper compares against:
each thread is profiled as an isolated sequential computation, and
kernel buffer fills are invisible.  (Kernel *reads* of guest memory are
treated as reads by the issuing thread, as they are in the extension —
they are ordinary input consumption.)
"""

from __future__ import annotations

from .profiler import BaseProfiler

__all__ = ["RmsProfiler"]


class RmsProfiler(BaseProfiler):
    """Single-pass rms profiler (aprof-rms)."""

    name = "aprof-rms"

    def on_read(self, thread: int, addr: int) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        ts = state.ts
        last = ts[addr]
        count = self.count
        if last == count:
            # a repeat read: it cannot change anything (module docstring)
            return
        top = state.stack.entries[-1]
        if last < top.ts:
            top.partial += 1
            if last != 0:
                ancestor = state.stack.find_latest_not_after(last)
                if ancestor is not None:
                    ancestor.partial -= 1
        ts[addr] = count

    def on_write(self, thread: int, addr: int) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        state.ts[addr] = self.count

    def on_kernel_read(self, thread: int, addr: int) -> None:
        # The kernel reading guest memory on the thread's behalf is input
        # consumption by the thread (Figure 12: kernelRead -> read).
        self.on_read(thread, addr)

    def on_kernel_write(self, thread: int, addr: int) -> None:
        # Invisible to the sequential metric: the buffer fill is neither a
        # read nor a write *by the thread*, and aprof-rms has no global
        # write timestamps to record it in.
        pass
