"""The multithreaded TRMS profiler (the paper's extension of aprof).

Definition 2/3: a read by routine activation ``r`` in thread ``t`` of a
cell ``l`` contributes to the *threaded read memory size* of ``r`` when
it is either

* a **first-access** — ``l`` was never accessed before by ``r`` or its
  completed descendants, or
* an **induced first-access** — the latest ``write(l)`` by any thread
  ``t' != t`` (or by the kernel, for external input) has not been
  followed by an access to ``l`` by ``r`` or its descendants.

The read/write timestamping algorithm (Figure 11) detects induced
first-accesses in O(1) by combining the per-thread latest-access shadow
``ts_t`` with one *global* shadow ``wts`` holding, per cell, the
timestamp of the latest write by any thread: when
``ts_t[l] < wts[l]`` the cell was written — necessarily by someone else,
since a local write would have equalised the two stamps — after the
thread's latest access, so the read is induced.  Otherwise the ordinary
first-access logic of the sequential profiler applies.

External input (Figure 12): a kernel *buffer fill* (``kernelWrite``)
bumps the global counter and stamps ``wts[l]`` with it, without touching
any per-thread state or partial trms — so only the cells the thread
subsequently *reads* count as external input, and a fresh fill of the
same cell makes it count again.  A kernel *read* of guest memory (the
thread sending data out) is treated as a read by the thread itself.

This reproduction additionally tags each cell's latest writer (thread id
or kernel) in a provenance shadow, so every induced first-access is
attributed to *thread-induced* or *external* input — the split behind
Figures 9, 17, 18 and 19.

A read whose cell stamp ``ts_t[l]`` already equals the global counter
returns at once, and the early return is exact.  Every stamp in
``ts_t``, ``wts`` and the shadow stacks is at most ``count``: the
counter only grows, and renumbering restarts it above every stamp it
assigns.  So ``ts_t[l] == count`` makes both ``ts_t[l] < wts[l]`` and
``ts_t[l] < S_t[top].ts`` false, and the one store left,
``ts_t[l] = count``, would change nothing.  Such repeats — the same
thread reading a cell again with no call, thread switch or kernel write
in between — are common in loops that reread their data.
"""

from __future__ import annotations

from typing import Optional

from .profiler import BaseProfiler
from .shadow import DictShadow, ShadowMemory

__all__ = ["TrmsProfiler", "KERNEL_WRITER"]

#: provenance tag for cells last written by the kernel
KERNEL_WRITER = 1


class TrmsProfiler(BaseProfiler):
    """Single-pass trms profiler (aprof-trms)."""

    name = "aprof-trms"

    def __init__(
        self,
        keep_activations: bool = False,
        use_chunked_shadow: bool = False,
        max_count: Optional[int] = None,
        count_thread_induced: bool = True,
        count_external: bool = True,
        context_sensitive: bool = False,
    ):
        """See :class:`~repro.core.profiler.BaseProfiler` for the common
        arguments.  ``count_thread_induced`` / ``count_external`` select
        which induced first-access kinds contribute to the input size:
        the paper's Figure 7b plots "trms with external input only"
        (``count_thread_induced=False``); with both disabled the metric
        degenerates to the plain rms (a property the tests verify).
        An uncounted induced access falls back to the sequential
        first-access rule, exactly as it would under aprof-rms."""
        super().__init__(
            keep_activations=keep_activations,
            use_chunked_shadow=use_chunked_shadow,
            max_count=max_count,
            context_sensitive=context_sensitive,
        )
        shadow_factory = ShadowMemory if use_chunked_shadow else DictShadow
        #: global shadow memory: latest write timestamp per cell, any writer
        self.wts = shadow_factory()
        #: provenance shadow: KERNEL_WRITER or (thread id + 2) per cell
        self.writer = shadow_factory()
        self.count_thread_induced = count_thread_induced
        self.count_external = count_external

    def _global_write_shadow(self):
        return self.wts

    # -- memory events ---------------------------------------------------------

    def on_read(self, thread: int, addr: int) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        ts = state.ts
        last = ts[addr]
        count = self.count
        if last == count:
            # a repeat read: it cannot change anything (module docstring)
            return
        top = state.stack.entries[-1]
        if last < self.wts[addr]:
            # Induced first-access: new input for the topmost activation
            # *and* every pending ancestor (Invariant 2 propagates the
            # increment on return), with no ancestor decrement — unless
            # this induced kind is configured out, in which case the
            # access falls through to the sequential rule below.
            if self.writer[addr] == KERNEL_WRITER:
                if self.count_external:
                    top.partial += 1
                    top.induced_external += 1
                    self.db.global_induced_external += 1
                    ts[addr] = count
                    return
            elif self.count_thread_induced:
                top.partial += 1
                top.induced_thread += 1
                self.db.global_induced_thread += 1
                ts[addr] = count
                return
        if last < top.ts:
            # Plain first-access for the topmost activation (lines 4-10:
            # the sequential latest-access logic).
            top.partial += 1
            if last != 0:
                ancestor = state.stack.find_latest_not_after(last)
                if ancestor is not None:
                    ancestor.partial -= 1
        ts[addr] = count

    def on_write(self, thread: int, addr: int) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        count = self.count
        state.ts[addr] = count
        self.wts[addr] = count
        self.writer[addr] = thread + 2

    # -- kernel-mediated accesses (Figure 12) ------------------------------------

    def on_kernel_read(self, thread: int, addr: int) -> None:
        # The thread sends data out: the kernel's read of guest memory is
        # input consumption by the thread, exactly like a subroutine read.
        self.on_read(thread, addr)

    def on_kernel_write(self, thread: int, addr: int) -> None:
        # A buffer fill from an external device.  Bump the counter so the
        # new global write stamp exceeds every thread-specific stamp; do
        # NOT touch any partial trms — only subsequent reads will count.
        self._bump_count()
        self.wts[addr] = self.count
        self.writer[addr] = KERNEL_WRITER

    # -- accounting --------------------------------------------------------------

    def space_bytes(self) -> int:
        return super().space_bytes() + self.writer.space_bytes()
