"""Shared machinery of the RMS and TRMS profilers.

Both profilers follow the same skeleton (the *latest-access* approach of
the PLDI 2012 paper, restated in Section 4.2 of the follow-up):

* a global counter ``count`` incremented at every routine activation and
  thread switch;
* one shadow stack per thread (:mod:`repro.core.stack`) whose entries
  carry the activation timestamp, a cost snapshot and the *partial*
  input size obeying Invariant 2;
* one thread-specific shadow memory per thread mapping each cell to the
  timestamp of the thread's latest access.

They differ only in how ``read``/``write``/kernel events manipulate the
timestamps, which is exactly what the subclasses override.

The base class also implements the practical details the paper's tool
needs: implicit per-thread root activations (so that input attributed to
a thread's outermost code is not lost), unwinding of still-pending
activations at ``on_finish`` time, and periodic counter-overflow
renumbering (Section 4.4) driven by ``max_count``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .. import telemetry
from .context import compose_context
from .events import TraceConsumer
from .profile_data import ProfileDatabase
from .renumber import renumber_timestamps
from .shadow import DictShadow, ShadowMemory
from .stack import ShadowStack, StackEntry

__all__ = ["ThreadState", "BaseProfiler"]


class ThreadState:
    """Per-thread profiler state: shadow stack, shadow memory, cost."""

    __slots__ = ("thread", "stack", "ts", "cost")

    def __init__(self, thread: int, shadow_factory: Callable[[], object]):
        self.thread = thread
        self.stack = ShadowStack()
        #: thread-specific shadow memory ``ts_t``
        self.ts = shadow_factory()
        #: per-thread cost counter (basic blocks executed by this thread)
        self.cost = 0


class BaseProfiler(TraceConsumer):
    """Common skeleton for :class:`RmsProfiler` and :class:`TrmsProfiler`.

    Args:
        keep_activations: forwarded to :class:`ProfileDatabase`.
        use_chunked_shadow: use the paper's three-level
            :class:`ShadowMemory` (True) or the dict-backed reference
            shadow (False, default — faster for the small address spaces
            of most tests).
        max_count: renumber timestamps whenever the global counter
            reaches this value, emulating a bounded counter width
            (Section 4.4).  ``None`` disables renumbering.
    """

    name = "profiler"

    #: name prefix of implicit per-thread root activations
    ROOT_PREFIX = "<root:"

    def __init__(
        self,
        keep_activations: bool = False,
        use_chunked_shadow: bool = False,
        max_count: Optional[int] = None,
        context_sensitive: bool = False,
    ):
        self.db = ProfileDatabase(keep_activations=keep_activations)
        self._shadow_factory: Callable[[], object] = (
            ShadowMemory if use_chunked_shadow else DictShadow
        )
        #: key profiles by full call path instead of routine name
        self.context_sensitive = context_sensitive
        self.max_count = max_count
        self.count = 0
        self.states: Dict[int, ThreadState] = {}
        self.renumber_count = 0
        # memoize the most recent thread's state: events arrive in runs
        # per thread (the trace is serialized), so the per-event handlers
        # test ``thread == _cached_thread`` inline and almost never call
        # ``_state``
        self._cached_thread: Optional[int] = None
        self._cached_state: Optional[ThreadState] = None

    # -- state management ---------------------------------------------------

    def _state(self, thread: int) -> ThreadState:
        """The state of ``thread``, now the cached one; made on first use,
        with an implicit root activation."""
        state = self.states.get(thread)
        if state is None:
            state = self.states[thread] = ThreadState(thread, self._shadow_factory)
            state.stack.push(f"{self.ROOT_PREFIX}{thread}>", self._bump_count(), 0)
        self._cached_thread = thread
        self._cached_state = state
        return state

    def _bump_count(self) -> int:
        """Advance the global counter, renumbering at ``max_count``; return it."""
        self.count += 1
        if self.max_count is not None and self.count >= self.max_count:
            self._renumber()
        return self.count

    def _pop(self, state: ThreadState) -> None:
        """Complete the top activation of ``state``: fold its partials
        into its parent, if any, and record it."""
        entries = state.stack.entries
        entry = entries.pop()
        if entries:
            parent = entries[-1]
            parent.partial += entry.partial
            parent.induced_thread += entry.induced_thread
            parent.induced_external += entry.induced_external
        self.db.add_activation(
            entry.rtn,
            state.thread,
            entry.partial,
            state.cost - entry.cost,
            entry.induced_thread,
            entry.induced_external,
        )

    # -- TraceConsumer callbacks ----------------------------------------------

    def on_call(self, thread: int, routine: str) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        entries = state.stack.entries
        if self.context_sensitive:
            routine = compose_context(entries[-1].rtn, routine)
        entries.append(StackEntry(routine, self._bump_count(), state.cost))

    def on_return(self, thread: int) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        # Never pop the implicit root: unmatched returns (trimmed traces,
        # longjmp-style exits) are treated as no-ops, as aprof does.
        if len(state.stack.entries) > 1:
            self._pop(state)

    def on_cost(self, thread: int, units: int) -> None:
        state = self._cached_state if thread == self._cached_thread else self._state(thread)
        state.cost += units

    def on_thread_switch(self, thread: int) -> None:
        self._bump_count()
        # Touch the state so the implicit root exists from the very first
        # event of the thread, whatever kind it is, and cache it for the
        # events that follow.
        state = self.states.get(thread) or self._state(thread)
        self._cached_thread = thread
        self._cached_state = state

    def on_finish(self) -> None:
        """Unwind every pending activation, including implicit roots.

        Routines still on a stack at the end of the run (``main``, thread
        entry points) are reported as if they returned at exit time.

        Also the profiler's self-accounting moment: with telemetry live,
        the session totals (timestamps issued, renumber passes, threads
        seen, shadow-state bytes) land in the metrics registry — end-of-
        run bookkeeping only, never per-event work, so the disabled path
        costs one attribute check.
        """
        for state in self.states.values():
            while state.stack:
                self._pop(state)
        tele = telemetry.current()
        if tele.enabled:
            tele.counter("profiler.timestamps", tool=self.name).inc(self.count)
            tele.counter("profiler.renumbers", tool=self.name).inc(self.renumber_count)
            tele.counter("profiler.threads", tool=self.name).inc(len(self.states))
            tele.counter("profiler.routines", tool=self.name).inc(
                len(self.db.routines()))
            tele.gauge("profiler.space_bytes", tool=self.name).set(
                self.space_bytes())

    # -- renumbering -----------------------------------------------------------

    def _global_write_shadow(self):
        """The global write-timestamp shadow, or None for the RMS profiler."""
        return None

    def _renumber(self) -> None:
        self.count = renumber_timestamps(
            list(self.states.values()), self._global_write_shadow()
        )
        self.renumber_count += 1

    # -- accounting -------------------------------------------------------------

    def space_bytes(self) -> int:
        total = 0
        for state in self.states.values():
            total += state.ts.space_bytes()
            total += len(state.stack.entries) * 48
        shadow = self._global_write_shadow()
        if shadow is not None:
            total += shadow.space_bytes()
        return total
