"""Tracing sessions: input-sensitive profiling of real Python code.

CPython will not let us observe native memory traffic, so this substrate
traces at the level the interpreter *can* see (the calibration hint for
this reproduction: "interpreter-level tracing only"):

* data lives in **tracked containers** (:mod:`repro.pytrace.cells`)
  whose element accesses emit read/write events on synthetic cell
  addresses;
* routines are marked with the :func:`traced` decorator, emitting
  call/return events;
* kernel-mediated I/O goes through :meth:`TraceSession.kernel_fill` /
  :meth:`TraceSession.kernel_drain`, emitting per-cell
  ``kernelWrite``/``kernelRead`` events exactly like the VM's syscalls;
* cost is counted per tracked operation (the substrate's analogue of
  the paper's basic-block count) and per routine call.  Consumers read a
  thread's cost only at its calls and returns, so a session keeps the
  units the emitting thread has been charged and delivers them as one
  ``on_cost`` sum before that thread's next call, return, thread change
  or session exit — never a zero sum, never one per access.

A session serializes event emission across Python threads (the paper's
tool runs under Valgrind's serializing scheduler; here a lock around
each event gives the consumers one consistent total order) and inserts
``switchThread`` events whenever the emitting thread changes.

Usage::

    session = TraceSession(tools=EventBus([TrmsProfiler()]))

    @traced
    def work(data):
        return sum(data[i] for i in range(len(data)))

    with session:
        data = session.array(100, fill=1)
        work(data)
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.events import TraceConsumer

__all__ = ["TraceSession", "traced", "current_session"]

_get_ident = threading.get_ident
_session_stack: List["TraceSession"] = []
_session_guard = threading.Lock()


def current_session() -> Optional["TraceSession"]:
    """The innermost active session, or None outside any ``with`` block."""
    if _session_stack:
        return _session_stack[-1]
    return None


def traced(fn: Callable) -> Callable:
    """Mark ``fn`` as a routine: activations emit call/return events.

    Outside an active session the wrapper adds (almost) nothing: it
    checks for a session and calls through.
    """

    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        session = current_session()
        if session is None:
            return fn(*args, **kwargs)
        session._enter_routine(name)
        try:
            return fn(*args, **kwargs)
        finally:
            session._exit_routine()

    wrapper.__traced__ = True
    return wrapper


class TraceSession:
    """One profiling session over Python code.

    Args:
        tools: the analysis consumer(s); None runs "native" (containers
            still work, nothing is emitted — the overhead baseline).
        call_cost: cost units charged per routine activation.
        op_cost: cost units charged per tracked element access.
    """

    def __init__(
        self,
        tools: Optional[TraceConsumer] = None,
        call_cost: int = 1,
        op_cost: int = 1,
    ):
        self.tools = tools
        self.call_cost = call_cost
        self.op_cost = op_cost
        self._lock = threading.RLock()
        self._acquire = self._lock.acquire
        self._release = self._lock.release
        if tools is not None:
            self._on_read = tools.on_read
            self._on_write = tools.on_write
            self._on_call = tools.on_call
            self._on_return = tools.on_return
        self._next_addr = 1
        self._thread_ids: Dict[int, int] = {}
        self._next_thread = 1
        self._last_thread: Optional[int] = None
        #: cost units charged to ``_last_thread`` and not yet delivered;
        #: only the emitting thread holds any, as a thread change delivers
        self._pending = 0
        self._entered = False
        #: operation counters, for tests and overhead accounting
        self.ops = 0

    # -- session lifecycle -------------------------------------------------------

    def __enter__(self) -> "TraceSession":
        with _session_guard:
            _session_stack.append(self)
        self._entered = True
        if self.tools is not None:
            try:
                self.tools.on_start()
            except BaseException:
                # no ``__exit__`` follows a failed ``__enter__``
                self._leave()
                raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if self.tools is not None:
                with self._lock:
                    self._deliver()
                self.tools.on_finish()
        finally:
            self._leave()

    def _leave(self) -> None:
        """Stop being an active session, whatever the consumers raised."""
        with _session_guard:
            _session_stack.remove(self)
        self._entered = False

    # -- identity ----------------------------------------------------------------

    def thread_id(self) -> int:
        """Small, stable id of the calling thread (assigned on first use)."""
        ident = _get_ident()
        tid = self._thread_ids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._thread_ids.get(ident)
                if tid is None:
                    tid = self._next_thread
                    self._next_thread += 1
                    self._thread_ids[ident] = tid
        return tid

    def reserve_thread_id(self) -> int:
        """Pre-assign an id for a thread about to be spawned.

        OS thread identifiers are recycled, so a child must get a fresh
        profiling id *before* it starts and bind it on entry
        (:meth:`bind_current_thread`); otherwise a recycled ident would
        alias the new thread onto a finished one's profile.
        """
        with self._lock:
            tid = self._next_thread
            self._next_thread += 1
            return tid

    def bind_current_thread(self, tid: int) -> None:
        """Bind the calling OS thread to a reserved profiling id."""
        with self._lock:
            self._thread_ids[_get_ident()] = tid

    def alloc(self, size: int) -> int:
        """Reserve ``size`` fresh synthetic cell addresses; return the base."""
        with self._lock:
            base = self._next_addr
            self._next_addr += size
        if self.tools is not None:
            with self._lock:
                self.tools.on_alloc(self._emitter(), base, size)
        return base

    # -- event emission -----------------------------------------------------------

    def _switch(self, tid: int) -> None:
        """Make ``tid`` the emitting thread; the thread left behind gets
        its pending cost first."""
        if tid != self._last_thread:
            self._deliver()
            self._last_thread = tid
            self.tools.on_thread_switch(tid)

    def _emitter(self) -> int:
        """The calling thread's id, made the emitting thread (lock held).

        The per-access and per-call handlers call this only when their
        inline test fails: the calling thread's id is not
        ``_last_thread``.
        """
        tid = self.thread_id()
        self._switch(tid)
        return tid

    def _deliver(self) -> None:
        """Hand the emitting thread's pending cost to the tools (lock held)."""
        pending = self._pending
        if pending:
            self._pending = 0
            self.tools.on_cost(self._last_thread, pending)

    def emit_read(self, addr: int) -> None:
        self.ops += 1
        if self.tools is None:
            return
        # The per-event paths (accesses, charge, call, return) are the
        # hot ones, so they take the lock through acquire and release
        # bound once, not ``with self._lock``: on CPython 3.11 (x86-64
        # Xeon) that pair costs about 170 ns against 270-300 ns.  The
        # slow paths keep ``with``; the lock is re-entrant either way.
        self._acquire()
        try:
            tid = self._thread_ids.get(_get_ident(), 0)
            if tid != self._last_thread:
                tid = self._emitter()
            self._on_read(tid, addr)
            self._pending += self.op_cost
        finally:
            self._release()

    def emit_write(self, addr: int) -> None:
        self.ops += 1
        if self.tools is None:
            return
        self._acquire()
        try:
            tid = self._thread_ids.get(_get_ident(), 0)
            if tid != self._last_thread:
                tid = self._emitter()
            self._on_write(tid, addr)
            self._pending += self.op_cost
        finally:
            self._release()

    def charge(self, units: int) -> None:
        """Charge explicit cost units (compute not visible as data ops)."""
        if self.tools is None or units <= 0:
            return
        self._acquire()
        try:
            if self._thread_ids.get(_get_ident(), 0) != self._last_thread:
                self._emitter()
            self._pending += units
        finally:
            self._release()

    def _enter_routine(self, name: str) -> None:
        if self.tools is None:
            return
        self._acquire()
        try:
            tid = self._thread_ids.get(_get_ident(), 0)
            if tid != self._last_thread:
                tid = self._emitter()  # delivers the left thread's units
            elif self._pending:
                self._deliver()
            self._on_call(tid, name)
            # the callee's first units: they wait with the rest of its cost
            self._pending += self.call_cost
        finally:
            self._release()

    def _exit_routine(self) -> None:
        if self.tools is None:
            return
        self._acquire()
        try:
            tid = self._thread_ids.get(_get_ident(), 0)
            if tid != self._last_thread:
                tid = self._emitter()
            elif self._pending:
                self._deliver()
            self._on_return(tid)
        finally:
            self._release()

    # -- kernel-mediated I/O ---------------------------------------------------------

    def kernel_fill(self, array, offset: int, values: Sequence) -> None:
        """The kernel fills ``array[offset:offset+len(values)]``.

        Emits one ``kernelWrite`` per cell and stores the values without
        counting thread reads/writes — the Figure 12 semantics: a buffer
        load is not input until the thread actually reads it.
        """
        if self.tools is None:
            array.raw_fill(offset, values)
            return
        with self._lock:
            tid = self._emitter()
            for index, value in enumerate(values):
                array.raw_set(offset + index, value)
                self.tools.on_kernel_write(tid, array.addr_of(offset + index))

    def kernel_drain(self, array, offset: int, count: int) -> List:
        """The kernel reads ``count`` cells (the thread sends data out).

        Emits one ``kernelRead`` per cell (input consumption by the
        thread, per Figure 12) and returns the values.
        """
        if self.tools is None:
            return [array.raw_get(offset + index) for index in range(count)]
        values = []
        with self._lock:
            tid = self._emitter()
            for index in range(count):
                values.append(array.raw_get(offset + index))
                self.tools.on_kernel_read(tid, array.addr_of(offset + index))
        return values

    # -- synchronization hints ----------------------------------------------------------

    def lock_acquired(self, lock_id) -> None:
        if self.tools is None:
            return
        with self._lock:
            tid = self._emitter()
            self.tools.on_lock_acquire(tid, lock_id)

    def lock_released(self, lock_id) -> None:
        if self.tools is None:
            return
        with self._lock:
            tid = self._emitter()
            self.tools.on_lock_release(tid, lock_id)

    def thread_created(self, child_tid: int) -> None:
        """Record that the calling thread spawned profiling id ``child_tid``."""
        if self.tools is None:
            return
        with self._lock:
            parent = self._emitter()
            self.tools.on_thread_create(parent, child_tid)

    def thread_joined(self, child_tid: int) -> None:
        if self.tools is None:
            return
        with self._lock:
            parent = self._emitter()
            self.tools.on_thread_join(parent, child_tid)

    # -- container factories (convenience) ------------------------------------------------

    def array(self, size: int, fill=0):
        """A fresh TrackedArray bound to this session."""
        from .cells import TrackedArray

        return TrackedArray(self, size, fill=fill)

    def list(self, values: Iterable = ()):
        """A fresh growable TrackedList bound to this session."""
        from .cells import TrackedList

        return TrackedList(self, values)

    def dict(self):
        """A fresh TrackedDict bound to this session."""
        from .cells import TrackedDict

        return TrackedDict(self)
