"""The flat-array latest-access kernel for offline TRMS analysis.

The online :class:`~repro.core.trms.TrmsProfiler` consumes one
``Event`` object per operation and stamps accesses with a renumbered
global counter.  Over a *recorded* trace three observations make the
same analysis dramatically cheaper:

1. **Events decode as columns, not objects.**  A v2 chunk becomes three
   parallel arrays (kind byte, thread id, argument) in a handful of
   C-level strided copies (:func:`repro.farm.binfmt.decode_chunk_columns`)
   — no ``Event`` tuples, no ``EventKind`` re-wrapping, no per-record
   string-table lookups.  ``CALL`` arguments stay interned routine ids;
   names are materialised only when an activation is emitted.

2. **Global trace positions replace the online counter.**  Positions
   refine the counter's order and are unbounded, so there is no
   Section 4.4 renumbering, and replaying events in increasing
   position means every write below the current read has already been
   seen: the induced-first-access test is one probe of a running
   latest-write dict whose values pack the write position and its
   kernel/thread provenance into one integer.

3. **Shadow stacks flatten to parallel columns.**  A pending activation
   is a row of :class:`~repro.core.stack.FlatStack` — six parallel
   lists the kernel binds to locals, so the per-event work is integer
   compares, dict probes and in-place column updates.  Lists, not
   ``array('q')``: an in-place ``col[-1] += 1`` costs about half as
   much on a list, and an append plus a pop under a third (an array
   boxes every element it hands out); and a list holds any int, so a
   thread cost of 2**63 or more analyses as it does online instead of
   raising ``OverflowError``.  Each thread state keeps its bound
   columns as one tuple, so a thread change rebinds them with one
   unpack.

The kernel analyses every thread of the trace in a *single interleaved
pass*, keeping per-thread stacks and latest-access tables exactly like
the online profiler keeps per-thread states; a thread's state is made
when its first event arrives.  Its output is **bit-identical** to the
online :class:`~repro.core.trms.TrmsProfiler` — enforced by the farm
differential tests and the property-based kernel differentials.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .context import compose_context
from .events import Event, EventKind
from .profile_data import ProfileDatabase
from .stack import FlatStack
from .tracefile import MalformedRecord

__all__ = ["FlatAnalyzer", "analyze_columns_flat", "analyze_events_flat"]

#: Analyzer-allocated name ids (per-thread roots, composed contexts)
#: live in a namespace far above any real trace string table, so the
#: external ``names`` table may *grow while analysis is running* (the
#: streaming tailer appends sidecar names between chunks) without ever
#: colliding with internal ids.
_EXTRA_BASE = 1 << 40

_CALL = int(EventKind.CALL)
_RETURN = int(EventKind.RETURN)
_READ = int(EventKind.READ)
_WRITE = int(EventKind.WRITE)
_KERNEL_READ = int(EventKind.KERNEL_READ)
_KERNEL_WRITE = int(EventKind.KERNEL_WRITE)
_THREAD_SWITCH = int(EventKind.THREAD_SWITCH)
_COST = int(EventKind.COST)

#: per-thread root activations, one per analysed thread
_ROOT_NAME = "<root:{thread}>"


class _FlatThreadState:
    """One analysed thread: flat stack, latest-access table, cost."""

    __slots__ = ("thread", "stack", "last", "cost", "bound")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = stack = FlatStack()
        #: cell -> global position of this thread's latest access
        self.last: Dict[int, int] = {}
        self.cost = 0
        #: what :meth:`FlatAnalyzer.feed` binds to locals on a thread
        #: change, in its unpack order
        self.bound = (
            self.last, self.last.get, stack.rtn, stack.ts, stack.cost,
            stack.partial, stack.induced_thread, stack.induced_external,
        )


class FlatAnalyzer:
    """Single-pass flat-array TRMS analysis over event columns.

    Args:
        names: the trace string table ``CALL`` arguments index into;
            an id outside it raises
            :class:`~repro.core.tracefile.MalformedRecord`.
        db: the database activations are emitted into.
        context_sensitive: key profiles by calling context; contexts
            are composed once per distinct (parent, routine) pair and
            interned, so the hot path stays integer-only.

    Feed columns in increasing global-position order (chunks in trace
    order), then call :meth:`finish` exactly once.
    """

    def __init__(
        self,
        names: Sequence[str],
        db: ProfileDatabase,
        context_sensitive: bool = False,
    ):
        self.db = db
        self.context_sensitive = context_sensitive
        #: routine id -> name: the trace string table, held by
        #: *reference* when given a list so the owner may append names
        #: mid-run (streaming).  Ids the analyzer allocates itself
        #: (per-thread roots, composed contexts) live in ``_extra`` at
        #: ``_EXTRA_BASE + index`` so they never collide with table
        #: growth.
        self.names: List[str] = names if isinstance(names, list) else list(names)
        self._extra: List[str] = []
        self._ctx_ids: Dict[Tuple[int, int], int] = {}
        #: thread -> state, in first-appearance order (:meth:`finish` unwinds in it)
        self.states: Dict[int, _FlatThreadState] = {}
        self.events_analyzed = 0
        #: cell -> latest write so far, packed ``(position << 1) | is_kernel``
        self.wts: Dict[int, int] = {}

    def _ensure(self, thread: int) -> _FlatThreadState:
        state = _FlatThreadState(thread)
        root_id = _EXTRA_BASE + len(self._extra)
        self._extra.append(_ROOT_NAME.format(thread=thread))
        state.stack.push(root_id, 0, 0)
        self.states[thread] = state
        return state

    def _name_of(self, ident: int) -> str:
        """Resolve a routine id from either namespace."""
        if ident >= _EXTRA_BASE:
            return self._extra[ident - _EXTRA_BASE]
        return self.names[ident]

    def feed(self, columns) -> None:
        """Analyse one :class:`~repro.farm.binfmt.ChunkColumns` batch."""
        # Bind everything the loop touches to locals; rebind the current
        # thread's columns only when the event stream switches threads
        # (events arrive in per-thread runs, so this almost never fires).
        # The current thread's cost lives in the local ``cost`` and goes
        # back to its state at every thread change and at the end.
        db = self.db
        names = self.names
        name_count = len(names)
        extra = self._extra
        extra_base = _EXTRA_BASE
        ctx_ids = self._ctx_ids
        context_sensitive = self.context_sensitive
        states = self.states
        wts = self.wts
        wts_get = wts.get
        add_activation = db.add_activation
        induced_thread = 0
        induced_external = 0
        position = columns.first_pos
        current_thread: Optional[int] = None
        state: Optional[_FlatThreadState] = None
        cost = 0
        s_last = s_last_get = s_rtn = s_ts = s_cost = None
        s_partial = s_ind_thread = s_ind_external = None

        for kind, thread, arg in zip(columns.kinds, columns.threads, columns.args):
            if thread != current_thread:
                if state is not None:
                    state.cost = cost
                current_thread = thread
                state = states.get(thread) or self._ensure(thread)
                cost = state.cost
                (s_last, s_last_get, s_rtn, s_ts, s_cost, s_partial,
                 s_ind_thread, s_ind_external) = state.bound
            if kind == _COST:
                cost += arg
            elif kind == _READ or kind == _KERNEL_READ:
                last = s_last_get(arg, -1)
                packed = wts_get(arg)
                if packed is not None and (packed >> 1) > last:
                    # Induced first-access: the latest write to the cell
                    # is foreign (or kernel) and unseen by this thread.
                    s_partial[-1] += 1
                    if packed & 1:
                        s_ind_external[-1] += 1
                        induced_external += 1
                    else:
                        s_ind_thread[-1] += 1
                        induced_thread += 1
                elif last < s_ts[-1]:
                    # Plain first-access for the topmost activation.
                    s_partial[-1] += 1
                    if last >= 0:
                        ancestor = bisect_right(s_ts, last) - 1
                        if ancestor >= 0:
                            s_partial[ancestor] -= 1
                s_last[arg] = position
            elif kind == _WRITE:
                s_last[arg] = position
                wts[arg] = position << 1
            elif kind == _CALL:
                if arg >= name_count or arg < 0:
                    raise MalformedRecord(
                        f"routine id {arg} at position {position} outside "
                        f"string table of {name_count} name(s)")
                if context_sensitive:
                    parent = s_rtn[-1]
                    rtn_id = ctx_ids.get((parent, arg))
                    if rtn_id is None:
                        rtn_id = extra_base + len(extra)
                        parent_name = (extra[parent - extra_base]
                                       if parent >= extra_base else names[parent])
                        extra.append(compose_context(parent_name, names[arg]))
                        ctx_ids[(parent, arg)] = rtn_id
                else:
                    rtn_id = arg
                s_rtn.append(rtn_id)
                s_ts.append(position)
                s_cost.append(cost)
                s_partial.append(0)
                s_ind_thread.append(0)
                s_ind_external.append(0)
            elif kind == _RETURN:
                if len(s_rtn) > 1:
                    partial = s_partial.pop()
                    ind_thread = s_ind_thread.pop()
                    ind_external = s_ind_external.pop()
                    s_ts.pop()
                    entry_cost = s_cost.pop()
                    rtn_id = s_rtn.pop()
                    s_partial[-1] += partial
                    s_ind_thread[-1] += ind_thread
                    s_ind_external[-1] += ind_external
                    add_activation(
                        extra[rtn_id - extra_base] if rtn_id >= extra_base
                        else names[rtn_id],
                        thread, partial, cost - entry_cost,
                        ind_thread, ind_external,
                    )
            elif kind == _KERNEL_WRITE:
                wts[arg] = (position << 1) | 1
            # THREAD_SWITCH: no per-thread effect (position still advances)
            position += 1

        if state is not None:
            state.cost = cost
        db.global_induced_thread += induced_thread
        db.global_induced_external += induced_external
        self.events_analyzed += columns.events

    def finish(self) -> None:
        """Unwind every pending activation, including implicit roots."""
        name_of = self._name_of
        add_activation = self.db.add_activation
        for thread, state in self.states.items():
            stack = state.stack
            while stack:
                rtn_id, _, entry_cost, partial, ind_thread, ind_external = stack.pop()
                if stack:
                    stack.partial[-1] += partial
                    stack.induced_thread[-1] += ind_thread
                    stack.induced_external[-1] += ind_external
                add_activation(
                    name_of(rtn_id), thread, partial, state.cost - entry_cost,
                    ind_thread, ind_external,
                )


def analyze_columns_flat(
    column_blocks: Iterable,
    names: Sequence[str],
    db: ProfileDatabase,
    context_sensitive: bool = False,
) -> int:
    """Run the flat kernel over column blocks; returns events analysed.

    ``column_blocks`` must arrive in increasing global-position order
    (chunks in trace order), as the offline columnariser delivers them.
    """
    analyzer = FlatAnalyzer(names, db, context_sensitive=context_sensitive)
    for columns in column_blocks:
        analyzer.feed(columns)
    analyzer.finish()
    return analyzer.events_analyzed


def analyze_events_flat(
    events: Sequence[Event],
    db: ProfileDatabase,
    context_sensitive: bool = False,
) -> int:
    """Flat-analyse an in-memory event stream (whole trace, all threads)."""
    from ..farm.binfmt import columns_from_events

    columns, names = columns_from_events(events)
    return analyze_columns_flat(
        [columns], names, db, context_sensitive=context_sensitive)
