"""The per-layer cost ledger of a traced run.

The ledger times calls into the layers' public functions from the
benchmark's side: :meth:`Ledger.patch` swaps a module or class
attribute for a timing wrapper and :meth:`Ledger.restore` puts the
original back, so no code under ``src/`` changes.  Each timed call is a
span with a layer name.  Spans nest per thread, and a layer's *self*
time is its spans' duration minus the part their child spans cover, so
the self times of one thread never count an interval twice and add up
to at most the wall time they were taken over.

Every span records wall time and the thread's CPU time.  Single-threaded
phases are accounted in wall time; the live workload, whose recorder
and co-tailing thread interleave under the interpreter lock, is
accounted in CPU time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

__all__ = ["Ledger"]


class Ledger:
    """Self-time accounting over patched layer entry points."""

    def __init__(self) -> None:
        self.self_wall: Dict[str, float] = defaultdict(float)
        self.self_cpu: Dict[str, float] = defaultdict(float)
        #: inclusive wall and CPU time per function key (outermost call only)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.inclusive_cpu: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``; ``key`` names its timer."""
        stack = self._stack()
        outermost = all(frame[1] != key for frame in stack)
        # [layer, key, wall0, cpu0, child wall, child cpu]
        frame = [layer, key, time.perf_counter(), time.thread_time(), 0.0, 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - frame[2]
            cpu = time.thread_time() - frame[3]
            stack.pop()
            if stack:
                stack[-1][4] += wall
                stack[-1][5] += cpu
            with self._lock:
                self.self_wall[layer] += wall - frame[4]
                self.self_cpu[layer] += cpu - frame[5]
                if outermost:
                    self.inclusive[key] += wall
                    self.inclusive_cpu[key] += cpu

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ------------------------------------------------------------

    def _install(self, owner, name: str, replacement) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def patch(self, owner, name: str, layer: str, key: str = "") -> None:
        """Time every call of ``owner.name`` as a span of ``layer``."""
        original = getattr(owner, name)
        key = key or name
        ledger = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return ledger.call(layer, key, original, *args, **kwargs)

        self._install(owner, name, timed)

    def patch_eager(self, owner, name: str, layer: str, count_key: str) -> None:
        """Time a generator function by draining it inside the span.

        The items are handed back from a list, so the consumer's work
        on them lands outside the span.  ``count_key`` accumulates the
        number of items produced.
        """
        original = getattr(owner, name)
        ledger = self

        @functools.wraps(original)
        def eager(*args, **kwargs):
            items = ledger.call(layer, name, lambda: list(original(*args, **kwargs)))
            ledger.count(count_key, len(items))
            return iter(items)

        self._install(owner, name, eager)

    def wrap_result(self, owner, name: str, layer: str,
                    on_result: Callable[[object], None]) -> None:
        """Like :meth:`patch`, and hand each return value to ``on_result``."""
        original = getattr(owner, name)
        ledger = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            result = ledger.call(layer, name, original, *args, **kwargs)
            on_result(result)
            return result

        self._install(owner, name, timed)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
