"""Tracked containers: Python data with observable cell accesses.

Each container element occupies one synthetic cell address allocated
from its session; indexing emits read/write events through the session.
``raw_*`` accessors bypass event emission — they exist for the kernel
I/O paths (a buffer fill is not a thread access) and for test
assertions, never for traced application logic.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence

from .api import TraceSession

__all__ = ["TrackedArray", "TrackedList", "TrackedDict"]


class TrackedArray:
    """Fixed-size array of tracked cells."""

    def __init__(self, session: TraceSession, size: int, fill=0):
        if size < 0:
            raise ValueError(f"negative array size {size}")
        self.session = session
        self._emit_read = session.emit_read
        self._emit_write = session.emit_write
        self.base = session.alloc(max(size, 1))
        self._values: List = [fill] * size

    def __len__(self) -> int:
        return len(self._values)

    def addr_of(self, index: int) -> int:
        """Synthetic address of element ``index``."""
        return self.base + index

    def __getitem__(self, index: int):
        value = self._values[index]          # raises IndexError first
        if index < 0:
            index += len(self._values)
        self._emit_read(self.base + index)
        return value

    def __setitem__(self, index: int, value) -> None:
        self._values[index] = value
        if index < 0:
            index += len(self._values)
        self._emit_write(self.base + index)

    def __iter__(self) -> Iterator:
        for index in range(len(self._values)):
            yield self[index]

    # untracked accessors (kernel paths and test assertions only) -------------

    def raw_get(self, index: int):
        return self._values[index]

    def raw_set(self, index: int, value) -> None:
        self._values[index] = value

    def raw_fill(self, offset: int, values: Sequence) -> None:
        for index, value in enumerate(values):
            self._values[offset + index] = value

    def snapshot(self) -> List:
        """Untracked copy of the contents."""
        return list(self._values)


class TrackedList:
    """Growable list of tracked cells.

    Append allocates a fresh cell (and emits the write); element access
    behaves like :class:`TrackedArray`.  Cells are allocated one at a
    time, so address contiguity is *not* guaranteed — profilers never
    rely on it.
    """

    def __init__(self, session: TraceSession, values: Iterable = ()):
        self.session = session
        self._emit_read = session.emit_read
        self._emit_write = session.emit_write
        self._values: List = []
        self._addrs: List[int] = []
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def addr_of(self, index: int) -> int:
        return self._addrs[index]

    def append(self, value) -> None:
        addr = self.session.alloc(1)
        self._values.append(value)
        self._addrs.append(addr)
        self._emit_write(addr)

    def pop(self):
        value = self._values.pop()
        addr = self._addrs.pop()
        self._emit_read(addr)
        return value

    def __getitem__(self, index: int):
        value = self._values[index]
        self._emit_read(self._addrs[index])
        return value

    def __setitem__(self, index: int, value) -> None:
        self._values[index] = value
        self._emit_write(self._addrs[index])

    def __iter__(self) -> Iterator:
        for index in range(len(self._values)):
            yield self[index]

    def raw_get(self, index: int):
        return self._values[index]

    def snapshot(self) -> List:
        return list(self._values)


class TrackedDict:
    """Mapping from hashable keys to tracked value cells.

    Key lookup itself is untracked (hashing is interpreter machinery);
    reading or writing a value touches that key's cell.  Deleting a key
    retires its cell; re-inserting the key allocates a fresh one.
    """

    def __init__(self, session: TraceSession):
        self.session = session
        self._emit_read = session.emit_read
        self._emit_write = session.emit_write
        self._values: Dict[Hashable, object] = {}
        self._addrs: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    def addr_of(self, key: Hashable) -> int:
        return self._addrs[key]

    def __getitem__(self, key: Hashable):
        value = self._values[key]            # raises KeyError first
        self._emit_read(self._addrs[key])
        return value

    def get(self, key: Hashable, default=None):
        if key not in self._values:
            return default
        return self[key]

    def __setitem__(self, key: Hashable, value) -> None:
        addr = self._addrs.get(key)
        if addr is None:
            addr = self.session.alloc(1)
            self._addrs[key] = addr
        self._values[key] = value
        self._emit_write(addr)

    def __delitem__(self, key: Hashable) -> None:
        del self._values[key]
        del self._addrs[key]

    def keys(self):
        return self._values.keys()

    def items(self) -> Iterator:
        for key in list(self._values):
            yield key, self[key]

    def snapshot(self) -> Dict:
        return dict(self._values)
