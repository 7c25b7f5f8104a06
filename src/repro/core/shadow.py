"""Shadow memories for timestamp tracking.

The paper's implementation (Section 5) keeps one *global* shadow memory
``wts`` (latest write timestamp per cell, any thread) and one
*thread-specific* shadow memory ``ts_t`` per thread (latest read/write
timestamp per cell by that thread).  To keep the space overhead
proportional to the memory a thread actually touches, both are realised
as three-level lookup tables: a primary table indexes secondary tables,
each secondary table indexes fixed-size chunks of 32-bit timestamps, and
chunks are allocated lazily on first access.

This module provides:

* :class:`ShadowMemory` — the three-level structure, with allocation
  statistics used by the space-overhead experiments (Table 1, Fig. 14);
* :class:`DictShadow` — a plain-dict reference implementation with the
  same interface, used by the differential tests.

Addresses are non-negative integers (cell indices).  A timestamp of 0
means "never accessed / never written", matching the paper's sentinel.
The profilers' per-event handlers read and write both kinds by
subscript (``shadow[addr]``): an unset cell reads as 0.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ShadowMemory", "DictShadow"]


class ShadowMemory:
    """Sparse map from cell address to timestamp via 3-level tables.

    Layout (defaults mirror the spirit of the paper's 2048-entry primary
    table of 16K-chunk secondaries, scaled to Python practicality):

    * primary: dict from primary index to secondary table;
    * secondary: list of ``secondary_size`` chunk slots (None until used);
    * chunk: ``array('L')`` of ``chunk_size`` timestamps.

    Using a dict at the primary level keeps very sparse address spaces
    cheap; the secondary level and chunks are dense, which is what gives
    the structure its locality win for real workloads.
    """

    #: bytes per timestamp entry, used for space accounting (paper: 32-bit)
    ENTRY_BYTES = 4

    def __init__(self, chunk_size: int = 4096, secondary_size: int = 1024):
        if chunk_size <= 0 or secondary_size <= 0:
            raise ValueError("chunk_size and secondary_size must be positive")
        self.chunk_size = chunk_size
        self.secondary_size = secondary_size
        self._span = chunk_size * secondary_size
        self._primary: Dict[int, List[Optional[array]]] = {}
        self._chunks_allocated = 0
        self._zero_chunk_template = array("L", [0]) * chunk_size

    def get(self, addr: int, default: int = 0) -> int:
        """Return the timestamp of ``addr`` (``default`` if never set).

        ``default`` exists for call-site compatibility with
        :class:`DictShadow`; unset cells always read as 0 semantically,
        so only 0 makes sense here.
        """
        secondary = self._primary.get(addr // self._span)
        if secondary is None:
            return default
        offset = addr % self._span
        chunk = secondary[offset // self.chunk_size]
        if chunk is None:
            return default
        return chunk[offset % self.chunk_size]

    def set(self, addr: int, value: int) -> None:
        """Set the timestamp of ``addr`` to ``value``."""
        primary_index = addr // self._span
        secondary = self._primary.get(primary_index)
        if secondary is None:
            secondary = [None] * self.secondary_size
            self._primary[primary_index] = secondary
        offset = addr % self._span
        chunk_index = offset // self.chunk_size
        chunk = secondary[chunk_index]
        if chunk is None:
            chunk = array("L", self._zero_chunk_template)
            secondary[chunk_index] = chunk
            self._chunks_allocated += 1
        chunk[offset % self.chunk_size] = value

    # dict-style sugar: the profilers' hot paths subscript ---------------

    __getitem__ = get
    __setitem__ = set

    # bulk traversal (renumbering needs to visit every set cell) -----------

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(addr, timestamp)`` for every nonzero entry."""
        for primary_index, secondary in self._primary.items():
            base = primary_index * self._span
            for chunk_index, chunk in enumerate(secondary):
                if chunk is None:
                    continue
                chunk_base = base + chunk_index * self.chunk_size
                for cell_offset, value in enumerate(chunk):
                    if value:
                        yield chunk_base + cell_offset, value

    def clear(self) -> None:
        """Drop all entries and allocation statistics."""
        self._primary.clear()
        self._chunks_allocated = 0

    # accounting ------------------------------------------------------------

    @property
    def chunks_allocated(self) -> int:
        """Number of chunks materialised so far."""
        return self._chunks_allocated

    def space_bytes(self) -> int:
        """Approximate bytes held by the structure (chunk payloads only).

        The experiments compare tools by their shadow payload, so the
        (small, implementation-specific) overhead of the index levels is
        deliberately excluded — exactly as the paper reports shadow-
        memory-dominated space.
        """
        return self._chunks_allocated * self.chunk_size * self.ENTRY_BYTES


class DictShadow(dict):
    """Shadow memory backed directly by a dict.

    Functionally identical to :class:`ShadowMemory` and the profilers'
    default.  Subclassing ``dict`` keeps the subscripts the profilers
    run on every memory event at C speed: ``shadow[addr]`` on a set
    cell and ``shadow[addr] = ts`` are ``dict``'s own.  Reading an unset
    cell calls :meth:`__missing__`, a Python method, which returns 0
    without storing anything.

    :meth:`get` and :meth:`set` are Python methods, for generic
    shadow-memory code such as renumbering: ``get(addr)`` returns 0 for
    an unset cell (``dict.get`` would return ``None``), and ``set``
    prunes zeros.
    """

    ENTRY_BYTES = 4

    def get(self, addr: int, default: int = 0) -> int:
        return dict.get(self, addr, default)

    def set(self, addr: int, value: int) -> None:
        if value:
            self[addr] = value
        else:
            dict.pop(self, addr, None)

    def __missing__(self, addr: int) -> int:
        return 0

    @property
    def chunks_allocated(self) -> int:
        return 0

    def space_bytes(self) -> int:
        return len(self) * self.ENTRY_BYTES
