"""Buffer pool and change buffer — the engine's memory heart.

Two structures shape the case-study profiles:

* :class:`BufferPool` — ``frames`` page slots of tracked cells with LRU
  replacement.  A table scan larger than the pool streams every page
  through *reused* frame cells via kernel fills, so a scanning routine's
  rms saturates near the pool size while its trms keeps growing with the
  table — the ``mysql_select`` effect of Figure 4.
* :class:`ChangeBuffer` — a fixed ring of change records appended by
  client threads and drained in batches by
  :meth:`ChangeBuffer.buf_flush_buffered_writes`.  The flusher's reads
  of ring slots are thread-induced (clients wrote them), its rms is
  pinned near the ring size, and the batch it drains is
  insertion-sorted by page id — quadratic work in the batch size, the
  super-linear trend of Figure 6 that only the trms axis reveals.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..pytrace.api import TraceSession, traced
from ..pytrace.cells import TrackedArray
from ..pytrace.sync import TracedLock
from .storage import DiskManager

__all__ = ["BufferPool", "ChangeBuffer"]


class BufferPool:
    """Page cache over tracked frame cells with LRU replacement."""

    def __init__(self, session: TraceSession, disk_manager: DiskManager, frames: int = 4):
        if frames <= 0:
            raise ValueError("frames must be positive")
        self.session = session
        self.disk_manager = disk_manager
        self.page_size = disk_manager.disk.page_size
        self.frames = frames
        self.data = TrackedArray(session, frames * self.page_size)
        self._frame_page: List[Optional[int]] = [None] * frames
        self._page_frame: Dict[int, int] = {}
        self._dirty: List[bool] = [False] * frames
        #: frames from least to most recently used (the first is the victim)
        self._lru: OrderedDict[int, None] = OrderedDict.fromkeys(range(frames))
        self.lock = TracedLock(session, "bufpool")
        self.fetches = 0
        self.hits = 0

    # The pool lock must be held for every method below; the engine's
    # read/write paths take it once per page operation.

    def _fetch(self, page_id: int) -> int:
        """Frame index holding ``page_id``, loading (and evicting) as needed."""
        self.fetches += 1
        frame = self._page_frame.get(page_id)
        if frame is not None:
            self.hits += 1
            self._lru.move_to_end(frame)
            return frame
        frame = next(iter(self._lru))
        victim = self._frame_page[frame]
        if victim is not None:
            if self._dirty[frame]:
                self.disk_manager.write_page(victim, self.data, frame * self.page_size)
                self._dirty[frame] = False
            del self._page_frame[victim]
        self.disk_manager.read_page(page_id, self.data, frame * self.page_size)
        self._frame_page[frame] = page_id
        self._page_frame[page_id] = frame
        self._lru.move_to_end(frame)
        return frame

    def read_cell(self, page_id: int, offset: int) -> int:
        frame = self._fetch(page_id)
        return self.data[frame * self.page_size + offset]

    def read_cells(self, page_id: int, offset: int, count: int) -> List[int]:
        """``count`` consecutive cells of one page: one fetch, then one
        tracked read per cell, in order."""
        base = self._fetch(page_id) * self.page_size + offset
        data = self.data
        return [data[base + index] for index in range(count)]

    def write_cell(self, page_id: int, offset: int, value: int) -> None:
        frame = self._fetch(page_id)
        self.data[frame * self.page_size + offset] = value
        self._dirty[frame] = True

    def invalidate(self, page_id: int) -> None:
        """Drop a cached page (after the flusher rewrote it on disk)."""
        frame = self._page_frame.pop(page_id, None)
        if frame is not None:
            self._frame_page[frame] = None
            self._dirty[frame] = False

    def flush_all(self) -> None:
        """Write every dirty frame back (shutdown path)."""
        for frame, page_id in enumerate(self._frame_page):
            if page_id is not None and self._dirty[frame]:
                self.disk_manager.write_page(page_id, self.data, frame * self.page_size)
                self._dirty[frame] = False


class ChangeBuffer:
    """Fixed ring of change records between client threads and the flusher.

    A record occupies one ring slot of ``3 + width`` tracked cells:
    ``(page_id, offset, length, values...)``.  Clients block on a free slot
    (semaphore), write the record, and signal the flusher.  The flusher
    drains every available record in one activation of
    :meth:`buf_flush_buffered_writes`, insertion-sorts the batch by page
    id (write coalescing — and the deliberate quadratic term of
    Figure 6), applies the records to disk, and invalidates the affected
    pool pages.

    While :attr:`flusher_active` is set, clients append concurrently with
    a drain, so the drain yields the interpreter after every record it
    takes (the write-behind flusher's I/O wait), letting clients refill
    the ring and grow the batch.  A synchronous drain — ``flush_now``, or
    a client self-flushing a full ring — yields nothing: no other thread
    appends to the batch it drains, and each yield costs tens of
    microseconds.
    """

    def __init__(
        self,
        session: TraceSession,
        disk_manager: DiskManager,
        pool: BufferPool,
        slots: int = 8,
        width: int = 4,
    ):
        if slots <= 0 or width <= 0:
            raise ValueError("slots and width must be positive")
        self.session = session
        self.disk_manager = disk_manager
        self.pool = pool
        self.slots = slots
        self.record_cells = 3 + width
        self.width = width
        self.ring = TrackedArray(session, slots * self.record_cells)
        self.lock = TracedLock(session, "changebuf")
        self.free = threading.Semaphore(slots)
        self.used = threading.Semaphore(0)
        self._head = 0            # next slot the flusher drains
        self._tail = 0            # next slot a client fills
        #: completely written, not yet drained records (under ``lock``);
        #: distinguishes real work from the shutdown poison token
        self._pending = 0
        self.records_flushed = 0
        self.flush_calls = 0
        #: True while a background flusher owns draining (a drain then
        #: yields per record); when False a client hitting a full ring
        #: flushes from its own thread, like a MySQL user thread doing a
        #: synchronous flush under pressure
        self.flusher_active = False

    # -- client side -------------------------------------------------------------

    def append(self, page_id: int, offset: int, values: List[int]) -> None:
        """Buffer one change record (blocks or self-flushes when full)."""
        if len(values) > self.width:
            raise ValueError(f"record wider than {self.width}")
        while not self.free.acquire(blocking=False):
            if self.flusher_active:
                self.free.acquire()
                break
            if self.used.acquire(blocking=False):
                self.buf_flush_buffered_writes()
        with self.lock:
            slot = self._tail
            self._tail = (self._tail + 1) % self.slots
            base = slot * self.record_cells
            self.ring[base] = page_id
            self.ring[base + 1] = offset
            self.ring[base + 2] = len(values)
            for index, value in enumerate(values):
                self.ring[base + 3 + index] = value
            self._pending += 1
        self.used.release()

    @property
    def pending(self) -> int:
        """Records written but not yet drained."""
        with self.lock:
            return self._pending

    # -- flusher side --------------------------------------------------------------

    @traced
    def buf_flush_buffered_writes(self) -> int:
        """Drain every buffered record; return how many were applied.

        The first record is already reserved by the caller (it acquired
        ``used`` once before calling); further available records are
        claimed non-blockingly so one activation handles a whole batch.
        """
        self.flush_calls += 1
        batch: List[Tuple[int, int, List[int]]] = []
        # One record is reserved by the caller (it consumed a ``used``
        # token while records were pending); keep draining whatever
        # clients append while we work, so one activation can flush far
        # more records than the ring holds at once.
        while True:
            with self.lock:
                slot = self._head
                self._head = (self._head + 1) % self.slots
                self._pending -= 1
                base = slot * self.record_cells
                page_id = self.ring[base]
                offset = self.ring[base + 1]
                length = self.ring[base + 2]
                values = self.session.kernel_drain(self.ring, base + 3, length)
            self.free.release()
            batch.append((page_id, offset, list(values)))
            if self.flusher_active:
                # a real flusher's I/O wait, during which clients append
                # to the batch; a synchronous drain has no one to wait for
                time.sleep(0)
            # continue only while real records remain AND a token is
            # available — a lone shutdown-poison token never drains a
            # nonexistent record
            if self.pending <= 0 or not self.used.acquire(blocking=False):
                break

        # Coalesce writes by page id: insertion sort over a tracked
        # scratch list — O(batch^2) tracked operations, the deliberate
        # super-linear cost component.
        ordered = self.session.list()
        for position, record in enumerate(batch):
            insert_at = 0
            for index in range(len(ordered)):
                if batch[ordered[index]][0] <= record[0]:
                    insert_at = index + 1
            ordered.append(position)
            for index in range(len(ordered) - 1, insert_at, -1):
                ordered[index] = ordered[index - 1]
            ordered[insert_at] = position

        for index in range(len(ordered)):
            page_id, offset, values = batch[ordered[index]]
            self.disk_manager.patch_page(page_id, offset, values)
            with self.pool.lock:
                self.pool.invalidate(page_id)
        self.records_flushed += len(batch)
        return len(batch)
