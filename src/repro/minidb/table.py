"""Heap tables: fixed-width integer rows on disk pages.

Page layout: cell 0 holds the row count; rows follow consecutively,
``columns`` cells each.  Inserts go through the change buffer (they
become visible to scans once flushed); scans read pages through the
buffer pool, cell by cell — which is what makes a large scan stream its
table through a small set of reused frames.
"""

from __future__ import annotations

import threading
from typing import Iterator, List

from .bufferpool import BufferPool, ChangeBuffer

__all__ = ["HeapTable"]


class HeapTable:
    """One table: a name, a column count, and a range of disk pages."""

    _next_page_base = 0
    _page_base_lock = threading.Lock()
    #: pages reserved per table (a fixed-size extent keeps page ids simple)
    EXTENT_PAGES = 4096

    def __init__(self, name: str, columns: int, pool: BufferPool, change_buffer: ChangeBuffer):
        if columns <= 0:
            raise ValueError("a table needs at least one column")
        if columns > change_buffer.width:
            raise ValueError(
                f"{columns} columns exceed the change-buffer record width "
                f"{change_buffer.width}"
            )
        self.name = name
        self.columns = columns
        self.pool = pool
        self.change_buffer = change_buffer
        page_size = pool.page_size
        self.rows_per_page = (page_size - 1) // columns
        if self.rows_per_page <= 0:
            raise ValueError(f"page size {page_size} too small for {columns} columns")
        with HeapTable._page_base_lock:
            self.first_page = HeapTable._next_page_base
            HeapTable._next_page_base += HeapTable.EXTENT_PAGES
        #: committed row count (maintained under the metadata lock)
        self._row_count = 0
        self._meta_lock = threading.Lock()

    # -- geometry -----------------------------------------------------------------

    def _locate(self, row_index: int) -> (int, int):
        page_id = self.first_page + row_index // self.rows_per_page
        slot = row_index % self.rows_per_page
        offset = 1 + slot * self.columns
        return page_id, offset

    @property
    def row_count(self) -> int:
        return self._row_count

    def page_count(self) -> int:
        full = (self._row_count + self.rows_per_page - 1) // self.rows_per_page
        return max(full, 0)

    # -- writes ---------------------------------------------------------------------

    def insert(self, row: List[int]) -> int:
        """Buffer one row insert; returns the row index it will occupy."""
        if len(row) != self.columns:
            raise ValueError(
                f"row has {len(row)} values, table {self.name!r} has {self.columns} columns"
            )
        with self._meta_lock:
            row_index = self._row_count
            self._row_count += 1
        page_id, offset = self._locate(row_index)
        self.change_buffer.append(page_id, offset, list(row))
        # the row-count header is also a buffered change
        self.change_buffer.append(page_id, 0, [(row_index % self.rows_per_page) + 1])
        return row_index

    def update_cell(self, row_index: int, column: int, value: int) -> None:
        """Buffer an update of one column of one committed row."""
        if not 0 <= row_index < self._row_count:
            raise IndexError(f"row {row_index} out of range")
        if not 0 <= column < self.columns:
            raise IndexError(f"column {column} out of range")
        page_id, offset = self._locate(row_index)
        self.change_buffer.append(page_id, offset + column, [value])

    # -- reads ----------------------------------------------------------------------

    def read_row(self, row_index: int) -> List[int]:
        """Read one row through the buffer pool (a row never spans pages,
        so its page is fetched once)."""
        page_id, offset = self._locate(row_index)
        with self.pool.lock:
            return self.pool.read_cells(page_id, offset, self.columns)

    def scan(self) -> Iterator[List[int]]:
        """Yield every committed row, page by page, through the pool."""
        for row_index in range(self._row_count):
            yield self.read_row(row_index)
