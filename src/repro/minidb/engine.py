"""The database engine: catalog, executor, background flusher.

``Database.execute`` dispatches parsed statements.  ``mysql_select`` —
named after the MySQL routine the paper profiles — runs the scan+filter
plan for SELECT through the buffer pool, so on tables larger than the
pool its rms saturates at the pool size while its trms tracks the table
(Figure 4).  Inserts buffer change records; a dedicated flusher thread
wakes whenever records are pending and drains them in batches through
``buf_flush_buffered_writes`` (Figure 6).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..pytrace.api import TraceSession, traced
from ..pytrace.sync import TracedThread
from .bufferpool import BufferPool, ChangeBuffer
from .protocol import Protocol, ServerStatus
from .index import HashIndex
from .sql import CreateIndex, CreateTable, Insert, Select, SqlError, Update, evaluate, parse
from .storage import Disk, DiskManager
from .table import HeapTable

__all__ = ["Database"]


class Database:
    """An embedded mini relational database over one tracing session."""

    def __init__(
        self,
        session: TraceSession,
        page_size: int = 9,
        pool_frames: int = 4,
        ring_slots: int = 8,
        record_width: int = 4,
    ):
        self.session = session
        self.disk = Disk(page_size=page_size)
        self.disk_manager = DiskManager(session, self.disk)
        self.pool = BufferPool(session, self.disk_manager, frames=pool_frames)
        self.change_buffer = ChangeBuffer(
            session, self.disk_manager, self.pool, slots=ring_slots, width=record_width
        )
        self.status = ServerStatus(session)
        self.tables: Dict[str, HeapTable] = {}
        self._schemas: Dict[str, List[str]] = {}
        self.indexes: Dict[tuple, HashIndex] = {}
        self._catalog_lock = threading.Lock()
        self._flusher: Optional[TracedThread] = None
        self._shutdown = threading.Event()

    # -- catalog ---------------------------------------------------------------------

    def create_table(self, name: str, columns: List[str]) -> HeapTable:
        with self._catalog_lock:
            if name in self.tables:
                raise SqlError(f"table {name!r} already exists")
            table = HeapTable(name, len(columns), self.pool, self.change_buffer)
            self.tables[name] = table
            self._schemas[name] = list(columns)
            return table

    def table(self, name: str) -> HeapTable:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlError(f"no such table {name!r}") from None

    def create_index(self, table_name: str, column: str) -> HashIndex:
        """Build a hash index over ``column`` from the committed rows."""
        table = self.table(table_name)
        column_position = self.column_index(table_name, column)
        key = (table_name, column)
        with self._catalog_lock:
            if key in self.indexes:
                raise SqlError(f"index on {table_name}.{column} already exists")
            index = HashIndex(self.session, table_name, column, column_position)
            self.indexes[key] = index
        for row_index in range(table.row_count):
            row = table.read_row(row_index)
            index.index_insert(row[column_position], row_index)
        return index

    def _table_indexes(self, table_name: str) -> List[HashIndex]:
        return [index for (name, _), index in self.indexes.items()
                if name == table_name]

    def column_index(self, table: str, column: str) -> int:
        schema = self._schemas[table]
        try:
            return schema.index(column)
        except ValueError:
            raise SqlError(f"no column {column!r} in table {table!r}") from None

    # -- execution -------------------------------------------------------------------

    def execute(self, sql: str, protocol: Optional[Protocol] = None) -> List[List[int]]:
        """Parse and run one statement; returns result rows (SELECT only)."""
        statement = parse(sql)
        self.status.bump(0)
        if isinstance(statement, CreateTable):
            self.create_table(statement.table, statement.columns)
            return []
        if isinstance(statement, CreateIndex):
            if self._flusher is None:
                self.flush_now()
            self.create_index(statement.table, statement.column)
            return []
        if isinstance(statement, Insert):
            self.mysql_insert(statement)
            return []
        # Read-your-writes: statements that scan (SELECT, UPDATE) first
        # drain any change records still buffered — synchronously when no
        # background flusher owns the ring; otherwise the flusher's own
        # drain provides the (slightly lagged) visibility, as in a real
        # write-behind engine.
        if isinstance(statement, (Select, Update)) and self._flusher is None:
            self.flush_now()
        if isinstance(statement, Update):
            self.mysql_update(statement)
            return []
        return self.mysql_select(statement, protocol)

    @traced
    def mysql_insert(self, statement: Insert) -> None:
        row_index = self.table(statement.table).insert(statement.values)
        for index in self._table_indexes(statement.table):
            index.index_insert(statement.values[index.column_index], row_index)

    @traced
    def mysql_update(self, statement: Update) -> int:
        """Scan + filter + buffer one change record per matching row.

        Updates flow through the same change-buffer ring as inserts, so
        they are visible to scans once flushed — and they are more food
        for ``buf_flush_buffered_writes``.  Returns the number of rows
        updated.
        """
        table = self.table(statement.table)
        set_index = self.column_index(statement.table, statement.set_column)
        predicate_index: Optional[int] = None
        if statement.where_column is not None:
            predicate_index = self.column_index(statement.table, statement.where_column)
        updated = 0
        for row_index in range(table.row_count):
            row = table.read_row(row_index)
            if predicate_index is not None and not evaluate(
                statement.where_op, row[predicate_index], statement.where_value
            ):
                continue
            table.update_cell(row_index, set_index, statement.set_value)
            for index in self._table_indexes(statement.table):
                if index.column_index == set_index:
                    index.index_update(row[set_index], statement.set_value, row_index)
            updated += 1
        return updated

    @traced
    def mysql_select(
        self, statement: Select, protocol: Optional[Protocol] = None
    ) -> List[List[int]]:
        """Scan + filter + (optionally) send the result set."""
        table = self.table(statement.table)
        predicate_index: Optional[int] = None
        if statement.where_column is not None:
            predicate_index = self.column_index(statement.table, statement.where_column)

        # an equality predicate over an indexed column becomes a point
        # lookup: the activation's input shrinks from the whole table to
        # the bucket plus the matching rows
        index = self.indexes.get((statement.table, statement.where_column))
        if index is not None and statement.where_op == "=":
            rows = [table.read_row(r) for r in index.index_lookup(statement.where_value)]
        else:
            rows = []
            for row in table.scan():
                if predicate_index is not None and not evaluate(
                    statement.where_op, row[predicate_index], statement.where_value
                ):
                    continue
                rows.append(row)
        for row in rows:
            if protocol is not None:
                protocol.send_row(row)
        if protocol is not None:
            protocol.send_eof()
        return rows

    # -- flusher -----------------------------------------------------------------------

    def start_flusher(self) -> None:
        """Start the background flusher thread (idempotent)."""
        if self._flusher is not None:
            return
        self._shutdown.clear()
        self.change_buffer.flusher_active = True
        self._flusher = TracedThread(self.session, self._flusher_loop, name="flusher")
        self._flusher.start()

    def _flusher_loop(self) -> None:
        # Every ``used`` token stands for one buffered record, except the
        # one ``stop_flusher`` releases.  The loop returns only on a token
        # that finds nothing pending once stopping: that surplus token.
        # So ``used`` counts ``pending`` again for the synchronous drains
        # that follow, whichever token a racing drain took.
        buffer = self.change_buffer
        while True:
            buffer.used.acquire()
            if buffer.pending > 0:
                buffer.buf_flush_buffered_writes()
            elif self._shutdown.is_set():
                return

    def stop_flusher(self) -> None:
        """Flush everything pending and stop the flusher thread."""
        if self._flusher is None:
            return
        self._shutdown.set()
        self.change_buffer.used.release()   # poison wake-up
        self._flusher.join()
        self._flusher = None
        self.change_buffer.flusher_active = False

    def flush_now(self) -> int:
        """Synchronously flush pending records from the calling thread.

        Only valid while no background flusher is running.  Returns the
        number of records applied.
        """
        if self._flusher is not None:
            raise RuntimeError("background flusher owns the change buffer")
        applied = 0
        while self.change_buffer.used.acquire(blocking=False):
            applied += self.change_buffer.buf_flush_buffered_writes()
        return applied

    def new_protocol(self) -> Protocol:
        """A protocol instance for one client connection."""
        return Protocol(self.session, self.status)
