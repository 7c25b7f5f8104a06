"""Tests for the minidb engine: storage, pool, tables, queries, flusher."""

import pytest

from repro.core import EventBus, RmsProfiler, TrmsProfiler
from repro.minidb import Database, SqlError, minislap
from repro.pytrace import TraceSession


def make_db(**kwargs):
    trms = TrmsProfiler(keep_activations=True)
    rms = RmsProfiler(keep_activations=True)
    session = TraceSession(tools=EventBus([rms, trms]))
    session.__enter__()
    db = Database(session, **kwargs)
    return session, db, rms, trms


def close(session):
    session.__exit__(None, None, None)


def test_create_insert_select_roundtrip():
    session, db, _, _ = make_db()
    try:
        db.execute("CREATE TABLE t (a, b)")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i}, {10 * i})")
        db.flush_now()
        rows = db.execute("SELECT * FROM t")
        assert rows == [[i, 10 * i] for i in range(10)]
    finally:
        close(session)


def test_where_filters():
    session, db, _, _ = make_db()
    try:
        db.execute("CREATE TABLE t (a, b)")
        for i in range(12):
            db.execute(f"INSERT INTO t VALUES ({i}, 0)")
        db.flush_now()
        assert len(db.execute("SELECT * FROM t WHERE a < 4")) == 4
        assert len(db.execute("SELECT * FROM t WHERE a >= 10")) == 2
        assert db.execute("SELECT * FROM t WHERE a = 7") == [[7, 0]]
        assert len(db.execute("SELECT * FROM t WHERE a != 7")) == 11
    finally:
        close(session)


def test_errors():
    session, db, _, _ = make_db()
    try:
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM missing")
        db.execute("CREATE TABLE t (a)")
        with pytest.raises(SqlError):
            db.execute("CREATE TABLE t (a)")
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM t WHERE nope = 1")
        with pytest.raises(ValueError):
            db.execute("INSERT INTO t VALUES (1, 2)")   # wrong arity
    finally:
        close(session)


def test_table_spans_many_pages():
    session, db, _, _ = make_db(page_size=9, pool_frames=3)
    try:
        db.execute("CREATE TABLE t (a, b)")
        n = 50
        for i in range(n):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.flush_now()
        table = db.tables["t"]
        assert table.page_count() > db.pool.frames
        assert db.execute("SELECT * FROM t") == [[i, i] for i in range(n)]
    finally:
        close(session)


def test_mysql_select_rms_saturates_at_pool_size():
    """The Figure 4 mechanism: big scans through a small pool."""
    session, db, rms, trms = make_db(page_size=9, pool_frames=4)
    try:
        db.execute("CREATE TABLE t (a, b)")
        for i in range(60):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.flush_now()
        db.execute("SELECT * FROM t")
    finally:
        close(session)
    rms_size = [a.size for a in rms.db.activations if a.routine == "mysql_select"][0]
    trms_size = [a.size for a in trms.db.activations if a.routine == "mysql_select"][0]
    pool_cells = db.pool.frames * db.pool.page_size
    assert rms_size <= pool_cells
    assert trms_size > 2 * rms_size
    assert trms_size >= 60 * 2    # every row cell is (external) input


def test_pool_hit_does_not_refetch():
    session, db, _, _ = make_db(page_size=9, pool_frames=4)
    try:
        db.execute("CREATE TABLE t (a)")
        for i in range(3):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.flush_now()
        db.execute("SELECT * FROM t")
        reads_after_first = db.disk.reads
        db.execute("SELECT * FROM t")   # table fits in the pool
        assert db.disk.reads == reads_after_first
        assert db.pool.hits > 0
    finally:
        close(session)


def test_protocol_send_rows_and_eof():
    session, db, _, trms = make_db()
    try:
        db.execute("CREATE TABLE t (a, b)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.flush_now()
        protocol = db.new_protocol()
        rows = db.execute("SELECT * FROM t WHERE a < 3", protocol)
        assert len(rows) == 3
        assert protocol.rows_sent == 3
        assert protocol.eofs_sent == 1
        # rows flow to the sink, then one status packet
        assert protocol.sent[:6] == [0, 0, 1, 1, 2, 2]
        assert len(protocol.sent) == 6 + 4
    finally:
        close(session)
    eof = [a for a in trms.db.activations if a.routine == "send_eof"]
    assert len(eof) == 1
    assert eof[0].size > 0


def test_flush_applies_records_in_page_order():
    session, db, _, _ = make_db(ring_slots=16)
    try:
        db.execute("CREATE TABLE t (a)")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.flush_now()
        # one data record + one header record per row, whether drained by
        # flush_now or by ring-pressure self-flushes along the way
        assert db.change_buffer.records_flushed == 20
        assert db.execute("SELECT * FROM t") == [[i] for i in range(10)]
    finally:
        close(session)


def test_background_flusher_drains_under_load():
    session, db, _, trms = make_db(ring_slots=6)
    try:
        db.execute("CREATE TABLE t (a, b)")
        db.start_flusher()
        for i in range(30):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.stop_flusher()
        assert db.change_buffer.records_flushed == 60
        assert db.execute("SELECT * FROM t") == [[i, i] for i in range(30)]
    finally:
        close(session)
    flushes = [a for a in trms.db.activations if a.routine == "buf_flush_buffered_writes"]
    assert flushes
    # every flush activation's input came from the client threads
    for record in flushes:
        assert record.size > 0


def test_flush_now_rejected_while_flusher_runs():
    session, db, _, _ = make_db()
    try:
        db.start_flusher()
        with pytest.raises(RuntimeError):
            db.flush_now()
        db.stop_flusher()
    finally:
        close(session)


def test_full_ring_self_flushes_without_background_flusher():
    session, db, _, _ = make_db(ring_slots=2)
    try:
        db.execute("CREATE TABLE t (a)")
        for i in range(20):    # 40 records through a 2-slot ring
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.flush_now()
        assert db.execute("SELECT * FROM t") == [[i] for i in range(20)]
    finally:
        close(session)


def test_stopped_flusher_leaves_later_writes_intact():
    """``stop_flusher`` leaves no wake-up token behind, so the records
    written after it are each flushed once, in order.  Several trials,
    because the flusher's last drain races the stop."""
    for _ in range(8):
        session, db, _, _ = make_db(ring_slots=6)
        try:
            db.execute("CREATE TABLE t (a, b)")
            db.start_flusher()
            for i in range(12):
                db.execute(f"INSERT INTO t VALUES ({i}, {i})")
            db.stop_flusher()
            assert db.execute("SELECT * FROM t") == [[i, i] for i in range(12)]
            for i in range(12, 20):
                db.execute(f"INSERT INTO t VALUES ({i}, {i})")
            assert db.execute("SELECT * FROM t") == [[i, i] for i in range(20)]
            assert db.change_buffer.pending == 0
            assert db.change_buffer.records_flushed == 40
        finally:
            close(session)


def test_minislap_runs_mixed_load():
    trms = TrmsProfiler(keep_activations=True)
    session = TraceSession(tools=EventBus([trms]))
    with session:
        report = minislap(session, clients=3, queries_per_client=8, preload_rows=6)
    assert report.queries == 24
    assert report.rows_inserted > 0
    assert report.rows_received > 0
    assert report.records_flushed == 2 * (report.rows_inserted + 6)
    routines = {a.routine for a in trms.db.activations}
    assert {"mysql_select", "mysql_insert", "send_eof",
            "buf_flush_buffered_writes", "client_session"} <= routines


def test_concurrent_clients_share_tables_consistently():
    session = TraceSession()
    with session:
        db = Database(session)
        report = minislap(session, db, clients=4, queries_per_client=6,
                          insert_ratio=1.0, preload_rows=0)
        db2_rows = db.execute("SELECT * FROM load_test")
    assert len(db2_rows) == report.rows_inserted == 24


def test_update_with_where():
    session, db, _, _ = make_db()
    try:
        db.execute("CREATE TABLE t (a, b)")
        for i in range(8):
            db.execute(f"INSERT INTO t VALUES ({i}, 0)")
        db.execute("UPDATE t SET b = 99 WHERE a >= 5")
        db.flush_now()
        rows = db.execute("SELECT * FROM t")
        assert rows == [[i, 99 if i >= 5 else 0] for i in range(8)]
    finally:
        close(session)


def test_update_all_rows():
    session, db, _, _ = make_db()
    try:
        db.execute("CREATE TABLE t (a)")
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.execute("UPDATE t SET a = 1")
        db.flush_now()
        assert db.execute("SELECT * FROM t") == [[1]] * 5
    finally:
        close(session)


def test_update_unknown_column():
    from repro.minidb import SqlError

    session, db, _, _ = make_db()
    try:
        db.execute("CREATE TABLE t (a)")
        with pytest.raises(SqlError):
            db.execute("UPDATE t SET nope = 1")
    finally:
        close(session)


def test_update_feeds_the_flusher():
    session, db, _, trms = make_db(ring_slots=6)
    try:
        db.execute("CREATE TABLE t (a, b)")
        db.start_flusher()
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i}, 0)")
        db.execute("UPDATE t SET b = 7 WHERE a < 10")
        db.stop_flusher()
        # note: updates racing unflushed inserts see only committed rows;
        # stop_flusher drained everything, so re-run the update for the rest
        db.execute("UPDATE t SET b = 7 WHERE a < 10")
        db.flush_now()
        assert db.execute("SELECT * FROM t") == [[i, 7] for i in range(10)]
    finally:
        close(session)
    flushes = [a for a in trms.db.activations
               if a.routine == "buf_flush_buffered_writes"]
    assert flushes


class _SleepCounter:
    """Stands in for ``repro.minidb.bufferpool.time``: counts ``sleep``."""

    def __init__(self):
        self.calls = 0

    def sleep(self, seconds):
        self.calls += 1


def _count_flusher_yields(monkeypatch):
    from repro.minidb import bufferpool

    counter = _SleepCounter()
    monkeypatch.setattr(bufferpool, "time", counter)
    return counter


def test_synchronous_flush_does_not_yield(monkeypatch):
    yields = _count_flusher_yields(monkeypatch)
    session, db, _, _ = make_db(ring_slots=4)
    try:
        db.execute("CREATE TABLE t (a, b)")
        for i in range(10):     # one flush_now per insert, as the store does
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
            db.flush_now()
        for i in range(10, 13):     # 6 records through 4 slots: a self-flush
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        assert db.flush_now() > 0
        assert db.change_buffer.records_flushed == 26
        assert db.execute("SELECT * FROM t") == [[i, i] for i in range(13)]
    finally:
        close(session)
    assert yields.calls == 0


def test_drain_with_flusher_active_yields_per_record(monkeypatch):
    yields = _count_flusher_yields(monkeypatch)
    session, db, _, _ = make_db(ring_slots=6)
    try:
        db.execute("CREATE TABLE t (a, b)")
        db.start_flusher()
        for i in range(12):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.stop_flusher()
        # one yield per record the background flusher drained
        assert yields.calls == db.change_buffer.records_flushed == 24
    finally:
        close(session)
