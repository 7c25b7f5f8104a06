"""The traced minidb workload is pinned: buffer-pool internals may change
only in ways the profiler cannot see.

One deterministic, single-threaded session runs a table larger than the
buffer pool (so scans evict pages) through index lookups, scans and an
``UPDATE``.  The SHA-256 of its v2 trace and of its TRMS and RMS dumps
must not move: every tracked cell read, kernel fill and eviction stays
where it was.
"""

import hashlib
import io

from repro.core import EventBus, RmsProfiler, TrmsProfiler
from repro.farm import BinaryTraceWriter, save_profile
from repro.minidb import Database
from repro.pytrace import TraceSession

#: SHA-256 of the workload's v2 trace and of its TRMS and RMS dumps
PINNED = {
    "trace": "33bce07880ddd28f5f0dc0b7f5be40299ffa67712c6525ae0a3933004cee6054",
    "trms": "28bc25cc043511fc4cf1ab6af541e4b4fd8252d1ebe843ea55307124b8b67073",
    "rms": "a828fa46356c9e909f13c93cd4d9e424b5459fdbfce51d19cc2e45bc985fd2ab",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump(db) -> bytes:
    stream = io.StringIO()
    save_profile(db, stream)
    return stream.getvalue().encode("utf-8")


def record_workload():
    """Run the workload under a trace writer and both profilers."""
    trace = io.BytesIO()
    writer = BinaryTraceWriter(trace, chunk_events=512)
    trms, rms = TrmsProfiler(), RmsProfiler()
    with TraceSession(tools=EventBus([writer, trms, rms])) as session:
        db = Database(session, page_size=9, pool_frames=3)
        db.execute("CREATE TABLE t (k, v)")
        for row in range(48):
            db.execute(f"INSERT INTO t VALUES ({row % 6}, {row})")
        db.execute("CREATE INDEX ON t (k)")
        for key in range(6):
            assert len(db.execute(f"SELECT * FROM t WHERE k = {key}")) == 8
        assert len(db.execute("SELECT * FROM t WHERE v < 20")) == 20
        db.execute("UPDATE t SET v = 0 WHERE k = 3")
        assert len(db.execute("SELECT * FROM t WHERE v = 0")) == 9
        assert db.execute("SELECT * FROM t WHERE k = 3") == [
            [3, 0] for _ in range(8)]
    writer.close()
    return db, {"trace": _digest(trace.getvalue()),
                "trms": _digest(_dump(trms.db)),
                "rms": _digest(_dump(rms.db))}


def test_traced_minidb_workload_is_pinned():
    db, digests = record_workload()
    assert db.tables["t"].page_count() > db.pool.frames   # scans evict
    assert digests == PINNED
