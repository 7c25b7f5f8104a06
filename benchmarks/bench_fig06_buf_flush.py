"""Figure 6: curve fitting on ``buf_flush_buffered_writes``.

Paper: the trms plot of MySQL's flush routine reveals a *super-linear*
running-time trend (confirmed by standard curve fitting), which the rms
plot misses, only suggesting linear growth.

Mechanism reproduced here: the flusher drains however many change
records client threads have accumulated — its true input (trms) is the
batch, thread-induced, unbounded; its rms is pinned near the fixed ring
it drains through.  The flush coalesces writes with an insertion sort
over the batch, so cost grows quadratically in the batch size.

Shape asserted:

* the trms cost plot is super-linear (power-law exponent well above 1,
  and the model family prefers a super-linear class);
* the rms axis is capped by the ring (its spread is bounded by the ring
  cells) even as batches grow far beyond it.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from unittest import mock

from repro.core import EventBus, RmsProfiler, TrmsProfiler
from repro.curvefit import fit_power_law, select_model
from repro.minidb import Database, bufferpool
from repro.pytrace import TraceSession, TracedThread
from repro.reporting import scatter, table

from conftest import run_once, save_result

RING_SLOTS = 6
BATCH_TARGETS = [2, 4, 8, 16, 24, 32, 48]
#: seconds a writer may take to finish once the drain has ended
WRITER_JOIN_S = 30.0


def io_wait_for(writer, change_buffer):
    """The flusher's per-record I/O wait, made deterministic.

    ``buf_flush_buffered_writes`` yields once per drained record while a
    flusher is active, so clients can refill the ring meanwhile.  A bare
    yield gives no ordering, and the drain may find the ring empty
    before the writer is done (the batch then splits, and the writer
    blocks on a full ring that nobody drains).  This wait lasts until
    the writer has refilled the ring or has finished.
    """

    def sleep(_seconds):
        while writer.is_alive() and change_buffer.pending < change_buffer.slots:
            time.sleep(0.0001)

    return SimpleNamespace(sleep=sleep)


def flush_batches():
    """Generate flush activations with controlled batch sizes.

    For each target batch size a writer thread inserts exactly that many
    rows while this thread plays the background flusher: one flush
    activation drains them all, its per-record I/O wait lasting until
    the writer has refilled the ring (:func:`io_wait_for`) — a
    deterministic version of the batching that arises under concurrent
    load.
    """
    rms = RmsProfiler(keep_activations=True)
    trms = TrmsProfiler(keep_activations=True)
    session = TraceSession(tools=EventBus([rms, trms]))
    with session:
        db = Database(session, page_size=9, pool_frames=4,
                      ring_slots=RING_SLOTS, record_width=4)
        db.execute("CREATE TABLE t (a, b)")
        change_buffer = db.change_buffer
        row = 0
        for target in BATCH_TARGETS:
            # a writer thread produces `target` records; whenever the
            # ring fills it blocks until the drainer frees slots
            def produce(count, start):
                for index in range(start, start + count):
                    db.execute(f"INSERT INTO t VALUES ({index}, {index})")

            records = target  # each INSERT makes 2 records (data + header)
            change_buffer.flusher_active = True
            writer = TracedThread(session, produce, args=(records, row))
            writer.start()
            row += records
            # one flush activation drains the whole accumulated batch
            # (including what the writer appends while we drain)
            change_buffer.used.acquire()
            with mock.patch.object(bufferpool, "time",
                                   io_wait_for(writer, change_buffer)):
                change_buffer.buf_flush_buffered_writes()
            writer.join(WRITER_JOIN_S)
            assert not writer.is_alive(), "the drain ended before the writer"
            change_buffer.flusher_active = False
            db.flush_now()   # clear any leftovers outside the measurement
    rms_records = [a for a in rms.db.activations
                   if a.routine == "buf_flush_buffered_writes"]
    trms_records = [a for a in trms.db.activations
                    if a.routine == "buf_flush_buffered_writes"]
    return rms_records, trms_records


def test_fig06_buf_flush(benchmark):
    rms_records, trms_records = run_once(benchmark, flush_batches)

    # keep the measured flushes (one per target, the largest ones)
    pairs = sorted(zip(rms_records, trms_records), key=lambda p: p[1].size)
    rms_points = [(r.size, r.cost) for r, _ in pairs]
    trms_points = [(t.size, t.cost) for _, t in pairs]

    print()
    print(table(
        ["rms", "trms", "cost", "induced-thread"],
        [[r.size, t.size, t.cost, t.induced_thread] for r, t in pairs],
        title="Figure 6 — buf_flush_buffered_writes activations",
    ))
    print(scatter(rms_points, title="Figure 6a — cost vs rms (capped axis)",
                  xlabel="rms", ylabel="cost"))
    print(scatter(trms_points, title="Figure 6b — cost vs trms (super-linear)",
                  xlabel="trms", ylabel="cost"))

    big = [p for p in trms_points if p[0] > 0]
    fit = fit_power_law(big)
    selection = select_model(big)
    print(f"trms power-law exponent: {fit.exponent:.2f}; "
          f"model selection: {selection.name}")
    save_result("fig06_buf_flush", {
        "rms_points": rms_points,
        "trms_points": trms_points,
        "exponent": fit.exponent,
        "selected_model": selection.name,
    })
    assert fit.exponent > 1.15, fit
    assert selection.name not in ("O(1)", "O(log n)", "O(sqrt n)", "O(n)"), selection.name

    # the rms axis is capped by the fixed ring footprint
    ring_cells = RING_SLOTS * (3 + 4) + 8
    assert max(p[0] for p in rms_points) <= ring_cells
    assert max(p[0] for p in trms_points) > 1.5 * max(p[0] for p in rms_points)
