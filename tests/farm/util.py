"""Shared helpers for farm tests: v2 recording and comparable snapshots."""

from __future__ import annotations

import struct

from repro.core import EventKind, TrmsProfiler, replay
from repro.core.tracefile import escape_name
from repro.farm import BinaryTraceWriter, read_binary_trace
from repro.workloads import benchmark


def record_benchmark_v2(name, path, threads=4, scale=0.5, chunk_events=256):
    """Record one benchmark execution straight to a v2 file; return events."""
    with open(path, "wb") as stream:
        writer = BinaryTraceWriter(stream, chunk_events=chunk_events)
        benchmark(name).run(tools=writer, threads=threads, scale=scale)
        writer.close()
    with open(path, "rb") as stream:
        return read_binary_trace(stream)


def reference_v2_bytes(events, chunk_events):
    """The v2 trace and ``.names`` sidecar text of ``events``, record by record.

    The oracle of :class:`BinaryTraceWriter`'s bytes, written the plain
    way: one ``<Bqq`` pack per event, and a per-thread count dict and a
    write count kept per chunk.  Names reach the sidecar when the chunk
    that first uses them is sealed.
    """
    record = struct.Struct("<Bqq")
    chunk_fixed = struct.Struct("<IIQIH")
    thread_count = struct.Struct("<qI")
    names, name_ids, chunks = [], {}, []
    out = bytearray(b"RPTRACE2")
    sidecar = []

    def seal(payload, first_pos, count, writes, threads):
        sidecar.extend(escape_name(name) + "\n" for name in names[len(sidecar):])
        header = chunk_fixed.pack(len(payload), count, first_pos, writes, len(threads))
        table = b"".join(thread_count.pack(thread, count)
                         for thread, count in sorted(threads.items()))
        chunks.append((len(out), header + table))
        out.extend(header + table + payload)

    payload, first_pos, writes, threads = bytearray(), 0, 0, {}
    for position, event in enumerate(events):
        thread, arg = event.thread, event.arg
        if event.kind == EventKind.CALL:
            arg = name_ids.setdefault(event.arg, len(names))
            if arg == len(names):
                names.append(event.arg)
        elif event.kind == EventKind.RETURN:
            arg = 0
        elif event.kind == EventKind.THREAD_SWITCH:
            thread = arg    # replay passes only the new thread id
        payload += record.pack(event.kind, thread, arg)
        threads[thread] = threads.get(thread, 0) + 1
        writes += event.kind in (EventKind.WRITE, EventKind.KERNEL_WRITE)
        if len(payload) == chunk_events * record.size:
            seal(payload, first_pos, chunk_events, writes, threads)
            payload, first_pos, writes, threads = bytearray(), position + 1, 0, {}
    if payload:
        seal(payload, first_pos, len(payload) // record.size, writes, threads)

    footer_offset = len(out)
    out += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += struct.pack("<I", len(chunks))
    for offset, header in chunks:
        out += struct.pack("<Q", offset) + header
    out += struct.pack("<QQ8s", footer_offset, len(events), b"RPT2END\0")
    return bytes(out), "".join(sidecar)


def online_db(events, **kwargs):
    """The ground truth: the online TRMS profiler over the same events."""
    profiler = TrmsProfiler(keep_activations=True, **kwargs)
    replay(events, profiler)
    return profiler.db


def comparable(db):
    """Order-insensitive, exact snapshot of a profile database."""
    profiles = {}
    for profile in db:
        points = {
            size: (stats.calls, stats.cost_min, stats.cost_max,
                   stats.cost_sum, stats.cost_sumsq)
            for size, stats in profile.points.items()
        }
        profiles[(profile.routine, profile.thread)] = (
            points, profile.calls, profile.size_sum, profile.cost_sum,
            profile.induced_thread_sum, profile.induced_external_sum,
        )
    return profiles, db.total_induced(), sorted(db.activations)
