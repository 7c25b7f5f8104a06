"""Shared helpers: live recordings, synthetic traces, batch references.

The streaming suite's invariant is *byte identity*: however chunks
arrive — one flush at a time, in bursts, or all at once — the final
streamed dump must equal ``save_profile`` over the batch flat kernel.
These helpers produce both sides of that comparison.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from repro.core import Event, EventKind, ProfileDatabase, replay
from repro.core.flatkernel import analyze_events_flat
from repro.farm import BinaryTraceWriter, live_names_path, read_binary_trace, save_profile
from repro.streaming import MANIFEST_NAME, STREAM_SCHEMA
from repro.workloads import benchmark

SIZES = (4, 8, 16, 32, 64, 128)

_EMPTY_DUMP = "repro-profile 1\nF lower_bound=0\nG 0 0\n"
_MANIFEST = {"schema": STREAM_SCHEMA, "stream_id": "s1", "seq": 1}

#: checkpoint directories every reader must reject with a typed error:
#: case -> (CURRENT.json text, {file name relative to the directory: text})
MALFORMED_CHECKPOINTS = {
    "not-json": ("{", {}),
    "not-an-object": ("[]", {}),
    "wrong-schema": (json.dumps({**_MANIFEST, "schema": "bogus/9", "file": "c.profile"}),
                     {"c.profile": _EMPTY_DUMP}),
    "no-file": (json.dumps(_MANIFEST), {}),
    "file-outside-dir": (json.dumps({**_MANIFEST, "file": "../live.profile"}),
                         {"../live.profile": _EMPTY_DUMP}),
    "file-is-parent-dir": (json.dumps({**_MANIFEST, "file": ".."}), {}),
    "missing-file": (json.dumps({**_MANIFEST, "file": "c.profile"}), {}),
    # named like a file of the retired incremental checkpoint writer;
    # any first line other than the dump magic is rejected
    "not-a-dump": (json.dumps({**_MANIFEST, "file": "checkpoint-000002.delta"}),
                   {"checkpoint-000002.delta": "B 1\nF lower_bound=0\nG 0 0\n"}),
}


def write_checkpoint_dir(directory, case):
    """Lay out the :data:`MALFORMED_CHECKPOINTS` case ``case`` in ``directory``."""
    manifest, files = MALFORMED_CHECKPOINTS[case]
    os.makedirs(directory)
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as stream:
        stream.write(manifest)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as stream:
            stream.write(text)


@contextlib.contextmanager
def live_writer(trace_path, chunk_events=32, durable=False):
    """A v2 writer with the names sidecar attached, closed on exit."""
    with open(trace_path, "wb") as stream, \
            open(live_names_path(trace_path), "w", encoding="utf-8") as names:
        writer = BinaryTraceWriter(stream, chunk_events=chunk_events,
                                   durable=durable, names_stream=names)
        try:
            yield writer
        finally:
            if not writer.closed:
                writer.close()


def benchmark_events(name, threads=2, scale=0.3):
    """In-memory events of one benchmark run, via a v2 round trip."""
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, chunk_events=4096)
    benchmark(name).run(tools=writer, threads=threads, scale=scale)
    writer.close()
    buffer.seek(0)
    return read_binary_trace(buffer)


def batch_dump_bytes(events, context_sensitive=False):
    """The ground truth: batch flat-kernel dump of the whole trace."""
    db = ProfileDatabase()
    analyze_events_flat(events, db, context_sensitive=context_sensitive)
    out = io.StringIO()
    save_profile(db, out)
    return out.getvalue().encode("utf-8")


def dump_bytes(db):
    out = io.StringIO()
    save_profile(db, out)
    return out.getvalue().encode("utf-8")


def synthetic_events(routines, sizes=SIZES, thread=1):
    """Events where each routine reads ``size`` fresh cells, costs
    ``cost_fn(size)`` units, and returns — so the fitted growth class of
    each routine is exactly the shape of its cost function."""
    events = []
    fresh = 1_000_000
    for size in sizes:
        for name, cost_fn in routines.items():
            events.append(Event(EventKind.CALL, thread, name))
            for _ in range(size):
                events.append(Event(EventKind.READ, thread, fresh))
                fresh += 1
            events.append(Event(EventKind.COST, thread, int(cost_fn(size))))
            events.append(Event(EventKind.RETURN, thread, 0))
    return events


def replay_in_slices(events, writer, cuts, on_cut):
    """Replay ``events`` through ``writer``, calling ``on_cut()`` at
    every index in ``cuts`` (a sorted list of cut points)."""
    last = 0
    for cut in cuts:
        cut = max(last, min(cut, len(events)))
        replay(events[last:cut], writer)
        last = cut
        on_cut()
    replay(events[last:], writer)
