"""Ingestion: turning pipeline artefacts into observatory run records.

Four kinds of file feed the history store, each reduced to the same
:class:`~repro.observatory.store.RunRecord` shape:

* ``repro-profile 1`` dumps (``profile --dump``, ``analyze --dump``,
  ``merge``) — the rich case: every merged routine's worst-case plot
  is fitted with
  :func:`repro.curvefit.selection.select_model` into a curve row, the
  top-K routines by total cost also keep their raw plot points;
* v2 binary traces — analysed first (``analyze_file``, the farm
  engine's one pass), then fitted like a dump;
* ``telemetry.jsonl`` logs — span totals and counters of one pipeline
  invocation;
* ``repro-bench/1`` envelopes from ``benchmarks/results/`` — scalar
  metrics flattened from the payload (gate ratios included), keyed by
  the envelope's own run identity.

**One rule tells them apart, by their bytes alone**, checked in order:
bytes that start with ``RPTRACE2`` are a v2 trace; a first line
(universal newlines) of ``repro-profile 1`` is a dump; a first line
that is a JSON object whose ``type`` is a telemetry record type is a
telemetry log; bytes whose first non-blank byte is ``{`` are an
envelope; anything else is refused with ``ValueError``.  A file's name
never decides its kind.  Only directories go by path: a streaming
checkpoint directory (or its ``CURRENT.json``) and a telemetry run
directory (its ``telemetry.jsonl`` is read as a log).

A file (:func:`record_from_path`, :func:`ingest_path`), a stdin pipe
and a wire upload (:func:`record_from_bytes`) go through that rule and
one builder, so the same bytes build the same record, or fail with
the same error, whichever way they come in.  The builder parses text
in memory, decoded as a file read decodes it (strict UTF-8, universal
newlines).  A v2 trace on disk is analysed where it lies and digested
in blocks, never read whole; one that arrives as bytes is written to a
scratch file first, because ``analyze_file`` takes a path.

Ingestion is idempotent by run id: the default run id of an artefact
is a digest of its bytes, so re-ingesting the same artefact is always
a no-op, from a file or from bytes.  A file's default timestamp is its
mtime (:func:`mtime_iso`); bytes have none, and ``-`` stands in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from datetime import datetime, timezone
from typing import IO, Dict, Iterator, List, NamedTuple, Optional

from ..core.profile_data import ProfileDatabase
from ..curvefit.fitting import fit_power_law
from ..curvefit.selection import select_model
from .store import CurveRecord, ObservatoryStore, RunRecord, _is_late, check_record

__all__ = [
    "IngestResult",
    "MIN_FIT_POINTS",
    "mtime_iso",
    "record_from_profile_db",
    "record_from_telemetry",
    "record_from_envelope",
    "record_from_checkpoint",
    "record_from_path",
    "record_from_bytes",
    "record_from_stream_dump",
    "ingest_record",
    "ingest_path",
]

#: a growth class needs at least this many distinct plot points; below
#: it every affine fit degenerates (two points fit every basis exactly)
MIN_FIT_POINTS = 3

#: routines (by total cost) whose raw plot points are stored per run
DEFAULT_TOP_K = 10


class IngestResult(NamedTuple):
    """Outcome of ingesting one source."""

    run_id: str
    source: str          #: profile | trace | stream | telemetry | bench
    ingested: bool       #: False = run_id already present (idempotent skip)
    detail: str


def mtime_iso(path: str) -> str:
    """A file's mtime as ISO-8601: the timestamp offline ingestion gives
    a file ingested without one ("" when the file cannot be stat'ed).

    ``ServiceClient.put_file`` sends the same with an upload, which
    keeps server-side ingestion byte-identical to ``repro observe
    ingest`` of the same file.
    """
    try:
        mtime = os.path.getmtime(path)
    except OSError:
        return ""
    return datetime.fromtimestamp(mtime, tz=timezone.utc).isoformat()


# -- builders ----------------------------------------------------------------


def record_from_profile_db(
    db: ProfileDatabase,
    run_id: str,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
    source: str = "profile",
) -> RunRecord:
    """Fit every merged routine of ``db`` into curve rows.

    Routines with fewer than :data:`MIN_FIT_POINTS` distinct sizes get
    no curve row (the drift detector treats them as added/removed, the
    same contract as :func:`repro.reporting.diffing.diff_databases`).
    """
    merged = db.merged()
    curves: List[CurveRecord] = []
    events = 0
    for routine in sorted(merged):
        profile = merged[routine]
        events += profile.cost_sum
        points = profile.worst_case_points()
        if len(points) < MIN_FIT_POINTS:
            continue
        try:
            selection = select_model(points)
        except OverflowError:       # a dump's integers are unbounded
            raise ValueError(f"routine {routine!r}: a size or cost is too large "
                             "to fit") from None
        try:
            exponent: Optional[float] = fit_power_law(points).exponent
        except ValueError:
            exponent = None
        curves.append(CurveRecord(
            routine=routine,
            model=selection.name,
            a=selection.best.a,
            b=selection.best.b,
            r2=selection.best.r2,
            points=len(points),
            max_size=int(points[-1][0]),
            exponent=exponent,
        ))
    top = sorted(merged.values(), key=lambda p: (-p.cost_sum, p.routine))
    raw_points = {
        profile.routine: [(int(size), int(cost))
                          for size, cost in profile.worst_case_points()]
        for profile in top[:DEFAULT_TOP_K]
    }
    return RunRecord(
        run_id=run_id,
        git_sha=git_sha,
        timestamp=timestamp,
        scale=scale,
        source=source,
        events=events,
        metrics={},
        curves=curves,
        points=raw_points,
    )


def record_from_telemetry(
    run,
    run_id: str,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
) -> RunRecord:
    """Span totals and counters of one ``TelemetryRun``."""
    metrics: Dict[str, float] = {}
    for name, totals in run.span_totals().items():
        metrics[f"span.{name}.seconds"] = float(totals.get("wall", 0.0))
        metrics[f"span.{name}.calls"] = float(totals.get("calls", 0))
    for entry in run.metrics:
        if entry.get("kind") != "counter":
            continue
        value = entry.get("value")
        if isinstance(value, (int, float)):
            key = f"counter.{entry.get('name', 'counter')}"
            metrics[key] = metrics.get(key, 0.0) + float(value)
    events = metrics.get("counter.record.events", 0.0)
    return RunRecord(
        run_id=run_id,
        git_sha=git_sha,
        timestamp=timestamp,
        scale=scale,
        source="telemetry",
        # a non-finite count is left to ``check_record``, which refuses it
        events=int(events) if math.isfinite(events) else 0,
        metrics=metrics,
        curves=[],
        points={},
    )


def _flatten_scalars(payload, prefix: str, into: Dict[str, float]) -> None:
    if isinstance(payload, dict):
        for key, value in payload.items():
            _flatten_scalars(value, f"{prefix}.{key}" if prefix else str(key), into)
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        try:
            into[prefix] = float(payload)
        except OverflowError:       # an integer literal beyond every float
            raise ValueError(f"metric {prefix!r} is too large to store") from None


def record_from_envelope(envelope: Dict) -> RunRecord:
    """A ``repro-bench/1`` envelope, keyed by its own run identity.

    Raises ``ValueError`` on a ``scale`` that is no number."""
    metrics: Dict[str, float] = {}
    _flatten_scalars(envelope.get("metrics") or {}, "", metrics)
    bench = envelope.get("bench")
    source = f"bench:{bench}" if bench else "bench"
    scale = envelope.get("scale") or 0.0
    try:
        scale = float(scale)
    except (TypeError, OverflowError):
        raise ValueError(f"envelope scale {scale!r:.40} is no float") from None
    return RunRecord(
        run_id=str(envelope.get("run_id") or ""),
        git_sha=str(envelope.get("git_sha") or ""),
        timestamp=str(envelope.get("timestamp") or ""),
        scale=scale,
        source=source,
        events=0,
        metrics=metrics,
        curves=[],
        points={},
    )


def record_from_checkpoint(
    manifest: Dict,
    db: ProfileDatabase,
    run_id: Optional[str] = None,
    git_sha: str = "",
    scale: float = 0.0,
) -> RunRecord:
    """A streaming checkpoint as a *partial* run record.

    The run id is stable across checkpoints of one stream
    (``stream-<stream_id>`` by default), so successive ingests
    supersede each other instead of piling up as distinct runs — the
    store keeps exactly one, newest, version of the in-flight run and
    drift detection sees it mid-flight.  The streaming health numbers
    travel as run metrics (``streaming.*``).
    """
    stream_id = str(manifest.get("stream_id") or manifest.get("id") or "")
    if not stream_id:
        raise ValueError("checkpoint manifest carries no stream id")
    record = record_from_profile_db(
        db,
        run_id=run_id or f"stream-{stream_id}",
        git_sha=git_sha,
        timestamp=str(manifest.get("timestamp") or ""),
        scale=scale,
        source="stream",
    )
    metrics = dict(record.metrics)
    metrics.update({
        "streaming.seq": float(manifest.get("seq") or 0),
        "streaming.events_analyzed": float(manifest.get("events_analyzed") or 0),
        "streaming.events_behind": float(manifest.get("events_behind") or 0),
        "streaming.checkpoint_lag_ms": float(manifest.get("lag_ms") or 0.0),
        "streaming.events_per_s": float(manifest.get("events_per_s") or 0.0),
        "streaming.closed": 1.0 if manifest.get("closed") else 0.0,
    })
    return record._replace(metrics=metrics)


def record_from_stream_dump(
    data: bytes,
    stream_meta: Dict,
    run_id: Optional[str] = None,
    git_sha: str = "",
    scale: float = 0.0,
) -> RunRecord:
    """The partial run record of a checkpoint dump shipped over the wire:
    the full ``repro-profile 1`` bytes, decoded as :func:`record_from_bytes`
    decodes a dump, plus the manifest fields as ``stream_meta`` (see
    :func:`record_from_checkpoint`).  A record
    :func:`~repro.observatory.store.check_record` refuses raises
    ``ValueError``."""
    return check_record(record_from_checkpoint(stream_meta, _load_dump(data), run_id=run_id,
                                               git_sha=git_sha, scale=scale))


def ingest_record(store: ObservatoryStore, record: RunRecord) -> IngestResult:
    """Add one built record to ``store``.

    A streaming checkpoint's record (source ``stream``) supersedes the
    stored version of its run; any other record is added once per run id.
    """
    if record.source != "stream":
        ingested = store.add_run(record)
        detail = (f"{len(record.curves)} curve(s), "
                  f"{sum(len(p) for p in record.points.values())} point(s)"
                  if record.curves or record.points
                  else f"{len(record.metrics)} metric(s)")
        return IngestResult(record.run_id, record.source, ingested, detail)
    ingested = store.add_run(record, supersede=True)
    seq = int(record.metrics["streaming.seq"])
    if ingested:
        state = "final" if record.metrics["streaming.closed"] else "partial"
        detail = f"checkpoint #{seq} ({state}), {len(record.curves)} curve(s)"
        return IngestResult(record.run_id, "stream", ingested, detail)
    stored = store.record_for(record.run_id)
    detail = f"checkpoint #{seq} already known"
    if _is_late(stored, record):
        state = "final" if stored.metrics.get("streaming.closed") else "partial"
        detail = (f"checkpoint #{seq} is late: stored checkpoint "
                  f"#{stored.metrics['streaming.seq']:.0f} ({state}) kept; not applied")
    return IngestResult(record.run_id, "stream", ingested, detail)


def ingest_path(
    store: ObservatoryStore,
    path: str,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
) -> IngestResult:
    """Ingest whatever :func:`record_from_path` reads at ``path``.

    A streaming checkpoint supersedes its run's stored version.  Raises
    ``ValueError`` on anything else, ``OSError`` on unreadable paths.
    """
    return ingest_record(store, record_from_path(
        path, run_id=run_id, git_sha=git_sha, timestamp=timestamp, scale=scale))


# -- the content rule and the one builder --------------------------------------

#: the record types of a ``telemetry.jsonl`` log
_TELEMETRY_TYPES = ("meta", "span", "heartbeat", "metrics", "event")

_UNKNOWN_KIND = ("not a profile dump, v2 trace, telemetry run, bench envelope "
                 "or checkpoint directory")

#: JSON's whitespace, which may come before an envelope's ``{``
_JSON_BLANK = b" \t\r\n"


def _first_line(data: bytes) -> str:
    """The first line of ``data`` as a text-mode ``readline`` of a file
    holding it reads it (universal newlines, undecodable bytes
    replaced), without its line end."""
    end = len(data)
    for newline in (b"\n", b"\r"):
        found = data.find(newline, 0, end)
        if found >= 0:
            end = found
    return data[:end].decode("utf-8", errors="replace")


def _artefact_kind(data: bytes) -> str:
    """The one rule: ``trace``, ``profile``, ``telemetry`` or ``bench``
    by ``data`` alone, in that order of checks, or "" for none."""
    from ..farm import BINARY_MAGIC, PROFILE_MAGIC

    if data.startswith(BINARY_MAGIC):
        return "trace"
    first = _first_line(data)
    if first == PROFILE_MAGIC:
        return "profile"
    try:
        record = json.loads(first)
    except (ValueError, RecursionError):
        record = None
    if isinstance(record, dict) and record.get("type") in _TELEMETRY_TYPES:
        return "telemetry"
    if data.lstrip(_JSON_BLANK).startswith(b"{"):
        return "bench"
    return ""


def _text(data: bytes) -> IO[str]:
    """``data`` as ``open(path, "r", encoding="utf-8")`` reads a file
    holding it: strict UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def _load_dump(data: bytes) -> ProfileDatabase:
    # looked up per call: perfbench patches ``repro.farm.load_profile``
    from .. import farm

    return farm.load_profile(_text(data))


def _digest(data: bytes) -> str:
    """The default run id of an artefact of bytes ``data``."""
    return hashlib.sha256(data).hexdigest()[:32]


def _file_digest(path: str) -> str:
    """:func:`_digest` of the file at ``path``, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()[:32]


@contextlib.contextmanager
def _trace_file(data: bytes, path: Optional[str]) -> Iterator[str]:
    """``path``, or a scratch file holding ``data`` (removed on exit):
    ``analyze_file`` takes a path."""
    if path is not None:
        yield path
        return
    import tempfile

    handle, scratch = tempfile.mkstemp(prefix="repro-ingest-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        yield scratch
    finally:
        os.unlink(scratch)


def _build(data: bytes, kind: str, path: Optional[str], name: str, run_id: Optional[str],
           git_sha: str, timestamp: str, scale: float) -> RunRecord:
    """The one builder: the record of an artefact of ``kind`` ("" for the
    kind the rule tells from ``data``).  ``data`` is all of its bytes,
    but a v2 trace at ``path`` (None for bytes in memory) is read
    there; ``name`` stands for the artefact in error messages."""
    kind = kind or _artefact_kind(data)
    if kind == "trace":
        # looked up per call: perfbench patches ``repro.farm.analyze_file``
        from .. import farm

        with _trace_file(data, path) as trace:
            db = farm.analyze_file(trace).db
            digest = _file_digest(trace)
        record = record_from_profile_db(db, run_id=run_id or digest, git_sha=git_sha,
                                        timestamp=timestamp, scale=scale, source="trace")
    elif kind == "profile":
        record = record_from_profile_db(_load_dump(data), run_id=run_id or _digest(data),
                                        git_sha=git_sha, timestamp=timestamp, scale=scale)
    elif kind == "telemetry":
        from ..telemetry import TelemetryRun, parse_records

        run = TelemetryRun(list(parse_records(_text(data))))
        record = record_from_telemetry(run, run_id=run_id or _digest(data), git_sha=git_sha,
                                       timestamp=timestamp, scale=scale)
    elif kind == "bench":
        try:
            envelope = json.load(_text(data))
            if envelope.get("schema") != "repro-bench/1":
                raise ValueError(f"{name}: not a repro-bench/1 envelope")
            record = record_from_envelope(envelope)
        except RecursionError:
            raise ValueError(f"{name}: envelope nested too deeply") from None
        # ``run_id`` and ``git_sha`` override the envelope's own; its
        # timestamp is its own
        record = record._replace(run_id=run_id or record.run_id or _digest(data),
                                 git_sha=git_sha or record.git_sha)
    else:
        raise ValueError(f"{name}: {_UNKNOWN_KIND}")
    return check_record(record)


def record_from_path(
    path: str,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
) -> RunRecord:
    """Build the run record of ``path``, with no store involved.

    A file builds what :func:`record_from_bytes` builds from its bytes,
    except that ``timestamp`` defaults to its mtime and a v2 trace is
    analysed in place.  A streaming checkpoint directory (holding
    ``CURRENT.json``, or that file itself; ``timestamp`` is the
    manifest's) builds its newest checkpoint's partial run; any other
    directory is a telemetry run, read from its ``telemetry.jsonl``.
    Raises ``ValueError`` on anything else or on a record that
    :func:`~repro.observatory.store.check_record` refuses (so a caller
    can refuse it before it opens, and so creates, a store), and
    ``OSError`` on unreadable paths.
    """
    from ..farm import BINARY_MAGIC
    from ..streaming.snapshot import MANIFEST_NAME, load_checkpoint
    from ..telemetry import TELEMETRY_FILENAME

    if os.path.basename(path) == MANIFEST_NAME and os.path.isfile(path):
        path = os.path.dirname(path) or "."
    kind = ""
    if os.path.isdir(path):
        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            manifest, db = load_checkpoint(path)
            return check_record(record_from_checkpoint(manifest, db, run_id=run_id,
                                                       git_sha=git_sha, scale=scale))
        path, kind = os.path.join(path, TELEMETRY_FILENAME), "telemetry"
    with open(path, "rb") as stream:
        # the magic is all the rule needs to tell a v2 trace, which is
        # analysed where it lies and never read whole
        data = stream.read(len(BINARY_MAGIC))
        if kind or _artefact_kind(data) != "trace":
            data += stream.read()
    return _build(data, kind, path, path, run_id, git_sha, timestamp or mtime_iso(path), scale)


def record_from_bytes(
    data: bytes,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
    name: str = "<bytes>",
) -> RunRecord:
    """The run record of an in-memory artefact, with no store involved.

    ``data`` builds the record :func:`record_from_path` builds from a
    file holding it, whatever the file's name, or raises the same
    exception; ``name`` stands for the artefact in error messages where
    the path would.  The default run id is the digest of ``data`` —
    identical to what ingesting the same bytes from a file would
    assign, so online (wire/stdin) and offline (path) ingestion of one
    artefact are idempotent against each other.  No timestamp is
    inferred (bytes have no mtime; ``-`` stands in); pass the
    artefact's own ``timestamp`` when ordering matters.
    """
    return _build(data, "", None, name, run_id, git_sha, timestamp or "-", scale)
