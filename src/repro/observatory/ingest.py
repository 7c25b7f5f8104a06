"""Ingestion: turning pipeline artefacts into observatory run records.

Three sources feed the history store, each reduced to the same
:class:`~repro.observatory.store.RunRecord` shape:

* ``repro-profile 1`` dumps (``profile --dump``, ``analyze --dump``,
  ``merge``) — the rich case: every merged routine's worst-case plot
  is fitted with
  :func:`repro.curvefit.selection.select_model` into a curve row, the
  top-K routines by total cost also keep their raw plot points;
* ``telemetry.jsonl`` runs — span totals and counters of one pipeline
  invocation;
* ``repro-bench/1`` envelopes from ``benchmarks/results/`` — scalar
  metrics flattened from the payload (gate ratios included), keyed by
  the envelope's own run identity.

:func:`ingest_path` sniffs the file kind; the ``record_from_*``
builders are the library API (``tools/bench_gate.py`` and tests use
them directly).  Ingestion is idempotent by run id: the default run id
of a file is a digest of its bytes, so re-ingesting the same artefact
is always a no-op.

Two extensions serve the profiling service (:mod:`repro.service`):
v2 **binary traces** ingest too — the farm engine analyses them
server-side (``analyze_file``) and the resulting profile is fitted
like any dump — and :func:`record_from_bytes` builds the record of an
in-memory artefact (a stdin pipe, a wire upload) with the sniffing of
the on-disk path, on the file name :func:`artefact_suffix` picks.  It
parses dumps and envelopes in memory, decoding their text as a file
read does; only the kinds whose readers take a path (v2 traces,
telemetry logs) go through a scratch file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from datetime import datetime, timezone
from typing import IO, Callable, Dict, Iterator, List, NamedTuple, Optional

from ..core.profile_data import ProfileDatabase
from ..curvefit.fitting import fit_power_law
from ..curvefit.selection import select_model
from .store import CurveRecord, ObservatoryStore, RunRecord, _is_late, check_record

__all__ = [
    "IngestResult",
    "MIN_FIT_POINTS",
    "record_from_profile_db",
    "record_from_telemetry",
    "record_from_envelope",
    "record_from_checkpoint",
    "record_from_path",
    "record_from_bytes",
    "record_from_stream_dump",
    "artefact_suffix",
    "ingest_bytes",
    "ingest_checkpoint",
    "ingest_record",
    "ingest_stream_dump",
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


def _digest_run_id(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()[:32]


def _mtime_iso(path: str) -> str:
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
        selection = select_model(points)
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
    events = int(metrics.get("counter.record.events", 0))
    return RunRecord(
        run_id=run_id,
        git_sha=git_sha,
        timestamp=timestamp,
        scale=scale,
        source="telemetry",
        events=events,
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
    """A ``repro-bench/1`` envelope, keyed by its own run identity."""
    metrics: Dict[str, float] = {}
    _flatten_scalars(envelope.get("metrics") or {}, "", metrics)
    bench = envelope.get("bench")
    source = f"bench:{bench}" if bench else "bench"
    return RunRecord(
        run_id=str(envelope.get("run_id") or ""),
        git_sha=str(envelope.get("git_sha") or ""),
        timestamp=str(envelope.get("timestamp") or ""),
        scale=float(envelope.get("scale") or 0.0),
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


def ingest_record(store: ObservatoryStore, record: RunRecord) -> IngestResult:
    """Add one built record to ``store``: the step every ``ingest_*`` ends in.

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


def ingest_checkpoint(
    store: ObservatoryStore,
    directory: str,
    run_id: Optional[str] = None,
    git_sha: str = "",
    scale: float = 0.0,
) -> IngestResult:
    """Ingest the newest checkpoint of a stream directory, superseding.

    ``directory`` holds a ``CURRENT.json`` manifest plus the checkpoint
    dumps it names (:mod:`repro.streaming.snapshot`).  Safe to call repeatedly
    while the stream is live: each call replaces the previous partial
    run in place; an unchanged checkpoint is an idempotent no-op.
    """
    from ..streaming.snapshot import load_checkpoint

    manifest, db = load_checkpoint(directory)
    return ingest_record(store, record_from_checkpoint(
        manifest, db, run_id=run_id, git_sha=git_sha, scale=scale))


def record_from_stream_dump(
    data: bytes,
    stream_meta: Dict,
    run_id: Optional[str] = None,
    git_sha: str = "",
    scale: float = 0.0,
) -> RunRecord:
    """The partial run record of a checkpoint dump shipped over the wire:
    the full ``repro-profile 1`` bytes plus the manifest fields as
    ``stream_meta`` (see :func:`record_from_checkpoint`).  A record
    :func:`~repro.observatory.store.check_record` refuses raises
    ``ValueError``."""
    from ..farm import load_profile

    db = load_profile(io.StringIO(data.decode("utf-8")))
    return check_record(record_from_checkpoint(stream_meta, db, run_id=run_id,
                                               git_sha=git_sha, scale=scale))


def ingest_stream_dump(
    store: ObservatoryStore,
    data: bytes,
    stream_meta: Dict,
    run_id: Optional[str] = None,
    git_sha: str = "",
    scale: float = 0.0,
) -> IngestResult:
    """Ingest a checkpoint dump shipped over the wire.

    The service's ``put_stream`` op delivers it; same superseding
    semantics as :func:`ingest_checkpoint`, without touching the
    uploader's filesystem.
    """
    return ingest_record(store, record_from_stream_dump(
        data, stream_meta, run_id=run_id, git_sha=git_sha, scale=scale))


# -- file sniffing -----------------------------------------------------------

#: the record types of a ``telemetry.jsonl`` log
_TELEMETRY_TYPES = ("meta", "span", "heartbeat", "metrics", "event")

_UNKNOWN_KIND = ("not a profile dump, v2 trace, telemetry run, bench envelope "
                 "or checkpoint directory")


def _is_telemetry_line(line: str) -> bool:
    """True when ``line``, a ``.jsonl`` file's first, is a telemetry record."""
    line = line.strip()
    try:
        return bool(line) and json.loads(line).get("type") in _TELEMETRY_TYPES
    except ValueError:
        return False


def _looks_like_telemetry(path: str) -> bool:
    if os.path.basename(path) == "telemetry.jsonl" or os.path.isdir(path):
        return True
    if not path.endswith(".jsonl"):
        return False
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as stream:
            return _is_telemetry_line(stream.readline())
    except OSError:
        return False


def _bench_record(envelope: Dict, name: str, run_id: Optional[str], git_sha: str,
                  default_run_id: Callable[[], str]) -> RunRecord:
    """The record of the envelope parsed from ``name``; ``run_id`` and
    ``git_sha`` override its own, and ``default_run_id()`` names a run
    that has none."""
    if envelope.get("schema") != "repro-bench/1":
        raise ValueError(f"{name}: not a repro-bench/1 envelope")
    record = record_from_envelope(envelope)
    if run_id:
        record = record._replace(run_id=run_id)
    if not record.run_id:
        record = record._replace(run_id=default_run_id())
    if git_sha:
        record = record._replace(git_sha=git_sha)
    return record


def ingest_path(
    store: ObservatoryStore,
    path: str,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
) -> IngestResult:
    """Sniff ``path`` and ingest it; see the module docstring.

    Accepts whatever :func:`record_from_path` reads; a streaming
    checkpoint supersedes its run's stored version (see
    :func:`ingest_checkpoint`).  Raises ``ValueError`` on anything else,
    ``OSError`` on unreadable paths.
    """
    return ingest_record(store, record_from_path(
        path, run_id=run_id, git_sha=git_sha, timestamp=timestamp, scale=scale))


def record_from_path(
    path: str,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
) -> RunRecord:
    """Sniff ``path`` and build its run record, with no store involved.

    Accepts a streaming checkpoint directory (holding ``CURRENT.json``,
    or that file itself; ``timestamp`` is the manifest's), a
    ``repro-profile 1`` dump, a v2 binary trace (analysed inline through
    the farm engine first), a ``telemetry.jsonl`` file (or a run
    directory holding one) or a ``repro-bench/1`` JSON envelope.  Raises
    ``ValueError`` on anything else or on a record that
    :func:`~repro.observatory.store.check_record` refuses (so a caller
    can refuse it before it opens, and so creates, a store), and
    ``OSError`` on unreadable paths.
    """
    from ..farm import is_binary_trace, is_profile_dump, load_profile
    from ..streaming.snapshot import MANIFEST_NAME, load_checkpoint

    # Checkpoint directories first: a directory would otherwise sniff
    # as a telemetry run, and CURRENT.json as a bench envelope.
    checkpoint_dir: Optional[str] = None
    if os.path.isdir(path) and os.path.exists(os.path.join(path, MANIFEST_NAME)):
        checkpoint_dir = path
    elif os.path.basename(path) == MANIFEST_NAME and os.path.exists(path):
        checkpoint_dir = os.path.dirname(path) or "."
    if checkpoint_dir is not None:
        manifest, db = load_checkpoint(checkpoint_dir)
        record = record_from_checkpoint(manifest, db, run_id=run_id,
                                        git_sha=git_sha, scale=scale)
    elif not os.path.isdir(path) and is_binary_trace(path):
        from ..farm import analyze_file

        result = analyze_file(path)
        record = record_from_profile_db(
            result.db,
            run_id=run_id or _digest_run_id(path),
            git_sha=git_sha,
            timestamp=timestamp or _mtime_iso(path),
            scale=scale,
            source="trace",
        )
    elif _looks_like_telemetry(path):
        from ..telemetry import TelemetryRun, resolve_log_path

        log_path = resolve_log_path(path) if os.path.isdir(path) else path
        run = TelemetryRun.load(path)
        record = record_from_telemetry(
            run,
            run_id=run_id or _digest_run_id(log_path),
            git_sha=git_sha,
            timestamp=timestamp or _mtime_iso(log_path),
            scale=scale,
        )
    elif is_profile_dump(path):
        with open(path, "r", encoding="utf-8") as stream:
            db = load_profile(stream)
        record = record_from_profile_db(
            db,
            run_id=run_id or _digest_run_id(path),
            git_sha=git_sha,
            timestamp=timestamp or _mtime_iso(path),
            scale=scale,
        )
    elif path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as stream:
            envelope = json.load(stream)
        record = _bench_record(envelope, path, run_id, git_sha,
                               lambda: _digest_run_id(path))
    elif not os.path.exists(path):
        raise FileNotFoundError(f"{path}: no such file or directory")
    else:
        raise ValueError(f"{path}: {_UNKNOWN_KIND}")
    return check_record(record)


# -- in-memory artefacts -----------------------------------------------------


def artefact_suffix(data: bytes) -> str:
    """The file suffix under which ``data`` sniffs like itself.

    The sniffers above look at file *content* except for two cases
    that go by name: ``telemetry.jsonl`` logs (``.jsonl``) and
    ``repro-bench/1`` envelopes (``.json``).  :func:`record_from_bytes`
    sniffs ``data`` as a file of this suffix, and the service names its
    spool files with it.
    """
    from ..farm.binfmt import BINARY_MAGIC

    if data.startswith(BINARY_MAGIC):
        return ".rpt2"
    head = data[:4096].decode("utf-8", errors="replace")
    first = head.split("\n", 1)[0].strip()
    if first:
        try:
            record = json.loads(first)
        except ValueError:
            record = None
        if isinstance(record, dict):
            if record.get("type") in _TELEMETRY_TYPES:
                return ".jsonl"
            return ".json"
    return ".profile"


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


def _text(data: bytes) -> IO[str]:
    """``data`` as ``open(path, "r", encoding="utf-8")`` reads a file
    holding it: strict UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@contextlib.contextmanager
def _scratch_file(data: bytes, suffix: str) -> Iterator[str]:
    """The path of a temporary file holding ``data``, for the readers
    that take a path; removed on exit."""
    import tempfile

    handle, path = tempfile.mkstemp(prefix="repro-ingest-", suffix=suffix)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        yield path
    finally:
        os.unlink(path)


def record_from_bytes(
    data: bytes,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
    name: str = "<bytes>",
) -> RunRecord:
    """The run record of an in-memory artefact, with no store involved.

    ``data`` sniffs as :func:`record_from_path` sniffs a file holding it
    named with :func:`artefact_suffix`, and builds the same record or
    raises the same exception type; ``name`` stands for the artefact in
    error messages where the path would.  A ``repro-profile 1`` dump or
    a ``repro-bench/1`` envelope is parsed in memory, its text decoded
    as a file read decodes it (strict UTF-8, universal newlines); a v2
    trace or a telemetry log, whose readers take a path, is written to
    a scratch file first.

    The default run id is the digest of ``data`` — identical to what
    ingesting the same bytes from a file would assign, so online
    (wire/stdin) and offline (path) ingestion of one artefact are
    idempotent against each other.  No timestamp is inferred (bytes
    have no mtime; ``-`` stands in); pass the artefact's own
    ``timestamp`` when ordering matters.
    """
    # looked up per call: perfbench patches ``repro.farm.load_profile``
    from ..farm import PROFILE_MAGIC, analyze_file, load_profile

    suffix = artefact_suffix(data)
    digest = hashlib.sha256(data).hexdigest()[:32]
    timestamp = timestamp or "-"
    if suffix == ".rpt2":
        with _scratch_file(data, suffix) as path:
            db = analyze_file(path).db
        record = record_from_profile_db(db, run_id=run_id or digest, git_sha=git_sha,
                                        timestamp=timestamp, scale=scale, source="trace")
    elif suffix == ".jsonl" and _is_telemetry_line(_first_line(data)):
        from ..telemetry import TelemetryRun

        with _scratch_file(data, suffix) as path:
            run = TelemetryRun.load(path)
        record = record_from_telemetry(run, run_id=run_id or digest, git_sha=git_sha,
                                       timestamp=timestamp, scale=scale)
    elif _first_line(data) == PROFILE_MAGIC:
        record = record_from_profile_db(load_profile(_text(data)), run_id=run_id or digest,
                                        git_sha=git_sha, timestamp=timestamp, scale=scale)
    elif suffix == ".json":
        record = _bench_record(json.load(_text(data)), name, run_id, git_sha,
                               lambda: digest)
    else:
        raise ValueError(f"{name}: {_UNKNOWN_KIND}")
    return check_record(record)


def ingest_bytes(
    store: ObservatoryStore,
    data: bytes,
    run_id: Optional[str] = None,
    git_sha: str = "",
    timestamp: str = "",
    scale: float = 0.0,
) -> IngestResult:
    """Ingest an in-memory artefact (see :func:`record_from_bytes`)."""
    return ingest_record(store, record_from_bytes(
        data, run_id=run_id, git_sha=git_sha, timestamp=timestamp, scale=scale))
