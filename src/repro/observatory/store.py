"""The profile-history store: an append-only log, read from memory.

One profiling run is one observation of the system's cost functions;
the observatory keeps a *history* of them so growth-rate drift across
commits becomes visible (see :mod:`repro.observatory.drift`).

``history.jsonl`` *is* the store: one self-describing JSON record per
ingested run, appended with an ``fsync`` under the store's advisory
lock, and crash-tolerant exactly like ``telemetry.jsonl`` (a truncated
trailing line is ignored, and so is a line of JSON that is no run
record).  Opening a store parses the log, resolves each run's newest
version (a streaming run appends one superseding line per checkpoint)
and applies every resolved run once.

Applying a run derives its read rows, once: the :class:`RunInfo` of
the fleet summary, one :class:`CurveRow` per fitted routine (indexed by
routine too), the sorted raw plot of each top-K routine and the run
metrics.  Every read answers from those rows; no read parses, fits or
scans the log.  Fractional values (scale, metrics, curve coefficients,
``r2``, exponents) are read back rounded to 1e-6 (micro-units), the
precision every read and report of a store has always had.

A record holding a number that precision cannot keep — a NaN, an
infinity, or a magnitude beyond ~1.8e302 — is refused with a
``ValueError`` before the log is touched (:func:`check_record`), and
replay skips such a line like a torn one.

Run ordering is by ``(timestamp, seq)``, ``seq`` being the ingest
ordinal.  A curve row carries the model name plus its ``a``/``b``
coefficients (``cost ≈ a·g(n) + b``), so predicted costs at any size
can be recomputed without refitting, and the free power-law exponent
for the dashboard sparklines.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from datetime import datetime, timezone
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

try:                                    # POSIX advisory file locks
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..curvefit.models import model_by_name

__all__ = [
    "STORE_SCHEMA",
    "HISTORY_FILENAME",
    "LOCK_FILENAME",
    "CurveRecord",
    "RunRecord",
    "RunInfo",
    "CurveRow",
    "ObservatoryStore",
    "check_record",
    "store_exists",
]

STORE_SCHEMA = "repro-observatory/1"
HISTORY_FILENAME = "history.jsonl"
#: advisory lock serialising appends against gc compaction (see
#: :meth:`ObservatoryStore._locked`)
LOCK_FILENAME = "history.lock"

#: fixed point of every fractional value a read returns (micro-units)
_FP = 1_000_000


def _micro(value: float) -> float:
    """``value`` at the store's 1e-6 precision."""
    return round(float(value) * _FP) / _FP


def _parse_ts(timestamp: Optional[str]) -> int:
    """ISO-8601 → unix seconds (0 when absent or unparseable)."""
    if not timestamp:
        return 0
    try:
        parsed = datetime.fromisoformat(str(timestamp).replace("Z", "+00:00"))
    except ValueError:
        return 0
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return int(parsed.timestamp())


class CurveRecord(NamedTuple):
    """One routine's fitted curve in one run (ingest-side, strings/floats)."""

    routine: str
    model: str            #: growth-class name from curvefit.selection
    a: float
    b: float
    r2: float
    points: int           #: distinct plot points the fit saw
    max_size: int         #: largest input size observed
    exponent: Optional[float]   #: free power-law exponent, if fittable


class RunRecord(NamedTuple):
    """One ingested run, as appended to ``history.jsonl``."""

    run_id: str
    git_sha: str
    timestamp: str        #: ISO-8601
    scale: float
    source: str           #: profile | trace | stream | telemetry | bench
    events: int
    metrics: Dict[str, float]
    curves: List[CurveRecord]
    #: routine -> raw worst-case plot ``[(size, cost), …]`` (top-K only)
    points: Dict[str, List[Tuple[int, int]]]


class RunInfo(NamedTuple):
    """One run as a read returns it (the fleet summary's row)."""

    seq: int
    run_id: str
    git_sha: str
    timestamp: int        #: unix seconds
    scale: float
    source: str
    routines: int
    events: int


class CurveRow(NamedTuple):
    """One routine's fitted curve in one run, as a read returns it."""

    run_seq: int
    routine: str
    model: str
    a: float
    b: float
    r2: float
    points: int
    max_size: int
    exponent: Optional[float]

    @property
    def order(self) -> int:
        """Rank of the growth class inside the default model family."""
        return model_by_name(self.model).order

    def predict(self, n: float) -> float:
        """Predicted cost at input size ``n`` from the stored coefficients."""
        return model_by_name(self.model).evaluate(n, self.a, self.b)


def _is_late(stored: RunRecord, incoming: RunRecord) -> bool:
    """A partial checkpoint after a closed or higher-``seq`` one (ingest
    workers finish out of order).  A closed one always applies: a new
    recording to the same trace path restarts ``seq`` at 1."""
    if incoming.metrics.get("streaming.closed"):
        return False
    return bool(stored.metrics.get("streaming.closed")) or (
        incoming.metrics.get("streaming.seq", 0.0)
        < stored.metrics.get("streaming.seq", 0.0))


def store_exists(root: str) -> bool:
    """True when ``root`` holds a store (its ``history.jsonl``): the test
    every read path makes first, since opening a store creates one."""
    return os.path.isfile(os.path.join(root, HISTORY_FILENAME))


def _unstorable(value) -> Optional[str]:
    """Why the 1e-6 fixed point cannot keep ``value``, or None."""
    try:
        number = float(value)
    except OverflowError:           # an int beyond every float
        return "too large to store"
    if not math.isfinite(number):
        return "not finite"
    if not math.isfinite(number * _FP):
        return "too large to store"
    return None


def check_record(record: RunRecord) -> RunRecord:
    """``record`` itself, or a ``ValueError`` naming its first number that
    the store's 1e-6 fixed point cannot keep: a NaN, an infinity, or a
    magnitude whose micro-units overflow a float."""
    fields = [("scale", record.scale)]
    fields += [(f"metric {name!r}", value) for name, value in record.metrics.items()]
    for curve in record.curves:
        fields += [(f"curve {curve.routine!r} {name}", getattr(curve, name))
                   for name in ("a", "b", "r2", "exponent")]
    for field, value in fields:
        problem = None if value is None else _unstorable(value)
        if problem:
            raise ValueError(f"run {record.run_id!r}: {field} is {problem}: {value!r:.40}")
    return record


class _ReadRows(NamedTuple):
    """What every read returns of one stored run, derived when it is applied."""

    info: RunInfo
    curves: List[CurveRow]                      #: in the record's order
    plots: Dict[str, List[Tuple[int, int]]]     #: routine -> sorted plot
    metrics: Dict[str, float]


def _read_rows(seq: int, record: RunRecord) -> _ReadRows:
    info = RunInfo(
        seq=seq,
        run_id=record.run_id,
        git_sha=record.git_sha or "",
        timestamp=_parse_ts(record.timestamp),
        scale=_micro(record.scale or 0.0),
        source=record.source or "",
        routines=len({curve.routine for curve in record.curves} | set(record.points)),
        events=int(record.events or 0),
    )
    curves = [
        CurveRow(
            run_seq=seq,
            routine=curve.routine,
            model=curve.model,
            a=_micro(curve.a),
            b=_micro(curve.b),
            r2=_micro(curve.r2),
            points=int(curve.points),
            max_size=int(curve.max_size),
            exponent=None if curve.exponent is None else _micro(curve.exponent),
        )
        for curve in record.curves
    ]
    plots = {routine: sorted((int(size), int(cost)) for size, cost in plot)
             for routine, plot in record.points.items()}
    metrics = {name: _micro(value) for name, value in record.metrics.items()}
    return _ReadRows(info, curves, plots, metrics)


class ObservatoryStore:
    """Persistent run history, read from memory (see module docstring).

    Usage::

        with ObservatoryStore(directory) as store:
            store.add_run(record)
            for info in store.runs(): ...
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, HISTORY_FILENAME)
        self._rebuild(self._replay())

    # -- log ---------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        """Hold the store's advisory file lock (``history.lock``).

        ``gc`` swaps ``history.jsonl`` out from under concurrent
        writers (atomic-replace compaction); an append racing the swap
        would land on the *old* inode and be lost, and a reader could
        observe half-rebuilt rows.  Every append and the whole gc
        critical section therefore take an exclusive ``flock`` on a
        sidecar lock file — advisory (cooperating processes only), so
        plain reads of the JSONL stay lock-free.  On platforms without
        ``fcntl`` the lock degrades to a no-op.
        """
        if fcntl is None:               # pragma: no cover - non-POSIX
            yield
            return
        with open(os.path.join(self.root, LOCK_FILENAME), "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _replay(self) -> List[RunRecord]:
        """The log's runs, each at its newest version, in ingest order."""
        if not os.path.exists(self.path):
            with open(self.path, "w", encoding="utf-8") as stream:
                stream.write(json.dumps({"type": "meta", "schema": STORE_SCHEMA}) + "\n")
            return []
        # A streaming run appends one log record per checkpoint, all
        # sharing one run_id, and only the newest version is applied (at
        # its original position — a stream keeps its place in history).
        resolved: List[RunRecord] = []
        index: Dict[str, int] = {}
        with open(self.path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict) or record.get("type") != "run":
                        continue
                    run = check_record(_record_from_json(record))
                except (ValueError, OverflowError, KeyError, TypeError, AttributeError):
                    # a truncated trailing line (crash mid-append), a
                    # number an older version logged but no read can
                    # hold, or JSON that is no run record
                    continue
                seq = index.get(run.run_id)
                if seq is None:
                    index[run.run_id] = len(resolved)
                    resolved.append(run)
                elif record.get("supersede") and not _is_late(resolved[seq], run):
                    resolved[seq] = run
                # duplicate non-superseding append: first write wins,
                # matching add_run's idempotency
        return resolved

    def _append(self, record: RunRecord, supersede: bool = False) -> None:
        payload = _record_to_json(record)
        if supersede:
            payload["supersede"] = True
        with self._locked():
            with open(self.path, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(payload, sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())

    # -- writes ------------------------------------------------------------

    def has_run(self, run_id: str) -> bool:
        return run_id in self._run_seq

    def record_for(self, run_id: str) -> RunRecord:
        """The stored version of a known ``run_id``."""
        return self._records[self._run_seq[run_id]]

    def add_run(self, record: RunRecord, supersede: bool = False) -> bool:
        """Ingest one run; False (and no effect) when run_id is present.

        Idempotency is by ``run_id`` alone — re-ingesting the same dump
        (or a re-upload of the same envelope) is a no-op.

        ``supersede=True`` is the streaming-checkpoint contract: a
        known ``run_id`` is *replaced in place* (same position in run
        history — later checkpoints of one run are not separate runs)
        and the replacement is appended to the log with a
        ``supersede`` marker so replay converges to the newest
        version.  Re-ingesting a byte-identical checkpoint stays a
        no-op, keeping superseding ingestion idempotent too, and so is
        a late one (see :func:`_is_late`).

        A record :func:`check_record` refuses raises ``ValueError``
        before the log is touched.
        """
        check_record(record)
        seq = self._run_seq.get(record.run_id)
        if seq is None:
            self._append(record, supersede=supersede)
            self._apply(len(self._records), record)
            return True
        if not supersede or self._records[seq] == record or _is_late(self._records[seq], record):
            return False    # known run, identical checkpoint re-ingested, or a late one
        self._append(record, supersede=True)
        self._apply(seq, record)
        return True

    def _rebuild(self, records: List[RunRecord]) -> None:
        """Hold exactly ``records``, renumbered from seq 0."""
        self._records: List[RunRecord] = []     # in seq order
        self._rows: List[_ReadRows] = []        # parallel to _records
        self._run_seq: Dict[str, int] = {}      # run_id -> seq
        #: routine -> its curve rows (one run's rows stay in its order)
        self._by_routine: Dict[str, List[CurveRow]] = {}
        for seq, record in enumerate(records):
            self._apply(seq, record)

    def _apply(self, seq: int, record: RunRecord) -> None:
        """Store ``record`` at ``seq`` (appended, or replacing the run
        there) with its read rows: the one per-record step of every write,
        open and gc."""
        rows = _read_rows(seq, record)
        if seq == len(self._records):
            self._records.append(record)
            self._rows.append(rows)
        else:
            for routine in {curve.routine for curve in self._rows[seq].curves}:
                kept = [row for row in self._by_routine[routine] if row.run_seq != seq]
                if kept:
                    self._by_routine[routine] = kept
                else:
                    del self._by_routine[routine]
            self._records[seq] = record
            self._rows[seq] = rows
        self._run_seq[record.run_id] = seq
        for curve in rows.curves:
            self._by_routine.setdefault(curve.routine, []).append(curve)

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def _rows_at(self, seq: int) -> Optional[_ReadRows]:
        return self._rows[seq] if 0 <= seq < len(self._rows) else None

    def runs(self) -> List[RunInfo]:
        """Every run, ordered by (timestamp, ingest ordinal)."""
        infos = [rows.info for rows in self._rows]
        infos.sort(key=attrgetter("timestamp", "seq"))
        return infos

    def run_order(self) -> Dict[int, int]:
        """Map run seq -> position in the (timestamp, seq) ordering."""
        return {info.seq: position for position, info in enumerate(self.runs())}

    def routines(self) -> List[str]:
        """Sorted names of every routine with at least one curve row."""
        return sorted(self._by_routine)

    def curve_trajectory(self, routine: str,
                         order: Optional[Dict[int, int]] = None) -> List[CurveRow]:
        """The routine's fitted curves across runs, in run order, then seq
        (a run that ``order`` omits sorts first).

        ``order`` is :meth:`run_order`, for a caller that reads many
        trajectories from one history and so computes it once.
        """
        curves = self._by_routine.get(routine)
        if not curves:
            return []
        if order is None:
            order = self.run_order()
        return sorted(curves, key=lambda curve: (order.get(curve.run_seq, -1), curve.run_seq))

    def curves_for_run(self, seq: int) -> List[CurveRow]:
        rows = self._rows_at(seq)
        return list(rows.curves) if rows else []

    def points_for(self, seq: int, routine: str) -> List[Tuple[int, int]]:
        """Raw worst-case plot of one routine in one run (top-K only)."""
        rows = self._rows_at(seq)
        return list(rows.plots.get(routine, ())) if rows else []

    def metrics_for(self, seq: int) -> Dict[str, float]:
        rows = self._rows_at(seq)
        return dict(rows.metrics) if rows else {}

    # -- maintenance -------------------------------------------------------

    def gc(self, keep: int) -> int:
        """Keep only the newest ``keep`` runs; returns how many were dropped.

        Compacts ``history.jsonl`` (atomic replace) and rebuilds the
        read rows from the survivors.  The whole critical section holds
        the store's advisory lock, so a concurrent ingest (another
        cooperating process, or the profiling service's workers) can
        never append to the about-to-be-replaced log.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        with self._locked():
            ordered = self.runs()
            victims = ordered[:-keep] if keep else ordered
            if not victims:
                return 0
            victim_seqs = {info.seq for info in victims}
            survivors = [record for seq, record in enumerate(self._records)
                         if seq not in victim_seqs]
            scratch = self.path + ".compact"
            with open(scratch, "w", encoding="utf-8") as stream:
                stream.write(json.dumps({"type": "meta", "schema": STORE_SCHEMA}) + "\n")
                for record in survivors:
                    stream.write(json.dumps(_record_to_json(record), sort_keys=True) + "\n")
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(scratch, self.path)
            self._rebuild(survivors)
        return len(victims)

    def close(self) -> None:
        """Nothing to release: every write is durable when it returns, and
        the read rows are plain memory.  Kept for ``with`` and callers
        that end a store's use explicitly."""

    def __enter__(self) -> "ObservatoryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- log (de)serialisation --------------------------------------------------


def _record_to_json(record: RunRecord) -> Dict:
    return {
        "type": "run",
        "schema": STORE_SCHEMA,
        "run_id": record.run_id,
        "git_sha": record.git_sha,
        "timestamp": record.timestamp,
        "scale": record.scale,
        "source": record.source,
        "events": record.events,
        "metrics": dict(record.metrics),
        "curves": [
            {
                "routine": curve.routine,
                "model": curve.model,
                "a": curve.a,
                "b": curve.b,
                "r2": curve.r2,
                "points": curve.points,
                "max_size": curve.max_size,
                "exponent": curve.exponent,
            }
            for curve in record.curves
        ],
        "points": {routine: [[size, cost] for size, cost in plot]
                   for routine, plot in record.points.items()},
    }


def _record_from_json(payload: Dict) -> RunRecord:
    curves = [
        CurveRecord(
            routine=str(curve["routine"]),
            model=str(curve["model"]),
            a=float(curve["a"]),
            b=float(curve["b"]),
            r2=float(curve["r2"]),
            points=int(curve["points"]),
            max_size=int(curve["max_size"]),
            exponent=None if curve.get("exponent") is None
            else float(curve["exponent"]),
        )
        for curve in payload.get("curves", [])
    ]
    points = {
        str(routine): [(int(size), int(cost)) for size, cost in plot]
        for routine, plot in (payload.get("points") or {}).items()
    }
    metrics = {str(name): float(value)
               for name, value in (payload.get("metrics") or {}).items()
               if isinstance(value, (int, float))}
    return RunRecord(
        run_id=str(payload["run_id"]),
        git_sha=str(payload.get("git_sha") or ""),
        timestamp=str(payload.get("timestamp") or ""),
        scale=float(payload.get("scale") or 0.0),
        source=str(payload.get("source") or ""),
        events=int(payload.get("events") or 0),
        metrics=metrics,
        curves=curves,
        points=points,
    )
