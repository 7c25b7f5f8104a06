"""The profile-history store: minidb tables over an append-only log.

One profiling run is one observation of the system's cost functions;
the observatory keeps a *history* of them so growth-rate drift across
commits becomes visible (see :mod:`repro.observatory.drift`).  Storage
is split along the classic WAL/engine line:

* ``history.jsonl`` — the durable medium: one self-describing JSON
  record per ingested run, append-only and crash-tolerant exactly like
  ``telemetry.jsonl`` (a truncated trailing line is ignored).  Strings
  live only here.
* the :mod:`repro.minidb` engine — the live relational view, rebuilt
  from the log at open.  The same mini database the paper profiles as
  its MySQL case study here serves as real infrastructure: runs,
  fitted curves and raw plot points are rows in heap tables, queried
  through its SQL layer with a hash index per hot lookup column.

minidb cells hold integers, so strings are interned per store instance
(ids are assigned during replay and never persisted) and fractional
values are stored in fixed-point micro-units (``×1e6``).

Schema (one row per line of ``CREATE TABLE``)::

    runs    (seq, run_id, git_sha, ts, scale_u, source, routines, events)
    curves  (run, routine, model, a_u, b_u, r2_u, npoints, max_size, exp_u)
    points  (run, routine, size, cost)
    metrics (run, name, value_u)

``runs.seq`` is the ingest ordinal; run ordering everywhere else is by
``(timestamp, seq)``.  ``curves`` carries one fitted-curve row per
fittable routine per run — the model name plus its ``a``/``b``
coefficients (``cost ≈ a·g(n) + b``), so predicted costs at any size
can be recomputed without refitting — and the free power-law exponent
for the dashboard sparklines.  ``points`` keeps the raw worst-case
cost plot of the top-K routines by total cost.
"""

from __future__ import annotations

import contextlib
import json
import os
from datetime import datetime, timezone
from typing import Dict, List, NamedTuple, Optional, Tuple

try:                                    # POSIX advisory file locks
    import fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..curvefit.models import model_by_name
from ..minidb import Database
from ..pytrace.api import TraceSession

__all__ = [
    "STORE_SCHEMA",
    "HISTORY_FILENAME",
    "LOCK_FILENAME",
    "CurveRecord",
    "RunRecord",
    "RunInfo",
    "CurveRow",
    "ObservatoryStore",
    "store_exists",
]

STORE_SCHEMA = "repro-observatory/1"
HISTORY_FILENAME = "history.jsonl"
#: advisory lock serialising appends against gc compaction (see
#: :meth:`ObservatoryStore._locked`)
LOCK_FILENAME = "history.lock"

#: fixed-point scale for fractional columns (micro-units)
_FP = 1_000_000
#: ``exp_u`` sentinel for "no power-law exponent available"
_NO_EXP = -(10 ** 12)


def _fp(value: float) -> int:
    return int(round(float(value) * _FP))


def _unfp(value: int) -> float:
    return value / _FP


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
    """One run as read back from the ``runs`` table."""

    seq: int
    run_id: str
    git_sha: str
    timestamp: int        #: unix seconds
    scale: float
    source: str
    routines: int
    events: int


class CurveRow(NamedTuple):
    """One fitted-curve row as read back from the ``curves`` table."""

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


class ObservatoryStore:
    """Persistent run history over a minidb engine (see module docstring).

    Usage::

        with ObservatoryStore(directory) as store:
            store.add_run(record)
            for info in store.runs(): ...
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, HISTORY_FILENAME)
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._run_seq: Dict[str, int] = {}     # run_id -> seq ordinal
        self._records: List[RunRecord] = []    # replayed log, in seq order
        self._engine = self._new_engine()
        self._replay()

    # -- engine ------------------------------------------------------------

    def _new_engine(self) -> Database:
        # An untraced session: the observatory *uses* minidb, it does not
        # profile it.  Page/frame sizing trades tracked-cell granularity
        # for capacity: 9 columns max -> 8 curve rows per 81-word page,
        # 4096 pages per table extent.
        engine = Database(
            TraceSession(tools=None),
            page_size=81,
            pool_frames=128,
            ring_slots=64,
            record_width=10,
        )
        engine.execute(
            "CREATE TABLE runs (seq, run_id, git_sha, ts, scale_u, source, "
            "routines, events)")
        engine.execute(
            "CREATE TABLE curves (run, routine, model, a_u, b_u, r2_u, "
            "npoints, max_size, exp_u)")
        engine.execute("CREATE TABLE points (run, routine, size, cost)")
        engine.execute("CREATE TABLE metrics (run, name, value_u)")
        engine.execute("CREATE INDEX ON runs (run_id)")
        engine.execute("CREATE INDEX ON curves (routine)")
        engine.execute("CREATE INDEX ON points (run)")
        engine.execute("CREATE INDEX ON metrics (run)")
        return engine

    def _intern(self, name: str) -> int:
        interned = self._ids.get(name)
        if interned is None:
            interned = len(self._names)
            self._names.append(name)
            self._ids[name] = interned
        return interned

    def _name(self, interned: int) -> str:
        return self._names[interned]

    def _insert(self, table: str, values: List[int]) -> None:
        rendered = ", ".join(str(int(value)) for value in values)
        self._engine.execute(f"INSERT INTO {table} VALUES ({rendered})")
        # No background flusher: drain the change-buffer ring eagerly so
        # bulk ingestion never blocks on a full ring.
        self._engine.flush_now()

    # -- log ---------------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        """Hold the store's advisory file lock (``history.lock``).

        ``gc`` swaps ``history.jsonl`` out from under concurrent
        writers (atomic-replace compaction); an append racing the swap
        would land on the *old* inode and be lost, and a reader could
        observe a half-rebuilt engine.  Every append and the whole gc
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

    def _replay(self) -> None:
        if not os.path.exists(self.path):
            with open(self.path, "w", encoding="utf-8") as stream:
                stream.write(json.dumps({"type": "meta", "schema": STORE_SCHEMA}) + "\n")
            return
        # Resolve supersessions before touching the engine: a streaming
        # run appends one log record per checkpoint, all sharing one
        # run_id, and only the newest version may be materialised (at
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
                except ValueError:
                    continue    # truncated trailing line (crash mid-append)
                if record.get("type") != "run":
                    continue
                run = _record_from_json(record)
                seq = index.get(run.run_id)
                if seq is None:
                    index[run.run_id] = len(resolved)
                    resolved.append(run)
                elif record.get("supersede") and not _is_late(resolved[seq], run):
                    resolved[seq] = run
                # duplicate non-superseding append: first write wins,
                # matching add_run's idempotency
        for run in resolved:
            self._apply(run)

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
        """
        if self.has_run(record.run_id):
            if not supersede:
                return False
            seq = self._run_seq[record.run_id]
            if self._records[seq] == record or _is_late(self._records[seq], record):
                return False    # identical checkpoint re-ingested, or a late one
            self._append(record, supersede=True)
            records = list(self._records)
            records[seq] = record
            self._rebuild(records)
            return True
        self._append(record, supersede=supersede)
        self._apply(record)
        return True

    def _rebuild(self, records: List[RunRecord]) -> None:
        """Re-materialise the engine from an explicit record list."""
        self._names = []
        self._ids = {}
        self._run_seq = {}
        self._records = []
        self._engine = self._new_engine()
        for record in records:
            self._apply(record)

    def _apply(self, record: RunRecord) -> None:
        seq = len(self._records)
        self._records.append(record)
        self._run_seq[record.run_id] = seq
        self._insert("runs", [
            seq,
            self._intern(record.run_id),
            self._intern(record.git_sha or ""),
            _parse_ts(record.timestamp),
            _fp(record.scale or 0.0),
            self._intern(record.source or ""),
            len({curve.routine for curve in record.curves} | set(record.points)),
            int(record.events or 0),
        ])
        for curve in record.curves:
            exponent = _NO_EXP if curve.exponent is None else _fp(curve.exponent)
            self._insert("curves", [
                seq,
                self._intern(curve.routine),
                self._intern(curve.model),
                _fp(curve.a),
                _fp(curve.b),
                _fp(curve.r2),
                int(curve.points),
                int(curve.max_size),
                exponent,
            ])
        for routine, plot in record.points.items():
            routine_id = self._intern(routine)
            for size, cost in plot:
                self._insert("points", [seq, routine_id, int(size), int(cost)])
        for name, value in record.metrics.items():
            self._insert("metrics", [seq, self._intern(name), _fp(value)])

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def runs(self) -> List[RunInfo]:
        """Every run, ordered by (timestamp, ingest ordinal)."""
        rows = self._engine.execute("SELECT * FROM runs")
        infos = [
            RunInfo(
                seq=row[0],
                run_id=self._name(row[1]),
                git_sha=self._name(row[2]),
                timestamp=row[3],
                scale=_unfp(row[4]),
                source=self._name(row[5]),
                routines=row[6],
                events=row[7],
            )
            for row in rows
        ]
        infos.sort(key=lambda info: (info.timestamp, info.seq))
        return infos

    def run_order(self) -> Dict[int, int]:
        """Map run seq -> position in the (timestamp, seq) ordering."""
        return {info.seq: position for position, info in enumerate(self.runs())}

    def routines(self) -> List[str]:
        """Sorted names of every routine with at least one curve row."""
        rows = self._engine.execute("SELECT * FROM curves")
        return sorted({self._name(row[1]) for row in rows})

    def _curve_row(self, row: List[int]) -> CurveRow:
        exponent = None if row[8] == _NO_EXP else _unfp(row[8])
        return CurveRow(
            run_seq=row[0],
            routine=self._name(row[1]),
            model=self._name(row[2]),
            a=_unfp(row[3]),
            b=_unfp(row[4]),
            r2=_unfp(row[5]),
            points=row[6],
            max_size=row[7],
            exponent=exponent,
        )

    def curve_trajectory(self, routine: str,
                         order: Optional[Dict[int, int]] = None) -> List[CurveRow]:
        """The routine's fitted curves across runs, in run order.

        ``order`` is :meth:`run_order`, for a caller that reads many
        trajectories from one history and so computes it once.
        """
        routine_id = self._ids.get(routine)
        if routine_id is None:
            return []
        rows = self._engine.execute(
            f"SELECT * FROM curves WHERE routine = {routine_id}")
        if order is None:
            order = self.run_order()
        curves = [self._curve_row(row) for row in rows]
        curves.sort(key=lambda curve: order.get(curve.run_seq, -1))
        return curves

    def curves_for_run(self, seq: int) -> List[CurveRow]:
        rows = self._engine.execute(f"SELECT * FROM curves WHERE run = {seq}")
        return [self._curve_row(row) for row in rows]

    def points_for(self, seq: int, routine: str) -> List[Tuple[int, int]]:
        """Raw worst-case plot of one routine in one run (top-K only)."""
        routine_id = self._ids.get(routine)
        if routine_id is None:
            return []
        rows = self._engine.execute(f"SELECT * FROM points WHERE run = {seq}")
        return sorted((row[2], row[3]) for row in rows if row[1] == routine_id)

    def metrics_for(self, seq: int) -> Dict[str, float]:
        rows = self._engine.execute(f"SELECT * FROM metrics WHERE run = {seq}")
        return {self._name(row[1]): _unfp(row[2]) for row in rows}

    # -- maintenance -------------------------------------------------------

    def gc(self, keep: int) -> int:
        """Keep only the newest ``keep`` runs; returns how many were dropped.

        Compacts ``history.jsonl`` (atomic replace) and rebuilds the
        engine from the survivors.  The whole critical section holds
        the store's advisory lock, so a concurrent ingest (another
        cooperating process, or the profiling service's workers) can
        never append to the about-to-be-replaced log or observe the
        half-rebuilt engine.
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
        """Release the engine (the log is already durable)."""
        self._engine = None  # type: ignore[assignment]

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
