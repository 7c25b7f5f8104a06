"""Profile observatory: persistent run history and growth-rate drift.

A single input-sensitive profile names each routine's cost *function*;
two profiles diff into asymptotic regressions
(:mod:`repro.reporting.diffing`); this package watches a *sequence* of
runs, which is what an operator of a long-lived system actually has:

* :mod:`repro.observatory.store` — the persistent history store: an
  append-only ``history.jsonl``, replayed at open into each run's read
  rows (run summary, fitted curves, raw plot points, run metrics) and
  read from memory;
* :mod:`repro.observatory.ingest` — turns ``repro-profile 1`` dumps,
  v2 traces, streaming checkpoints, ``telemetry.jsonl`` runs and
  ``repro-bench/1`` envelopes into store records, idempotently by run
  id, telling the files apart by their bytes under one rule;
* :mod:`repro.observatory.drift` — per-routine growth-class
  trajectories, changepoint flagging and severity-ranked alerts;
* :mod:`repro.observatory.dashboards` — the ASCII and HTML dashboards
  behind ``repro observe report``.

CLI: ``repro observe {ingest,report,alerts,gc}`` (see
docs/OBSERVATORY.md).  The observatory only ever *reads* pipeline
artefacts — profiles stay bit-identical whether it is enabled or
absent.
"""

from .dashboards import (
    render_alert_feed,
    render_observatory_html,
    render_observatory_report,
)
from .drift import Changepoint, DriftAlert, RoutineTrajectory, detect_drift, trajectories
from .ingest import (
    IngestResult,
    ingest_path,
    ingest_record,
    mtime_iso,
    record_from_bytes,
    record_from_checkpoint,
    record_from_envelope,
    record_from_path,
    record_from_profile_db,
    record_from_stream_dump,
    record_from_telemetry,
)
from .store import (
    HISTORY_FILENAME,
    LOCK_FILENAME,
    STORE_SCHEMA,
    CurveRecord,
    CurveRow,
    ObservatoryStore,
    RunInfo,
    RunRecord,
    store_exists,
)

__all__ = [
    "render_alert_feed",
    "render_observatory_html",
    "render_observatory_report",
    "Changepoint",
    "DriftAlert",
    "RoutineTrajectory",
    "detect_drift",
    "trajectories",
    "IngestResult",
    "ingest_path",
    "ingest_record",
    "mtime_iso",
    "record_from_bytes",
    "record_from_checkpoint",
    "record_from_envelope",
    "record_from_path",
    "record_from_profile_db",
    "record_from_stream_dump",
    "record_from_telemetry",
    "HISTORY_FILENAME",
    "LOCK_FILENAME",
    "STORE_SCHEMA",
    "CurveRecord",
    "CurveRow",
    "ObservatoryStore",
    "RunInfo",
    "RunRecord",
    "store_exists",
]
