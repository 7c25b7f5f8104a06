"""Checkpoint emitter: periodic partial-profile snapshots, atomically.

While a trace streams, the incremental engine's
:class:`~repro.core.profile_data.ProfileDatabase` is a running partial
profile; this module materialises it for everything downstream (the
``repro watch`` dashboard, observatory ingest, ``put_stream`` uploads).

* **One format.**  Every checkpoint is a full ``repro-profile 1`` dump
  written by :func:`repro.farm.merge.save_profile`, so
  :func:`checkpoint_dump_bytes` returns the very byte string
  ``save_profile`` emits for the same database — that's what the
  streaming differential suite compares against batch
  ``repro analyze`` output.

* **Atomic + sequenced.**  Every checkpoint is written to a temp file,
  fsynced and ``os.replace``\\ d into ``checkpoint-<seq>.profile``;
  then a ``CURRENT.json`` manifest — itself replaced atomically, last —
  names that file, its sequence number and the lag metrics.  A reader
  never observes a half-written snapshot.
"""

from __future__ import annotations

import io
import json
import os
from typing import Dict, NamedTuple, Optional, Tuple

from ..core.profile_data import ProfileDatabase
from ..farm.merge import PROFILE_MAGIC, ProfileDumpError, load_profile, save_profile

__all__ = [
    "MANIFEST_NAME",
    "STREAM_SCHEMA",
    "CheckpointInfo",
    "SnapshotWriter",
    "load_manifest",
    "checkpoint_dump_bytes",
    "load_checkpoint",
]

MANIFEST_NAME = "CURRENT.json"
STREAM_SCHEMA = "repro-stream/1"


class CheckpointInfo(NamedTuple):
    """What :meth:`SnapshotWriter.emit` just wrote."""

    seq: int
    path: str
    delta: bool            #: always False (every checkpoint is a full dump); kept for readers
    bytes_written: int


def _atomic_write(path: str, text: str) -> int:
    tmp = path + ".tmp"
    data = text.encode("utf-8")
    with open(tmp, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
    return len(data)


class SnapshotWriter:
    """Emit sequence-numbered partial-profile checkpoints into a directory."""

    def __init__(self, directory: str, stream_id: str):
        self.directory = directory
        self.stream_id = stream_id
        self.seq = 0
        os.makedirs(directory, exist_ok=True)

    def emit(
        self,
        db: ProfileDatabase,
        events_analyzed: int,
        events_behind: int = 0,
        lag_ms: float = 0.0,
        events_per_s: float = 0.0,
        closed: bool = False,
        timestamp: str = "",
        extra: Optional[Dict] = None,
    ) -> CheckpointInfo:
        """Write checkpoint ``seq+1`` of ``db`` and repoint the manifest."""
        self.seq += 1
        dump = io.StringIO()
        save_profile(db, dump)
        name = f"checkpoint-{self.seq:06d}.profile"
        path = os.path.join(self.directory, name)
        size = _atomic_write(path, dump.getvalue())
        manifest = {
            "schema": STREAM_SCHEMA,
            "stream_id": self.stream_id,
            "seq": self.seq,
            "file": name,
            "closed": bool(closed),
            "events_analyzed": int(events_analyzed),
            "events_behind": int(events_behind),
            "lag_ms": round(float(lag_ms), 3),
            "events_per_s": round(float(events_per_s), 1),
            "timestamp": timestamp,
        }
        if extra:
            manifest.update(extra)
        _atomic_write(os.path.join(self.directory, MANIFEST_NAME),
                      json.dumps(manifest, sort_keys=True) + "\n")
        return CheckpointInfo(self.seq, path, False, size)


# -- reading ------------------------------------------------------------------


def load_manifest(directory: str) -> Dict:
    """Read and validate ``CURRENT.json`` of a checkpoint directory.

    Raises :class:`~repro.farm.merge.ProfileDumpError` unless the
    manifest is a ``repro-stream/1`` JSON object whose ``file`` is a
    plain file name, so that reading it never leaves ``directory``.
    A missing manifest raises ``FileNotFoundError``.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as stream:
        try:
            manifest = json.load(stream)
        except ValueError as error:
            raise ProfileDumpError(f"{path}: not JSON ({error})") from None
    if not isinstance(manifest, dict):
        raise ProfileDumpError(f"{path}: manifest is not a JSON object")
    if manifest.get("schema") != STREAM_SCHEMA:
        raise ProfileDumpError(
            f"{path}: not a {STREAM_SCHEMA} manifest "
            f"(schema {manifest.get('schema')!r})")
    name = manifest.get("file")
    if (not isinstance(name, str) or name in ("", ".", "..")
            or os.path.basename(name) != name):
        raise ProfileDumpError(
            f"{path}: 'file' must be a plain file name, not {name!r}")
    return manifest


def checkpoint_dump_bytes(directory: str, manifest: Optional[Dict] = None) -> bytes:
    """The newest checkpoint: the bytes of the file the manifest names.

    They are exactly what :func:`~repro.farm.merge.save_profile` wrote
    for the checkpointed database.  A named file that is missing, or
    whose first line is not ``repro-profile 1`` (such as a delta file
    left by an older writer), raises
    :class:`~repro.farm.merge.ProfileDumpError`.
    """
    if manifest is None:
        manifest = load_manifest(directory)
    path = os.path.join(directory, manifest["file"])
    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except FileNotFoundError:
        raise ProfileDumpError(
            f"{path}: checkpoint named by {MANIFEST_NAME} is missing") from None
    first = data.split(b"\n", 1)[0].decode("utf-8", errors="replace")
    if first != PROFILE_MAGIC:
        raise ProfileDumpError(f"{path}: not a profile dump (header {first!r})")
    return data


def load_checkpoint(directory: str) -> Tuple[Dict, ProfileDatabase]:
    """Load the newest checkpoint: ``(manifest, partial ProfileDatabase)``."""
    manifest = load_manifest(directory)
    dump = checkpoint_dump_bytes(directory, manifest)
    db = load_profile(io.StringIO(dump.decode("utf-8")))
    return manifest, db
