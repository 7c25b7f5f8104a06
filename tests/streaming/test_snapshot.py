"""Checkpoint snapshots: full dumps, atomicity, manifest validation."""

import json
import os

import pytest

from repro.core import ProfileDatabase
from repro.farm import ProfileDumpError
from repro.streaming import (
    MANIFEST_NAME,
    STREAM_SCHEMA,
    SnapshotWriter,
    checkpoint_dump_bytes,
    load_checkpoint,
    load_manifest,
)

from .util import MALFORMED_CHECKPOINTS, dump_bytes, write_checkpoint_dir


def growing_db(rounds):
    """Yield the same ProfileDatabase after each round of activations."""
    db = ProfileDatabase()
    for index in range(rounds):
        for size in (4, 8, 16):
            db.add_activation("hot", 1, size, size * (index + 2))
            if index == 0:
                db.add_activation(f"cold{size}", 1, size, size)
        yield db


def test_emit_then_reload_is_exact(tmp_path):
    writer = SnapshotWriter(str(tmp_path), "s1")
    db = None
    for db in growing_db(3):
        info = writer.emit(db, events_analyzed=100)
        # every checkpoint is a whole save_profile dump of its database
        assert not info.delta
        with open(info.path, "rb") as stream:
            assert stream.read() == dump_bytes(db)
        assert info.bytes_written == len(dump_bytes(db))
    manifest, loaded = load_checkpoint(str(tmp_path))
    assert manifest["seq"] == 3
    assert dump_bytes(loaded) == dump_bytes(db)
    assert checkpoint_dump_bytes(str(tmp_path)) == dump_bytes(db)


def test_manifest_schema_and_atomicity(tmp_path):
    writer = SnapshotWriter(str(tmp_path), "abc123")
    for db in growing_db(4):
        writer.emit(db, events_analyzed=7, events_behind=3, lag_ms=1.25,
                    events_per_s=1000.0, timestamp="2026-08-07T00:00:00")
    raw = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert raw["schema"] == STREAM_SCHEMA
    assert raw["stream_id"] == "abc123"
    assert raw["seq"] == 4
    assert raw["events_analyzed"] == 7 and raw["events_behind"] == 3
    assert raw["lag_ms"] == 1.25 and raw["events_per_s"] == 1000.0
    assert raw["closed"] is False
    # atomic writes never leave temp files behind
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_wrong_schema_is_rejected(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps({"schema": "bogus/9"}))
    with pytest.raises(ProfileDumpError):
        load_manifest(str(tmp_path))
    # so is any other malformed manifest, and a manifest naming a file
    # that is missing, outside the directory, or not a profile dump
    for case in MALFORMED_CHECKPOINTS:
        directory = str(tmp_path / case)
        write_checkpoint_dir(directory, case)
        with pytest.raises(ProfileDumpError):
            checkpoint_dump_bytes(directory)
        with pytest.raises(ProfileDumpError):
            load_checkpoint(directory)
