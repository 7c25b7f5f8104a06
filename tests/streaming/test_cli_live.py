"""CLI round trip: ``repro record --live`` and ``repro watch``."""

import filecmp
import io
import os

import pytest

from repro.cli import main
from repro.core import ProfileDatabase
from repro.farm import live_names_path

from .util import MALFORMED_CHECKPOINTS, dump_bytes, write_checkpoint_dir


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_record_live_then_watch_then_batch_identity(tmp_path):
    trace = str(tmp_path / "live.rpt2")
    ckpt = str(tmp_path / "ckpt")
    code, output = run_cli(
        "record", "376.kdtree", trace, "--threads", "2", "--scale", "0.3",
        "--live", ckpt, "--checkpoint-events", "2000")
    assert code == 0
    assert "live checkpoint" in output

    code, frame = run_cli("watch", ckpt, "--once")
    assert code == 0
    assert "repro watch" in frame and "closed" in frame

    streamed = str(tmp_path / "streamed.profile")
    batch = str(tmp_path / "batch.profile")
    from repro.streaming import checkpoint_dump_bytes

    with open(streamed, "wb") as stream:
        stream.write(checkpoint_dump_bytes(ckpt))
    code, _ = run_cli("analyze", trace, "--dump", batch)
    assert code == 0
    assert filecmp.cmp(streamed, batch, shallow=False)


def test_watch_follows_a_growing_trace(tmp_path):
    """``repro watch <trace> --checkpoints DIR --once`` co-tails: it can
    analyse a finished trace from scratch with no recorder help."""
    trace = str(tmp_path / "t.rpt2")
    ckpt = str(tmp_path / "ckpt")
    code, _ = run_cli("record", "376.kdtree", trace, "--threads", "2",
                      "--scale", "0.2", "--live", str(tmp_path / "unused"))
    assert code == 0
    code, frame = run_cli("watch", trace, "--checkpoints", ckpt, "--once")
    assert code == 0
    assert "checkpoint #" in frame


def test_unusable_output_paths_are_one_error_line(tmp_path):
    """A trace or checkpoint directory under a regular file cannot be
    created: one ``error:`` line, exit 2, and no files left behind."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    trace = tmp_path / "t.rpt2"
    for argv in (
        ("record", "350.md", str(blocker / "t.rpt2"), "--scale", "0.2"),
        ("record", "350.md", str(trace), "--scale", "0.2",
         "--live", str(blocker / "ckpt")),
        ("watch", str(trace), "--checkpoints", str(blocker / "ckpt"), "--once"),
    ):
        code, output = run_cli(*argv)
        assert code == 2, argv
        assert output.startswith("error: ") and output.count("\n") == 1, output
    assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker"]


def test_record_live_exits_2_when_its_session_dies(tmp_path, monkeypatch):
    """A live session that raises is one ``error:`` line and exit 2, not a
    traceback and a ``0 live checkpoint(s)`` success; the trace is still
    the one a plain ``record`` writes."""
    from repro.streaming.snapshot import SnapshotWriter

    def emit(self, *args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(SnapshotWriter, "emit", emit)
    live, plain = str(tmp_path / "live.rpt2"), str(tmp_path / "plain.rpt2")
    ckpt = str(tmp_path / "ckpt")
    code, output = run_cli("record", "376.kdtree", live, "--threads", "2",
                           "--scale", "0.2", "--live", ckpt,
                           "--checkpoint-events", "500")
    assert code == 2
    assert output == (f"error: live session in {ckpt} failed (OSError: no "
                      f"space left on device); the trace {live} is complete\n")
    code, _ = run_cli("record", "376.kdtree", plain, "--threads", "2",
                      "--scale", "0.2")
    assert code == 0
    assert filecmp.cmp(live, plain, shallow=False)


def test_plain_record_removes_a_stale_names_sidecar(tmp_path):
    """An earlier ``--live`` recording's sidecar would name the routines
    of a plain re-recording wrongly for a co-tailing ``watch``."""
    trace = str(tmp_path / "t.rpt2")
    code, _ = run_cli("record", "376.kdtree", trace, "--threads", "2",
                      "--scale", "0.2", "--live", str(tmp_path / "old"))
    assert code == 0 and os.path.exists(live_names_path(trace))
    code, _ = run_cli("record", "350.md", trace, "--scale", "0.2")
    assert code == 0 and not os.path.exists(live_names_path(trace))

    ckpt = str(tmp_path / "ckpt")
    code, frame = run_cli("watch", trace, "--checkpoints", ckpt, "--timeout", "60")
    assert code == 0 and "closed" in frame
    from repro.streaming import checkpoint_dump_bytes

    batch = tmp_path / "batch.profile"
    assert run_cli("analyze", trace, "--dump", str(batch))[0] == 0
    assert checkpoint_dump_bytes(ckpt) == batch.read_bytes()


@pytest.mark.parametrize("mode", [("--once",), ("--timeout", "60")])
def test_watch_reports_a_trace_error_as_one_error_line(tmp_path, mode):
    """A sidecar that names too few routines for an unsealed trace makes
    a chunk's CALL id fall outside the table: one ``error:`` line."""
    trace = str(tmp_path / "t.rpt2")
    assert run_cli("record", "350.md", trace, "--scale", "0.2")[0] == 0
    with open(trace, "r+b") as stream:
        stream.truncate(os.path.getsize(trace) - 1)      # tear the trailer
    with open(live_names_path(trace), "w") as stream:
        stream.write("stale\n")
    code, output = run_cli("watch", trace, "--checkpoints", str(tmp_path / "ckpt"), *mode)
    assert code == 2
    assert output.startswith("error: ") and output.count("\n") == 1, output


def test_watch_without_checkpoints_errors(tmp_path):
    code, output = run_cli("watch", str(tmp_path / "nothere"), "--once")
    assert code != 0


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_watch_reports_malformed_checkpoint_dirs(tmp_path, case):
    directory = str(tmp_path / "ckpt")
    write_checkpoint_dir(directory, case)
    code, output = run_cli("watch", directory, "--once")
    assert code == 2
    assert output.startswith("error: ") and output.count("error:") == 1


def test_observe_ingest_reports_malformed_checkpoint_dirs_and_goes_on(tmp_path):
    directories = []
    for case in sorted(MALFORMED_CHECKPOINTS):
        directories.append(str(tmp_path / case))
        write_checkpoint_dir(directories[-1], case)
    db = ProfileDatabase()
    for size in (4, 8, 16):
        db.add_activation("alpha", 1, size, 3 * size)
    good = tmp_path / "good.profile"
    good.write_bytes(dump_bytes(db))
    code, output = run_cli("observe", "ingest", *directories, str(good),
                           "--store", str(tmp_path / "obs"))
    assert code == 1
    assert output.count("error:") == len(directories)
    assert f"{good}: ingested" in output
