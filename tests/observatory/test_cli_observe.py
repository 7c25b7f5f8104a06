"""CLI tests: `repro observe {ingest,report,alerts,gc}` and `repro diff`."""

import io
import json
import sys

import pytest

from repro.cli import build_parser, main
from repro.farm import save_profile
from repro.observatory import ObservatoryStore

from .util import db_from


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_dump(path, routines, sizes=(4, 8, 16, 32, 64)):
    with open(path, "w", encoding="utf-8") as stream:
        save_profile(db_from(routines, sizes=sizes), stream)
    return str(path)


def seeded_cli_store(tmp_path, histories):
    """Ingest one dump per history dict, in order, via the CLI."""
    store = str(tmp_path / "obs")
    for index, routines in enumerate(histories):
        dump = write_dump(tmp_path / f"run{index}.prof", routines)
        code, out = run_cli("observe", "ingest", dump, "--store", store,
                            "--run-id", f"run{index}")
        assert code == 0, out
    return store


def test_ingest_reports_and_is_idempotent(tmp_path):
    dump = write_dump(tmp_path / "a.prof", {"f": lambda n: 10 * n})
    store = str(tmp_path / "obs")
    code, out = run_cli("observe", "ingest", dump, "--store", store)
    assert code == 0
    assert "ingested" in out
    assert "1 run(s)" in out
    code, out = run_cli("observe", "ingest", dump, "--store", store)
    assert code == 0
    assert "already known (skipped)" in out
    assert "1 run(s)" in out


def test_ingest_rejects_garbage_with_exit_1(tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_text("definitely not a profile\n")
    code, out = run_cli("observe", "ingest", str(junk),
                        "--store", str(tmp_path / "obs"))
    assert code == 1
    assert "error:" in out


def test_ingest_whose_every_input_fails_creates_no_store(tmp_path, monkeypatch):
    """The store is opened once an input has parsed, so a later read
    gate still sees no store (the rule ``repro serve`` follows too)."""
    hostname = tmp_path / "hostname"
    hostname.write_text("buildhost\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"buildhost\n")))
    store = tmp_path / "new"
    code, out = run_cli("observe", "ingest", str(hostname), "-",
                        "--store", str(store))
    assert code == 1
    assert out.count("error:") == 2
    assert f"store {store}: not created" in out
    assert not (store / "history.jsonl").exists()
    code, out = run_cli("observe", "alerts", "--store", str(store),
                        "--fail-on", "regressed")
    assert code == 2
    assert out == f"error: no observatory store at {store}\n"


def test_ingest_opens_the_store_at_the_first_input_that_parses(tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_text("definitely not a profile\n")
    dump = write_dump(tmp_path / "a.prof", {"f": lambda n: 10 * n})
    store = str(tmp_path / "obs")
    code, out = run_cli("observe", "ingest", str(junk), dump, "--store", store)
    assert code == 1
    assert "ingested" in out and f"store {store}: 1 run(s)" in out
    with ObservatoryStore(store) as reopened:
        assert len(reopened) == 1


def test_ingest_run_id_needs_single_input(tmp_path):
    a = write_dump(tmp_path / "a.prof", {"f": lambda n: n})
    b = write_dump(tmp_path / "b.prof", {"f": lambda n: n})
    code, out = run_cli("observe", "ingest", a, b,
                        "--store", str(tmp_path / "obs"), "--run-id", "r")
    assert code == 2
    assert "exactly one input" in out


def test_report_renders_and_writes_html(tmp_path):
    store = seeded_cli_store(tmp_path, [
        {"f": lambda n: 10 * n},
        {"f": lambda n: n * n},
    ])
    html_path = tmp_path / "dash.html"
    code, out = run_cli("observe", "report", "--store", store,
                        "--html", str(html_path))
    assert code == 0
    assert "Fleet summary" in out
    assert "regressed" in out
    html = html_path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "regressed" in html


def test_alerts_fail_on_trips_exit_code(tmp_path):
    store = seeded_cli_store(tmp_path, [
        {"f": lambda n: 10 * n},
        {"f": lambda n: n * n},
    ])
    code, out = run_cli("observe", "alerts", "--store", store)
    assert code == 0          # alerts alone never fail
    assert "regressed" in out
    code, out = run_cli("observe", "alerts", "--store", store,
                        "--fail-on", "regressed")
    assert code == 1
    assert "failing on verdict(s): regressed" in out


def test_alerts_fail_on_clean_history_passes(tmp_path):
    store = seeded_cli_store(tmp_path, [
        {"f": lambda n: 10 * n},
        {"f": lambda n: 10 * n},
    ])
    code, out = run_cli("observe", "alerts", "--store", store,
                        "--fail-on", "regressed")
    assert code == 0
    assert "no drift" in out


def test_alerts_unknown_verdict_exits_2(tmp_path):
    store = seeded_cli_store(tmp_path, [{"f": lambda n: n}])
    code, out = run_cli("observe", "alerts", "--store", store,
                        "--fail-on", "explosive")
    assert code == 2
    assert "unknown verdict" in out


def test_gc_drops_oldest_runs(tmp_path):
    # identical dumps, but the explicit --run-id keeps all four distinct
    store = seeded_cli_store(tmp_path, [
        {"f": lambda n: n} for _ in range(4)
    ])
    code, out = run_cli("observe", "gc", "--store", store, "--keep", "2")
    assert code == 0
    assert "dropped 2 run(s), 2 left" in out
    assert len(ObservatoryStore(store)) == 2
    code, out = run_cli("observe", "gc", "--store", store, "--keep", "-1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["report"],
    ["alerts", "--fail-on", "regressed"],
    ["gc", "--keep", "1"],
], ids=["report", "alerts-fail-on", "gc"])
def test_reads_refuse_a_missing_store(argv, tmp_path):
    """A mistyped ``--store`` is an error, not a new empty store: an
    alert gate over it must not pass."""
    store = tmp_path / "typo"
    code, out = run_cli("observe", argv[0], "--store", str(store), *argv[1:])
    assert code == 2
    assert out == f"error: no observatory store at {store}\n"
    assert not store.exists()


def test_ingest_has_no_top_k_flag(capsys):
    """Every run keeps the raw plots of its 10 costliest routines; the
    knob is gone.  Only the parser runs."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["observe", "ingest", "run.prof",
                                   "--store", "obs", "--top-k", "5"])
    assert exit_info.value.code == 2
    assert "--top-k" in capsys.readouterr().err


def test_ingest_bench_envelope_uses_its_run_identity(tmp_path):
    envelope = {
        "schema": "repro-bench/1",
        "run_id": "bench-runid-42",
        "git_sha": "deadbeef",
        "timestamp": "2026-08-01T00:00:00+00:00",
        "bench": "kernel",
        "scale": 1.0,
        "metrics": {"gate": {"scale": 1.0, "ratios": {"speedup": 2.0}}},
    }
    path = tmp_path / "env.json"
    path.write_text(json.dumps(envelope))
    store = str(tmp_path / "obs")
    code, out = run_cli("observe", "ingest", str(path), "--store", store)
    assert code == 0
    assert "bench-runid-42" in out
    assert "[bench:kernel]" in out
    opened = ObservatoryStore(store)
    (info,) = opened.runs()
    assert info.run_id == "bench-runid-42"
    metrics = opened.metrics_for(info.seq)
    assert metrics["gate.ratios.speedup"] == 2.0


def test_diff_subcommand_finds_regression(tmp_path):
    old = write_dump(tmp_path / "old.prof", {"f": lambda n: 10 * n})
    new = write_dump(tmp_path / "new.prof", {"f": lambda n: n * n})
    code, out = run_cli("diff", old, new)
    assert code == 0
    assert "regressed" in out
    assert "O(n)" in out and "O(n^2)" in out


def test_diff_fail_on_exit_codes(tmp_path):
    old = write_dump(tmp_path / "old.prof", {"f": lambda n: 10 * n})
    new = write_dump(tmp_path / "new.prof", {"f": lambda n: n * n})
    same = write_dump(tmp_path / "same.prof", {"f": lambda n: 10 * n})
    code, out = run_cli("diff", old, new, "--fail-on", "regressed")
    assert code == 1
    assert "failing on verdict(s): regressed" in out
    code, _ = run_cli("diff", old, same, "--fail-on", "regressed,slower")
    assert code == 0
    code, out = run_cli("diff", old, new, "--fail-on", "nonsense")
    assert code == 2


def test_diff_missing_file_exits_2(tmp_path):
    old = write_dump(tmp_path / "old.prof", {"f": lambda n: n})
    code, out = run_cli("diff", old, str(tmp_path / "absent.prof"))
    assert code == 2
    assert "error:" in out


@pytest.mark.parametrize("scale", ["inf", "nan", "-Infinity"])
def test_ingest_refuses_a_non_finite_scale(tmp_path, capsys, scale):
    """Exit 2 with a usage line, before any input is read or a store made."""
    dump = write_dump(tmp_path / "a.prof", {"f": lambda n: 10 * n})
    store = tmp_path / "obs"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("observe", "ingest", dump, "--store", str(store), f"--scale={scale}")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"--scale: must be a finite number, got {scale}" in err
    assert not store.exists()


@pytest.mark.parametrize("literal,error", [
    ("Infinity", "run 'b1': metric 'gate.wall_s' is not finite: inf"),
    ("NaN", "run 'b1': metric 'gate.wall_s' is not finite: nan"),
    ("-1e999", "run 'b1': metric 'gate.wall_s' is not finite: -inf"),
    ("1e303", "run 'b1': metric 'gate.wall_s' is too large to store: 1e+303"),
    ("1" + "0" * 400, "metric 'gate.wall_s' is too large to store"),
], ids=["Infinity", "NaN", "-1e999", "1e303", "huge-int"])
def test_ingest_refuses_an_envelope_holding_infinity(tmp_path, literal, error):
    """One ``error:`` line and exit 1; no store is created by it, an
    existing one keeps its log, and every later read still works."""
    path = tmp_path / "env.json"
    path.write_text('{"schema": "repro-bench/1", "run_id": "b1", '
                    '"metrics": {"gate": {"wall_s": %s}}}' % literal)
    store = tmp_path / "obs"
    code, out = run_cli("observe", "ingest", str(path), "--store", str(store))
    assert code == 1
    assert out.count("error:") == 1
    assert f"error: {error}\n" in out
    assert not store.exists()

    dump = write_dump(tmp_path / "a.prof", {"f": lambda n: 10 * n})
    assert run_cli("observe", "ingest", dump, "--store", str(store))[0] == 0
    code, out = run_cli("observe", "ingest", str(path), "--store", str(store))
    assert code == 1 and out.count("error:") == 1
    history = (store / "history.jsonl").read_text()
    assert "Infinity" not in history and "NaN" not in history
    for argv in (("ingest", dump), ("alerts",), ("report",)):
        code, out = run_cli("observe", *argv, "--store", str(store))
        assert code == 0, out



_UNKNOWN = ("not a profile dump, v2 trace, telemetry run, bench envelope "
            "or checkpoint directory")
_NOT_OBJECTS = {"list": "[1]", "string": '"telemetry"', "number": "7"}


@pytest.mark.parametrize("shape", sorted(_NOT_OBJECTS))
def test_ingest_of_jsonl_whose_first_line_is_no_object(tmp_path, monkeypatch, shape):
    """A ``.jsonl`` file starting with JSON that is no object is no
    telemetry log: it answers the unknown-kind ``error:`` line the same
    bytes answer on stdin, and the command goes on to its next input."""
    line = _NOT_OBJECTS[shape] + "\n"
    path = tmp_path / "x.jsonl"
    path.write_text(line)
    dump = write_dump(tmp_path / "a.prof", {"f": lambda n: 10 * n})
    store = tmp_path / "obs"
    code, out = run_cli("observe", "ingest", str(path), dump, "--store", str(store))
    assert code == 1
    assert out.count("error:") == 1
    assert f"error: {path}: {_UNKNOWN}\n" in out
    assert f"{dump}: ingested" in out
    with ObservatoryStore(str(store)) as reopened:
        assert len(reopened) == 1

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(line.encode())))
    code, out = run_cli("observe", "ingest", "-", "--store", str(store))
    assert code == 1
    assert out.count("error:") == 1
    assert f"error: -: {_UNKNOWN}\n" in out
