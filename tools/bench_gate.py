"""Benchmark-regression gate: diff fresh bench envelopes against baselines.

The gated benches (``benchmarks/bench_kernel_throughput.py``,
``benchmarks/bench_farm_speedup.py``) write ``repro-bench/1`` envelopes
whose payload carries a ``gate`` section::

    "gate": {
        "scale":          <REPRO_BENCH_SCALE the numbers were taken at>,
        "ratios":         {name: value},   # machine-portable (e.g. the flat
                                           # kernel's speedup over the naive
                                           # oracle) — gated by --tolerance
        "throughput":     {name: value},   # absolute events/s — informational
                                           # unless --absolute is given
        "latency_ms":     {name: value},   # e.g. the slap swarm's p99 upload
                                           # latency — gated like a ratio but
                                           # INVERTED (growth is the regression)
        "slo":            {name: burn},    # server-reported SLO burn rates
                                           # (repro slap --json) — inverted
                                           # like latency, plus a hard fail
                                           # when any fresh burn reaches 1.0
                                           # (the budget is spent regardless
                                           # of what the baseline burned)
        "profile_sha256": {name: digest},  # profile-dump hashes — must match
    }

This module compares the envelopes in the results directory against the
committed ``benchmarks/baselines/*.json`` and fails (exit 1) when

* a ``profile_sha256`` digest differs — the analysis *output* changed,
  which no performance work is ever allowed to do; or
* a ratio metric regressed by more than ``--tolerance`` (default 25%) —
  e.g. the flat kernel's speedup over the naive oracle dropped, the
  symptom of a slowdown in the hot loop that a ratio measures free of
  machine speed;
* a latency metric *grew* by more than ``--tolerance`` — the inverted
  direction: for ``latency_ms`` entries (the slap swarm's p99 upload
  latency, ``repro slap --json``) bigger is worse.  Like throughput,
  latency baselines are only meaningful against the machine that
  recorded them — commit one where CI hardware is stable, or gate
  locally;
* with ``--absolute``: an absolute throughput metric regressed likewise
  (off by default — absolute events/s are not comparable across
  machines, so CI gates on ratios, latencies and hashes only).

Typical uses::

    python -m tools.bench_gate --run            # CI: bench + compare
    python -m tools.bench_gate                  # compare existing results
    python -m tools.bench_gate --run --rebaseline   # accept new numbers

``--rebaseline`` copies the fresh envelopes into the baselines
directory; commit the diff with a justification of the change (see
docs/KERNEL.md).  Benches run at ``--scale`` (default 0.5) so the gate
stays fast; baselines must be recorded at the same scale — the gate
refuses to compare envelopes whose gate scales differ.

Every comparison also emits a machine-readable summary
(``repro-gate-summary/1`` JSON, ``--summary`` to relocate/disable):
pass/fail, per-baseline status, and every violation — the artifact CI
archives and downstream tooling parses instead of scraping the log.

With ``--observatory DIR`` the gate run feeds the profile observatory:
fresh envelopes are auto-ingested into the history store (idempotent by
run id), and ``--fail-on-drift`` additionally fails the gate when the
store's drift detector reports a growth-class regression — the gate
then guards cost *functions* across the whole run history, not just
this run's throughput ratios (see docs/OBSERVATORY.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:        # repro.observatory for --observatory runs
    sys.path.insert(0, _SRC)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the bench files whose envelopes carry a ``gate`` section
GATED_BENCHES = (
    os.path.join("benchmarks", "bench_kernel_throughput.py"),
    os.path.join("benchmarks", "bench_farm_speedup.py"),
    os.path.join("benchmarks", "bench_streaming_latency.py"),
)

BASELINES_DIR = os.path.join(_ROOT, "benchmarks", "baselines")

#: REPRO_BENCH_SCALE the gate runs at — big enough that per-round
#: kernel times sit above timer/scheduler noise, small enough that the
#: gate stays a seconds-scale CI job
GATE_SCALE = 1.0

#: schema tag of the machine-readable gate summary artifact
SUMMARY_SCHEMA = "repro-gate-summary/1"

#: default summary artifact location (independent of scratch results
#: directories, so --run does not delete it with the scratch dir)
SUMMARY_PATH = os.path.join(_ROOT, "benchmarks", "results",
                            "bench_gate_summary.json")


class GateFailure(Exception):
    """One comparison violated the gate."""


def load_envelope(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as stream:
        envelope = json.load(stream)
    if envelope.get("schema") != "repro-bench/1":
        raise GateFailure(f"{path}: not a repro-bench/1 envelope")
    return envelope


def gate_section(envelope: Dict, path: str) -> Dict:
    gate = (envelope.get("metrics") or {}).get("gate")
    if not isinstance(gate, dict):
        raise GateFailure(f"{path}: envelope has no gate section")
    return gate


def run_benches(results_dir: str, scale: float, out=sys.stdout) -> None:
    """Run the gated benches into ``results_dir`` at ``scale``."""
    env = dict(os.environ)
    env["REPRO_BENCH_RESULTS"] = results_dir
    env["REPRO_BENCH_SCALE"] = str(scale)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(_ROOT, "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "pytest", *GATED_BENCHES,
               "-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    out.write(f"bench-gate: running {' '.join(GATED_BENCHES)} "
              f"at scale {scale}\n")
    completed = subprocess.run(command, cwd=_ROOT, env=env)
    if completed.returncode != 0:
        raise GateFailure(
            f"benchmark run failed (pytest exit {completed.returncode})")


def compare_envelopes(
    baseline: Dict, fresh: Dict, name: str, tolerance: float,
    absolute: bool = False,
) -> List[str]:
    """Return the list of violations of ``fresh`` against ``baseline``."""
    problems: List[str] = []
    base_gate = gate_section(baseline, f"baseline {name}")
    new_gate = gate_section(fresh, f"result {name}")

    if base_gate.get("scale") != new_gate.get("scale"):
        problems.append(
            f"{name}: gate scales differ (baseline {base_gate.get('scale')} "
            f"vs result {new_gate.get('scale')}) — rerun or --rebaseline "
            f"at a matching REPRO_BENCH_SCALE")
        return problems

    for key, digest in (base_gate.get("profile_sha256") or {}).items():
        fresh_digest = (new_gate.get("profile_sha256") or {}).get(key)
        if fresh_digest != digest:
            problems.append(
                f"{name}: profile hash mismatch for {key!r} — the analysis "
                f"output changed ({digest[:12]}… -> "
                f"{str(fresh_digest)[:12]}…)")

    sections = [("ratios", base_gate.get("ratios") or {})]
    if absolute:
        sections.append(("throughput", base_gate.get("throughput") or {}))
    for section, metrics in sections:
        for key, old in metrics.items():
            new = (new_gate.get(section) or {}).get(key)
            if new is None:
                problems.append(f"{name}: metric {section}.{key} missing "
                                f"from the fresh envelope")
                continue
            if not isinstance(old, (int, float)) or old <= 0:
                continue
            if new < old * (1.0 - tolerance):
                problems.append(
                    f"{name}: {section}.{key} regressed "
                    f"{(1 - new / old) * 100:.1f}% "
                    f"({old} -> {new}, tolerance {tolerance * 100:.0f}%)")

    # latency gates are inverted: growth past tolerance is the regression
    for key, old in (base_gate.get("latency_ms") or {}).items():
        new = (new_gate.get("latency_ms") or {}).get(key)
        if new is None:
            problems.append(f"{name}: metric latency_ms.{key} missing "
                            f"from the fresh envelope")
            continue
        if not isinstance(old, (int, float)) or old <= 0:
            continue
        if new > old * (1.0 + tolerance):
            problems.append(
                f"{name}: latency_ms.{key} grew "
                f"{(new / old - 1) * 100:.1f}% "
                f"({old} -> {new} ms, tolerance {tolerance * 100:.0f}%)")

    # SLO burns gate in two layers: relative growth like latency, plus a
    # hard rule — burn >= 1.0 means the budget is spent, full stop
    for key, new in (new_gate.get("slo") or {}).items():
        if isinstance(new, (int, float)) and new >= 1.0:
            problems.append(
                f"{name}: slo.{key} is {new:.2f} — the SLO budget is "
                f"burned (>= 1.0 always fails)")
    for key, old in (base_gate.get("slo") or {}).items():
        new = (new_gate.get("slo") or {}).get(key)
        if new is None:
            problems.append(f"{name}: metric slo.{key} missing "
                            f"from the fresh envelope")
            continue
        if not isinstance(old, (int, float)) or old <= 0:
            continue
        if new > old * (1.0 + tolerance):
            problems.append(
                f"{name}: slo.{key} burn grew "
                f"{(new / old - 1) * 100:.1f}% "
                f"({old} -> {new}, tolerance {tolerance * 100:.0f}%)")
    return problems


def _ingest_observatory(
    observatory: str, results_dir: str, fail_on_drift: bool, out,
) -> Dict:
    """Auto-ingest fresh envelopes; optionally detect growth-class drift.

    Returns the ``observatory`` section of the gate summary.  Drift
    regressions are reported (and gated with ``fail_on_drift``) from
    the whole history store — envelopes ingested here plus whatever
    profile runs `repro observe ingest` fed it before.
    """
    from repro.observatory import ObservatoryStore, detect_drift, ingest_path

    store = ObservatoryStore(observatory)
    ingested, skipped = [], []
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        if not name.endswith(".json"):
            continue
        try:
            result = ingest_path(store, path)
        except (ValueError, OSError):
            continue    # not an envelope (e.g. the gate summary itself)
        (ingested if result.ingested else skipped).append(result.run_id)
    out.write(f"bench-gate: observatory {observatory}: "
              f"{len(ingested)} envelope(s) ingested, "
              f"{len(skipped)} already known, {len(store)} run(s) total\n")
    alerts = detect_drift(store)
    regressions = [alert for alert in alerts if alert.verdict == "regressed"]
    for alert in regressions:
        out.write(f"bench-gate: drift: {alert.routine} regressed "
                  f"{alert.old_growth} -> {alert.new_growth} over "
                  f"{alert.runs_observed} run(s)\n")
    return {
        "store": observatory,
        "ingested": ingested,
        "skipped": skipped,
        "alerts": [alert._asdict() for alert in alerts],
        "drift_gated": fail_on_drift,
        "drift_regressions": len(regressions),
    }


def _write_summary(path: str, summary: Dict, out) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2, sort_keys=True)
        stream.write("\n")
    out.write(f"bench-gate: wrote summary to {path}\n")


def run_gate(
    results_dir: str,
    baselines_dir: str = BASELINES_DIR,
    tolerance: float = 0.25,
    absolute: bool = False,
    rebaseline: bool = False,
    summary_path: Optional[str] = SUMMARY_PATH,
    observatory: Optional[str] = None,
    fail_on_drift: bool = False,
    out=sys.stdout,
) -> int:
    """Compare every baseline against its fresh envelope; 0 iff clean."""
    try:
        baseline_names = sorted(
            name for name in os.listdir(baselines_dir) if name.endswith(".json"))
    except OSError:
        baseline_names = []
    if rebaseline:
        os.makedirs(baselines_dir, exist_ok=True)
        rebaselined = 0
        for name in sorted(os.listdir(results_dir)):
            if not name.endswith(".json"):
                continue
            try:
                envelope = load_envelope(os.path.join(results_dir, name))
            except GateFailure:
                continue    # non-envelope JSON (e.g. a gate summary)
            # only envelopes that carry a gate section become baselines
            if not isinstance((envelope.get("metrics") or {}).get("gate"), dict):
                continue
            shutil.copyfile(os.path.join(results_dir, name),
                            os.path.join(baselines_dir, name))
            out.write(f"bench-gate: rebaselined {name}\n")
            rebaselined += 1
        if not rebaselined:
            out.write(f"bench-gate: nothing to rebaseline in {results_dir}\n")
            return 1
        return 0

    summary: Dict = {
        "schema": SUMMARY_SCHEMA,
        "tolerance": tolerance,
        "absolute": absolute,
        "results_dir": results_dir,
        "baselines_dir": baselines_dir,
        "compared": [],
        "problems": [],
        "ok": False,
    }
    problems: List[str] = []
    if not baseline_names:
        out.write(f"bench-gate: no baselines under {baselines_dir}; "
                  f"run with --rebaseline to create them\n")
        problems.append(f"no baselines under {baselines_dir}")
    for name in baseline_names:
        baseline = load_envelope(os.path.join(baselines_dir, name))
        fresh_path = os.path.join(results_dir, name)
        if not os.path.exists(fresh_path):
            problems.append(f"{name}: no fresh envelope in {results_dir} "
                            f"(did the bench run?)")
            summary["compared"].append({"name": name, "status": "missing"})
            continue
        fresh = load_envelope(fresh_path)
        found = compare_envelopes(baseline, fresh, name, tolerance, absolute)
        summary["compared"].append({
            "name": name,
            "status": "fail" if found else "ok",
            "baseline_run_id": baseline.get("run_id"),
            "fresh_run_id": fresh.get("run_id"),
            "violations": list(found),
        })
        if found:
            problems.extend(found)
        else:
            out.write(f"bench-gate: {name} OK\n")

    if observatory is not None:
        summary["observatory"] = _ingest_observatory(
            observatory, results_dir, fail_on_drift, out)
        if fail_on_drift and summary["observatory"]["drift_regressions"]:
            problems.append(
                f"growth-class drift: "
                f"{summary['observatory']['drift_regressions']} routine(s) "
                f"regressed across the observed run history")

    summary["problems"] = list(problems)
    summary["ok"] = not problems
    if summary_path:
        _write_summary(summary_path, summary, out)
    if problems:
        for problem in problems:
            out.write(f"bench-gate: FAIL: {problem}\n")
        out.write(f"bench-gate: {len(problems)} violation(s); to accept "
                  f"intentional changes run `python -m tools.bench_gate "
                  f"--run --rebaseline` and commit the baselines diff\n")
        return 1
    out.write("bench-gate: all baselines hold\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.bench_gate",
        description="benchmark-regression gate over repro-bench/1 envelopes",
    )
    parser.add_argument("--run", action="store_true",
                        help="run the gated benches first (into a scratch "
                             "results directory)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="copy fresh envelopes into the baselines "
                             "directory instead of comparing")
    parser.add_argument("--tolerance", type=float, default=0.25, metavar="T",
                        help="allowed fractional regression of gated "
                             "metrics (default 0.25)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate absolute throughput numbers "
                             "(same-machine comparisons only)")
    parser.add_argument("--scale", type=float, default=GATE_SCALE,
                        help=f"REPRO_BENCH_SCALE for --run "
                             f"(default {GATE_SCALE}; must match baselines)")
    parser.add_argument("--results", metavar="DIR", default=None,
                        help="envelope directory to compare "
                             "(default: scratch dir with --run, else "
                             "benchmarks/results/)")
    parser.add_argument("--baselines", metavar="DIR", default=BASELINES_DIR,
                        help="baseline directory (default benchmarks/baselines/)")
    parser.add_argument("--summary", metavar="FILE", default=SUMMARY_PATH,
                        help="machine-readable repro-gate-summary/1 artifact "
                             "(default benchmarks/results/"
                             "bench_gate_summary.json; 'none' to disable)")
    parser.add_argument("--observatory", metavar="DIR", default=None,
                        help="auto-ingest fresh envelopes into this profile-"
                             "observatory store (see docs/OBSERVATORY.md)")
    parser.add_argument("--fail-on-drift", action="store_true",
                        help="with --observatory: fail when the store's "
                             "drift detector reports a growth-class "
                             "regression")
    args = parser.parse_args(argv)
    if args.fail_on_drift and args.observatory is None:
        parser.error("--fail-on-drift requires --observatory DIR")
    summary_path = None if args.summary == "none" else args.summary

    scratch = None
    results_dir = args.results
    if results_dir is None:
        if args.run:
            scratch = tempfile.mkdtemp(prefix="repro-bench-gate-")
            results_dir = scratch
        else:
            results_dir = os.path.join(_ROOT, "benchmarks", "results")
    try:
        if args.run:
            run_benches(results_dir, args.scale)
        return run_gate(results_dir, args.baselines, args.tolerance,
                        args.absolute, args.rebaseline,
                        summary_path=summary_path,
                        observatory=args.observatory,
                        fail_on_drift=args.fail_on_drift)
    except GateFailure as failure:
        sys.stdout.write(f"bench-gate: FAIL: {failure}\n")
        return 1
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
