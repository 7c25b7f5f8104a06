#!/usr/bin/env python3
"""Pipeline benchmark: record → encode → decode → analyze → dump → ingest → drift.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; metric
names and units come from ``BENCHMARK.json``.  See perfbench/README.md.

The benchmark reads and writes only inside the checkout: inputs,
traces, dumps and the server's tenant stores live in a scratch
directory under ``.perfbench_work/`` that is removed on exit, and
temporary files of the program are pointed there too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKLOADS = ("batch", "live", "service")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def expected_metrics(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as stream:
        spec = json.load(stream)
    section = spec["per_layer"] if traced else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "cli.py")):
        print(f"error: no repro sources under {SOURCE}", file=sys.stderr)
        return 2
    units = expected_metrics(bool(args.trace))
    sys.path.insert(0, SOURCE)
    # the farm and the service re-import repro in child processes
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    scratch = os.path.join(work, "tmp")
    os.makedirs(scratch)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    try:
        if args.workload == "batch":
            import batch as workload
        elif args.workload == "live":
            import live as workload
        else:
            import service as workload
        measure = workload.measure_traced if args.trace else workload.measure
        values, tally = measure(args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass        # another run still uses it

    missing = sorted(set(units) - set(values))
    if missing and not args.trace:
        print(f"error: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        # a layer that does no work on this workload reports 0
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            print(f"error: metric {name} is {value}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    unknown = sorted(set(values) - set(units))
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
