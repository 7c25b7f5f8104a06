"""Helpers shared by the workloads: statistics, hashing, memory, tallies."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from typing import Callable, List, Sequence, Tuple

#: times the input preparation is repeated per run; setup_s is the median
SETUP_REPEATS = 5
#: records the calibration workload hashes, sorts and sums
CALIBRATION_RECORDS = 6000
#: calibration workload runs per calibration; the fastest counts
CALIBRATION_RUNS = 3
#: the calibration workload's time on the reference host when
#: undisturbed (a 2-vCPU 2.0 GHz x86-64 VM, CPython 3); timings are
#: reported at that host's speed
REFERENCE_CALIBRATION_S = 0.0030


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process, from /proc."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def _calibration_workload() -> float:
    started = time.perf_counter()
    table: dict = {}
    records = []
    for index in range(CALIBRATION_RECORDS):
        key = (index * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + index
        records.append((key, index))
    records.sort()
    total = 0
    for key, _index in records:
        total += table[key] % 13
    return time.perf_counter() - started


def calibration() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    Dictionary updates, tuple allocation, a sort and a scan: the kinds
    of interpreter work the pipeline does, in none of its code, so a
    change to the program never changes the calibration.  The fastest
    of a few runs, so that one preemption does not count as a slow host.
    """
    return min(_calibration_workload() for _ in range(CALIBRATION_RUNS))


class HostClock:
    """Times samples in seconds at the reference host's speed.

    The host is shared, and for seconds at a time other tenants slow it
    down by up to half.  Every sample is bracketed by a run of the
    calibration workload before and after it and rescaled by how much
    slower than on the undisturbed reference host that workload ran,
    so the figures follow the code rather than the neighbours.  One
    clock's calibrations chain: the run after a sample is the run
    before the next one.
    """

    def __init__(self) -> None:
        self._before = calibration()

    @staticmethod
    def start() -> float:
        return time.perf_counter()

    def stop(self, started: float) -> float:
        """Normalised seconds since ``started`` (then recalibrates)."""
        raw = time.perf_counter() - started
        after = calibration()
        scaled = raw * 2.0 * REFERENCE_CALIBRATION_S / (self._before + after)
        self._before = after
        return scaled


def repeated_setup(build: Callable[[], object], key: Callable = lambda value: value,
                   repeats: int = SETUP_REPEATS) -> Tuple[List, float]:
    """Run ``build`` ``repeats`` times; return every result and the median time.

    The time is in :class:`HostClock` seconds.

    ``key(result)`` must come out equal on every repetition: input
    preparation that is not deterministic would make the correctness
    checks lie.
    """
    results: List = []
    seconds: List[float] = []
    clock = HostClock()
    for _ in range(repeats):
        started = clock.start()
        results.append(build())
        seconds.append(clock.stop(started))
        if key(results[-1]) != key(results[0]):
            raise RuntimeError("input preparation is not deterministic")
    return results, median(seconds)


class Tally:
    """Operations attempted and failed, plus whether every output checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def record(self, ok: bool, correct: bool = True) -> None:
        self.attempted += 1
        if not (ok and correct):
            self.failed += 1
        if not correct:
            self.incorrect += 1

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class NullOut:
    """A write-only sink for CLI output that keeps the farm's notes.

    ``repro analyze`` reports shard retries and inline fallbacks as
    ``farm: …`` progress lines; counting them is how the untraced run
    sees degraded analyses without touching the farm.
    """

    def __init__(self) -> None:
        self.retries = 0
        self.fallbacks = 0

    def write(self, text: str) -> int:
        if text.startswith("farm: "):
            self.retries += text.count("retrying")
            self.fallbacks += text.count("falling back inline")
        return len(text)

    def flush(self) -> None:
        pass


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total
