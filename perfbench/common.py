"""Helpers shared by the workloads and the layer tour: child processes,
order statistics, the statistical check limit and the operation log."""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
# One BLAS thread: the load is one sequential client, and idle OpenBLAS
# threads spin on the other core of a small shared machine.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment for a child interpreter: ``src`` on PYTHONPATH, because the
    console script is not assumed to be installed."""
    env = {**os.environ, **SINGLE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one Python child to completion; wall time counts from before spawn."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - started, proc


def run_cli(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    return run_child(["-m", "latticegate.cli", *argv])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least ten
    samples beyond it. With 20 samples or fewer no percentile above the median
    does, so the tail is unresolved and the median is reported (percentile 50)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def z_limit(tests: int, false_alarm: float = 1e-6) -> float:
    """Per-test |z| limit that a correct program exceeds somewhere in a run of
    ``tests`` two-sided tests with probability ``false_alarm``. The tests
    in the repository apply 3 sigma to a handful of rows; a benchmark run
    checks more rows on fresh seeds, so a fixed 3 sigma would flag a correct
    program in a few percent of runs."""
    return statistics.NormalDist().inv_cdf(1.0 - false_alarm / (2.0 * max(tests, 1)))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child waited for
    (children run one at a time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class OpLog:
    """Every timed operation with its input key, output and duration.

    Operations with the same key got the same input, so their outputs must be
    byte-identical. ``check`` marks a key wrong; every attempt with that key
    then counts as failed.
    """

    keys: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    units: list[float] = field(default_factory=list)
    first: dict[str, bytes] = field(default_factory=dict)
    bad_keys: dict[str, str] = field(default_factory=dict)

    def add(self, key: str, seconds: float, units: float, output: bytes | None) -> None:
        self.keys.append(key)
        self.seconds.append(seconds)
        self.units.append(units)
        if output is None:
            self.bad_keys.setdefault(key, "operation raised or exited nonzero")
        elif key not in self.first:
            self.first[key] = output
        elif self.first[key] != output:
            self.bad_keys.setdefault(key, "repeat differs from the first output")

    def check(self, key: str, ok: bool, reason: str) -> None:
        if not ok:
            self.bad_keys.setdefault(key, reason)

    @property
    def attempted(self) -> int:
        return len(self.keys)

    @property
    def failed(self) -> int:
        return sum(1 for key in self.keys if key in self.bad_keys)

    def digest(self) -> str:
        """Hash of every distinct output, in key order: equal on two commits
        exactly when the program gave the same bytes for the same inputs."""
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(key.encode() + b"\0" + self.first[key] + b"\0")
        return h.hexdigest()[:16]

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "distinct_inputs": len(self.first),
            "failure_reasons": dict(sorted(self.bad_keys.items())[:10]),
            "outputs_digest": self.digest(),
        }
