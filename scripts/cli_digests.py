#!/usr/bin/env python3
"""Fingerprint the command line output of a set of reference commands.

Runs each command below through ``python -m latticegate.cli`` (from the
repository root, with the caller's environment, so PYTHONPATH selects the
package under test) and prints one line per command:

    <exit code> <stdout sha256> <stderr sha256> <command>

Comparing this listing between two checkouts shows whether a change moved
any printed byte. Exits 1 if a command's exit code differs from the one
listed for it, else 0.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = "configs/cesium_reference.cfg"
KAPPA_REF = ("kappa", "--eta-perp", "0.1", "--eta-par", "0.2")

# (expected exit code, arguments)
COMMANDS = (
    (0, KAPPA_REF),
    (0, KAPPA_REF + ("--rel-tol", "1e-8")),
    (0, ("kappa", "--eta-perp", "0.05", "--eta-par", "0.3", "--eval-budget", "20000")),
    (0, ("budget", "--config", CONFIG)),
    (0, ("gate",)),
    (0, ("gate", "--duration", "2e-4", "--detuning-from-shifted", "500")),
    (0, ("ensemble", "--sites", "20000")),
    (0, ("map", "--perp-min", "0.1", "--perp-max", "0.2", "--perp-steps", "2",
         "--par-min", "0.1", "--par-max", "0.2", "--par-steps", "2")),
    (3, KAPPA_REF + ("--eval-budget", "50")),
    # the aspect-20 band
    (0, ("kappa", "--eta-perp", "0.05", "--eta-par", "1.0")),
    (0, ("kappa", "--eta-perp", "1.0", "--eta-par", "0.05")),
    (0, ("map", "--perp-min", "0.05", "--perp-max", "1.0", "--perp-steps", "3",
         "--par-min", "0.05", "--par-max", "1.0", "--par-steps", "3", "--jobs", "1")),
    # a partly failing map: its three 337-node cells exhaust the budget, and
    # the output must not depend on the worker count
    *((3, ("map", "--perp-min", "0.05", "--perp-max", "1.0", "--perp-steps", "3",
           "--par-min", "0.05", "--par-max", "1.0", "--par-steps", "3",
           "--eval-budget", "300", "--jobs", jobs)) for jobs in ("1", "2")),
)


def main() -> int:
    status = 0
    for expected, argv in COMMANDS:
        result = subprocess.run(
            [sys.executable, "-m", "latticegate.cli", *argv], capture_output=True, cwd=REPO_ROOT
        )
        out = hashlib.sha256(result.stdout).hexdigest()
        err = hashlib.sha256(result.stderr).hexdigest()
        print(f"{result.returncode} {out} {err} {' '.join(argv)}", flush=True)
        if result.returncode != expected:
            print(f"  expected exit {expected}: {result.stderr.decode().strip()}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
