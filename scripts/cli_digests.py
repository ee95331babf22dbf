#!/usr/bin/env python3
"""Fingerprint the command line output of a set of reference commands.

Runs each command below through ``python -m latticegate.cli`` (from the
repository root, with the caller's environment, so PYTHONPATH selects the
package under test) and prints one line per command:

    <exit code> <stdout sha256> <stderr sha256> <command>

Comparing this listing between two checkouts shows whether a change moved
any printed byte. With --transcript it prints each command's exit code,
stdout and stderr in full instead, one captured line per "|" line; that is
the text tests/cli_golden.txt holds:

    PYTHONPATH=src python scripts/cli_digests.py --transcript > tests/cli_golden.txt

Exits 1 if a command's exit code differs from the one listed for it, else 0.
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
    # near-isotropic: the series branch of the closed form
    (0, ("kappa", "--eta-perp", "0.15", "--eta-par", "0.151")),
    # the edges of the domain: an aspect ratio of 1e8, where the closed
    # form's artanh branch switches to its expansion, and a width below the
    # 1e-98 floor
    (0, ("kappa", "--eta-perp", "1e-8", "--eta-par", "1.0")),
    (2, ("kappa", "--eta-perp", "1e-99", "--eta-par", "0.1")),
    # a fill drawn in many generator chunks (20,000 sites fit in one)
    (0, ("ensemble", "--sites", "1000000", "--fill-prob", "0.9", "--input", "11", "--seed", "7")),
    # an aspect ratio of 5e11, where the radial panels need the decade cuts
    (0, ("kappa", "--eta-perp", "1e-12", "--eta-par", "0.5")),
    # 6,000,002 wells: 92 chunks with a partial last one, split across the
    # fill's worker threads
    (0, ("ensemble", "--sites", "3000001", "--fill-prob", "0.3", "--input", "01", "--seed", "11")),
)


def run_command(argv):
    """The completed ``python -m latticegate.cli *argv``, its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "latticegate.cli", *argv], capture_output=True, cwd=REPO_ROOT
    )


def transcript(argv, result) -> str:
    """The command line, exit code, stdout and stderr of one run as text.
    Each captured line follows a "|"; output that ends in a newline ends in
    a bare "|"."""
    lines = [f"$ {' '.join(argv)}", f"exit {result.returncode}"]
    for name, data in (("stdout", result.stdout), ("stderr", result.stderr)):
        lines.append(name)
        lines += [f"| {line}" if line else "|" for line in data.decode().split("\n")]
    return "\n".join(lines) + "\n"


def main(args: list[str]) -> int:
    if args not in ([], ["--transcript"]):
        print("usage: cli_digests.py [--transcript]", file=sys.stderr)
        return 2
    status = 0
    for expected, argv in COMMANDS:
        result = run_command(argv)
        if args:
            print(transcript(argv, result), end="", flush=True)
        else:
            out = hashlib.sha256(result.stdout).hexdigest()
            err = hashlib.sha256(result.stderr).hexdigest()
            print(f"{result.returncode} {out} {err} {' '.join(argv)}", flush=True)
        if result.returncode != expected:
            print(f"  expected exit {expected}: {result.stderr.decode().strip()}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
