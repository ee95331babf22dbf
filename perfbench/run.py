"""latticegate benchmark.

    python3 perfbench/run.py --workload {cli_oneshot,map_sweep,sampling} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; paths resolve against the repository root (the parent of
this directory), and children get ``src`` on PYTHONPATH. With ``--trace 0``
the selected workload runs untraced and the end-to-end metrics are reported;
with ``--trace 1`` the layer tour runs with span recording and the per-layer
metrics are reported. The last line of stdout is the result object; the
line before it is the full report (environment, checks, workload-specific
figures), which is also written with the spans under ``perfbench/out/``.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time

from common import ROOT, SINGLE_THREAD, SRC

os.environ.update(SINGLE_THREAD)  # before numpy is first imported

import tour  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "loadavg_at_start": os.getloadavg(),
        "invocation": "python -m latticegate.cli with src on PYTHONPATH",
        "threads": SINGLE_THREAD,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticegate" / "cli.py").is_file():
        print(f"error: no latticegate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    started = time.perf_counter()

    if args.trace:
        result = tour.traced_run(args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": tour.unit_of(k)} for k, v in result["metrics"].items()}
    else:
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["metrics"].items()}

    log = result["log"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "run_wall_s": time.perf_counter() - started,
        **log.summary(),
        **result["report"],
        "metrics": metrics,
    }
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        names = ("name", "label", "parent", "start_ns", "end_ns")
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps({"columns": names, "spans": result["spans"]}, default=str) + "\n")

    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
