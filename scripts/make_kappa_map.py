#!/usr/bin/env python3
"""Generate the figure-of-merit map over the localization plane as CSV.

Defaults reproduce the standard grid (both Lamb-Dicke parameters from 0.05
to 0.30); pass --steps/--jobs to trade resolution against runtime.
"""

import argparse
import sys

import numpy as np

from latticegate import kappa_map, kappa_map_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min", type=float, default=0.05)
    parser.add_argument("--max", type=float, default=0.30)
    parser.add_argument("--steps", type=int, default=26)
    parser.add_argument("--jobs", type=int, default=4,
                        help="the most threads, capped at the CPU count")
    parser.add_argument("--out", default="kappa_map.csv")
    args = parser.parse_args()

    grid = np.linspace(args.min, args.max, args.steps)
    values = kappa_map(grid, grid, jobs=args.jobs)
    with open(args.out, "w") as fh:
        kappa_map_csv(grid, grid, values, fh)
    bad = int(np.sum(~np.isfinite(values)))
    print(f"wrote {args.out}: {args.steps}x{args.steps} cells, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
