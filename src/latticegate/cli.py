"""Command-line front end: reproducible runs with machine-readable output.

Subcommands: kappa (single-geometry figure of merit), map (grid sweep as
CSV), budget (lattice parameter budget as JSON), gate (truth table and
fidelities as JSON), ensemble (simulated measurement stages and the
background-subtracted row).

Every output carries a provenance block: package version, a hash of the
effective inputs (flags plus the content of any referenced config file),
and the seed. Numbers are printed with 9 significant digits and repeated
runs with identical inputs are byte-identical. Exit codes: 0 success,
2 usage or bad input, 3 quadrature non-convergence, 4 non-identifiable
ensemble estimator.

This is the one module that renders output: the physics modules return
numbers and records, and every JSON document and the map CSV are formatted here.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomics import HBAR, PLANCK, _require, _require_int, cesium_d2
from .ensemble import (
    STAGES,
    NonIdentifiableError,
    apparent_fidelity,
    background_subtract,
    run_stage,
    simulate_fill,
)
from .gate import (
    IDEAL_CNOT_OUTPUT,
    STATE_LABELS,
    dd_matrix_element,
    default_pulse,
    truth_table,
    truth_table_fidelity,
)
from .lattice import budget_report, catalysis_intensity, load_lattice_config
from .overlap import (
    ConvergenceError,
    QuadratureSpec,
    TrapGeometry,
    kappa_approx,
    kappa_map,
    mean_fg,
)

__all__ = ["main", "DEFAULT_SEED", "SCHEMA_VERSION"]

DEFAULT_SEED = 1729
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NON_IDENTIFIABLE = 4


def _round_floats(obj):
    """obj with every float rounded to 9 significant digits through its
    decimal representation; inf and nan pass through unchanged."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of everything that determines the output.

    Output destination and worker count are excluded: results are
    independent of both by contract.
    """
    skip = {"func", "out", "jobs"}
    payload = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if key == "config" and value is not None:
            payload[key] = hashlib.sha256(Path(value).read_bytes()).hexdigest()
        else:
            payload[key] = value
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _provenance(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "config_hash": _config_hash(args),
        "seed": args.seed,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    document = {"schema_version": SCHEMA_VERSION, "provenance": _provenance(args)}
    document.update(payload)
    _emit(json.dumps(_round_floats(document), indent=2) + "\n", args.out)


def _csv_cells(values) -> str:
    """Numbers as comma-separated CSV cells with 9 significant digits; a
    non-finite value spells nan."""
    return ",".join(f"{v:.9g}" for v in values)


def _quad_spec(args: argparse.Namespace) -> QuadratureSpec:
    overrides = {"rel_tol": args.rel_tol, "eval_budget": args.eval_budget}
    return QuadratureSpec(**{k: v for k, v in overrides.items() if v is not None})


# --- subcommands ------------------------------------------------------------


def _cmd_kappa(args: argparse.Namespace) -> int:
    geom = TrapGeometry(args.eta_perp, args.eta_par)
    expectation = mean_fg(geom, _quad_spec(args))
    value = expectation.kappa
    approx = kappa_approx(geom)
    _emit_json(
        {
            "eta_perp": geom.eta_perp,
            "eta_par": geom.eta_par,
            **dataclasses.asdict(expectation),
            "kappa": value,
            "kappa_approx": approx,
            "kappa_approx_sign_aligned": math.copysign(abs(approx), value) if approx else 0.0,
        },
        args,
    )
    return EXIT_OK


def _grid(lo: float, hi: float, steps: int, name: str) -> np.ndarray:
    _require_int(1, **{f"{name}-steps": steps})
    if steps == 1 and lo != hi:
        raise ValueError(f"single-step {name} grid needs min == max")
    if steps > 1 and not lo < hi:
        raise ValueError(f"{name}-min must be below {name}-max, got {lo!r} and {hi!r}")
    # kappa_map's rule on the grid itself: ends a few ulps apart repeat a value
    grid = np.linspace(lo, hi, steps)
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"{name}-min and {name}-max are too close for {steps} {name}-steps, "
                         f"got {lo!r} and {hi!r}")
    return grid


def _cmd_map(args: argparse.Namespace) -> int:
    perp = _grid(args.perp_min, args.perp_max, args.perp_steps, "perp")
    par = _grid(args.par_min, args.par_max, args.par_steps, "par")
    values = kappa_map(perp, par, _quad_spec(args), jobs=args.jobs)
    failed = int(np.sum(~np.isfinite(values)))
    prov = _provenance(args)
    # provenance comments, then a header row of eta_par, first column eta_perp
    lines = [f"# latticegate {prov['version']}", f"# schema_version {SCHEMA_VERSION}",
             f"# config_hash {prov['config_hash']}", f"# seed {prov['seed']}",
             f"# failed_cells {failed}", "eta_perp/eta_par," + _csv_cells(par)]
    lines += [_csv_cells([eta, *row]) for eta, row in zip(perp, values)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_NO_CONVERGENCE if failed else EXIT_OK


def _cmd_budget(args: argparse.Namespace) -> int:
    config = load_lattice_config(args.config)
    _emit_json(budget_report(config, _quad_spec(args)), args)
    return EXIT_OK


def _gate_chain(args: argparse.Namespace):
    """Shared kappa -> rates -> pulse -> truth-table pipeline for gate and ensemble."""
    species = cesium_d2()
    geom = TrapGeometry(args.eta_perp, args.eta_par)
    expectation = mean_fg(geom, _quad_spec(args))
    solution = catalysis_intensity(
        species,
        c_g4=species.pi_coupling**4,
        mean_f=expectation.mean_f,
        mean_g=expectation.mean_g,
        target_shift=PLANCK * args.shift_over_h_hz,
    )
    env = dd_matrix_element(
        solution.field.scatter_rate, species.pi_coupling, expectation.mean_f, expectation.mean_g
    )
    pulse = default_pulse(env, rabi_divisor=args.rabi_divisor)
    pulse = dataclasses.replace(pulse, detuning_from_shifted=args.detuning_from_shifted,
                                duration=pulse.duration if args.duration is None else args.duration)
    return expectation, env, pulse, truth_table(env, pulse)


def _cmd_gate(args: argparse.Namespace) -> int:
    expectation, env, pulse, table = _gate_chain(args)
    fid = truth_table_fidelity(table)
    rows = zip(STATE_LABELS, table.populations.tolist(), table.leakage.tolist())
    _emit_json(
        {
            "rows": [
                {"input": label, "populations": dict(zip(STATE_LABELS, populations)), "leaked": leaked}
                for label, populations, leaked in rows
            ],
            "operating_point": {
                "rabi_rad_s": pulse.rabi,
                "detuning_from_shifted_rad_s": pulse.detuning_from_shifted,
                "duration_s": pulse.duration,
                "pulse_area": pulse.rabi * pulse.duration,
                "v_dd_joule": env.v_dd,
                "v_dd_over_hbar_rad_s": env.v_dd / HBAR,
                "gamma_dd_per_s": env.gamma_dd,
                "gamma_single_per_s": env.gamma_single,
            },
            "figure_of_merit": expectation.kappa,
            "fidelity": {
                "row": dict(zip(STATE_LABELS, fid.row_fidelity)),
                "conditioned_row": dict(zip(STATE_LABELS, fid.conditioned_row_fidelity)),
                "mean": fid.mean,
                "conditioned_mean": fid.conditioned_mean,
            },
        },
        args,
    )
    return EXIT_OK


def _cmd_ensemble(args: argparse.Namespace) -> int:
    *_, table = _gate_chain(args)
    _require("probability", **{"fill-prob": args.fill_prob})
    fill = simulate_fill(args.sites, args.fill_prob, args.seed)
    stages = [run_stage(fill, table, args.input, stage) for stage in STAGES]
    row = background_subtract(stages)
    ideal = IDEAL_CNOT_OUTPUT[args.input]
    _emit_json(
        {
            "input": args.input,
            "fill_probability": args.fill_prob,
            "n_sites": args.sites,
            "paired_fraction": row.paired_fraction,
            "stages": [
                {
                    "stage": s.stage,
                    "fractions": dict(zip(STATE_LABELS + ("leaked",), s.fractions)),
                    "n_measured": s.n_measured,
                }
                for s in stages
            ],
            "corrected_row": {
                "probabilities": dict(zip(STATE_LABELS, row.probabilities)),
                "leaked": row.leaked,
                "errors": dict(zip(STATE_LABELS, row.errors)),
                "leaked_error": row.leaked_error,
            },
            "gate_row": dict(zip(STATE_LABELS, table.row(args.input))),
            "apparent_fidelity": apparent_fidelity(stages[0]),
            "corrected_fidelity": float(row.probabilities[STATE_LABELS.index(ideal)]),
        },
        args,
    )
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed recorded in provenance (default {DEFAULT_SEED})")
    parser.add_argument("--rel-tol", type=float, default=None,
                        help="quadrature relative tolerance override")
    parser.add_argument("--eval-budget", type=int, default=None,
                        help="cap on kernel evaluations before reporting non-convergence")


def _add_gate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta-perp", type=float, default=0.1)
    parser.add_argument("--eta-par", type=float, default=0.2)
    parser.add_argument("--shift-over-h-hz", type=float, default=5000.0,
                        help="requested |level shift|/h in Hz")
    parser.add_argument("--rabi-divisor", type=float, default=10.0,
                        help="Rabi frequency = |shift|/(hbar * divisor)")
    parser.add_argument("--detuning-from-shifted", type=float, default=0.0,
                        help="pulse detuning from the shifted line, rad/s")
    parser.add_argument("--duration", type=float, default=None,
                        help="pulse duration override in s (default: pi time)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticegate",
        description="Dipole-dipole figure of merit, lattice budget, and "
        "conditioned-pulse gate analysis for trapped-atom pairs.",
    )
    parser.add_argument("--version", action="version", version=f"latticegate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kappa = sub.add_parser("kappa", help="figure of merit at one trap geometry")
    p_kappa.add_argument("--eta-perp", type=float, required=True)
    p_kappa.add_argument("--eta-par", type=float, required=True)
    _add_common(p_kappa)
    p_kappa.set_defaults(func=_cmd_kappa)

    p_map = sub.add_parser("map", help="figure-of-merit grid sweep as CSV")
    p_map.add_argument("--perp-min", type=float, required=True)
    p_map.add_argument("--perp-max", type=float, required=True)
    p_map.add_argument("--perp-steps", type=int, required=True)
    p_map.add_argument("--par-min", type=float, required=True)
    p_map.add_argument("--par-max", type=float, required=True)
    p_map.add_argument("--par-steps", type=int, required=True)
    p_map.add_argument("--jobs", type=int, default=1,
                       help="most worker threads, capped at the CPU count and the cell "
                       "count; the output does not depend on it")
    _add_common(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_budget = sub.add_parser("budget", help="lattice parameter budget as JSON")
    p_budget.add_argument("--config", required=True, help="lattice configuration file")
    _add_common(p_budget)
    p_budget.set_defaults(func=_cmd_budget)

    p_gate = sub.add_parser("gate", help="conditioned-pulse truth table as JSON")
    _add_gate_flags(p_gate)
    _add_common(p_gate)
    p_gate.set_defaults(func=_cmd_gate)

    p_ens = sub.add_parser("ensemble", help="ensemble measurement with background subtraction")
    _add_gate_flags(p_ens)
    p_ens.add_argument("--sites", type=int, default=100_000)
    p_ens.add_argument("--fill-prob", type=float, default=0.6)
    p_ens.add_argument("--input", choices=("00", "01", "10", "11"), default="10")
    _add_common(p_ens)
    p_ens.set_defaults(func=_cmd_ensemble)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except NonIdentifiableError as exc:
        print(f"error: estimator not identifiable: {exc}", file=sys.stderr)
        return EXIT_NON_IDENTIFIABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
