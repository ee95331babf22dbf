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
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomics import PLANCK, cesium_d2
from .ensemble import (
    NonIdentifiableError,
    apparent_fidelity,
    background_subtract,
    run_stage,
    simulate_fill,
    stages_to_csv,
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
    DEFAULT_QUAD,
    ConvergenceError,
    QuadratureSpec,
    TrapGeometry,
    kappa_approx,
    kappa_map,
    kappa_map_csv,
    mean_fg,
)

__all__ = ["main", "DEFAULT_SEED", "SCHEMA_VERSION"]

DEFAULT_SEED = 1729
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NON_IDENTIFIABLE = 4


def _sig9(value: float) -> float:
    """Round to 9 significant digits through the decimal representation."""
    if not math.isfinite(value):
        return value
    return float(f"{value:.9g}")


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _sig9(obj)
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
    skip = {"func", "out", "stages_csv", "jobs"}
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
        "seed": getattr(args, "seed", DEFAULT_SEED),
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


def _csv_header(args: argparse.Namespace) -> str:
    prov = _provenance(args)
    return (
        f"# latticegate {prov['version']}\n"
        f"# schema_version {SCHEMA_VERSION}\n"
        f"# config_hash {prov['config_hash']}\n"
        f"# seed {prov['seed']}\n"
    )


def _quad_spec(args: argparse.Namespace) -> QuadratureSpec:
    overrides = {}
    for field in ("rel_tol", "eval_budget"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return dataclasses.replace(DEFAULT_QUAD, **overrides)


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
            "mean_f": expectation.mean_f,
            "mean_g": expectation.mean_g,
            "err_f": expectation.err_f,
            "err_g": expectation.err_g,
            "evaluations": expectation.evaluations,
            "kappa": value,
            "kappa_approx": approx,
            "kappa_approx_sign_aligned": math.copysign(abs(approx), value) if approx else 0.0,
        },
        args,
    )
    return EXIT_OK


def _grid(lo: float, hi: float, steps: int, name: str) -> np.ndarray:
    if steps < 1:
        raise ValueError(f"{name}-steps must be >= 1")
    if steps == 1:
        if lo != hi:
            raise ValueError(f"single-step {name} grid needs min == max")
        return np.array([lo])
    return np.linspace(lo, hi, steps)


def _cmd_map(args: argparse.Namespace) -> int:
    perp = _grid(args.perp_min, args.perp_max, args.perp_steps, "perp")
    par = _grid(args.par_min, args.par_max, args.par_steps, "par")
    values = kappa_map(perp, par, _quad_spec(args), jobs=args.jobs)
    buffer = io.StringIO()
    kappa_map_csv(perp, par, values, buffer)
    failed = int(np.sum(~np.isfinite(values)))
    header = _csv_header(args) + f"# failed_cells {failed}\n"
    _emit(header + buffer.getvalue(), args.out)
    return EXIT_NO_CONVERGENCE if failed else EXIT_OK


def _cmd_budget(args: argparse.Namespace) -> int:
    config = load_lattice_config(args.config)
    report = budget_report(config, _quad_spec(args))
    report.pop("schema_version", None)
    _emit_json(report, args)
    return EXIT_OK


def _gate_chain(args: argparse.Namespace):
    """Shared kappa -> rates -> truth-table pipeline for gate and ensemble."""
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
    if args.duration is not None or args.detuning_from_shifted != 0.0:
        pulse = dataclasses.replace(
            pulse,
            detuning_from_shifted=args.detuning_from_shifted,
            duration=pulse.duration if args.duration is None else args.duration,
        )
    return expectation, solution, env, pulse


def _cmd_gate(args: argparse.Namespace) -> int:
    expectation, solution, env, pulse = _gate_chain(args)
    table = truth_table(env, pulse)
    fid = truth_table_fidelity(table)
    payload = table.to_json_dict()
    payload["figure_of_merit"] = expectation.kappa
    payload["fidelity"] = {
        "row": dict(zip(STATE_LABELS, fid.row_fidelity)),
        "conditioned_row": dict(zip(STATE_LABELS, fid.conditioned_row_fidelity)),
        "mean": fid.mean,
        "conditioned_mean": fid.conditioned_mean,
    }
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_ensemble(args: argparse.Namespace) -> int:
    _, _, env, pulse = _gate_chain(args)
    table = truth_table(env, pulse)
    fill = simulate_fill(args.sites, args.fill_prob, args.seed)
    stages = [
        run_stage(fill, table, args.input, "paired_and_unpaired"),
        run_stage(fill, None, args.input, "unpaired_only"),
        run_stage(fill, table, args.input, "double_gate_with_flush"),
    ]
    if args.stages_csv:
        Path(args.stages_csv).write_text(_csv_header(args) + stages_to_csv(stages))
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
    p_map.add_argument("--jobs", type=int, default=1)
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
    p_ens.add_argument("--stages-csv", help="also write the per-stage CSV here")
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
