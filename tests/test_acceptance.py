"""Top-level acceptance criteria for the package.

Each test checks one shipping requirement end to end at its stated
tolerance and prints a single summary line with the measured numbers,
so a plain ``pytest tests/test_acceptance.py -v -rA`` doubles as the
release checklist.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.constants import hbar

import oracles
from latticegate.ensemble import (
    apparent_fidelity,
    background_subtract,
    run_stage,
    simulate_fill,
)
from latticegate.gate import (
    STATE_LABELS,
    GateEnvironment,
    PulseSpec,
    default_pulse,
    truth_table,
    truth_table_fidelity,
)
from latticegate.lattice import budget_report, load_lattice_config, well_separation
from latticegate.overlap import (
    TrapGeometry,
    kappa_approx,
    mc_oracle,
    mean_fg,
    optimize_ratio,
)

from conftest import REFERENCE_GEOMETRY, REPO_ROOT

CONFIG_PATH = REPO_ROOT / "configs" / "cesium_reference.cfg"


def report(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_figure_of_merit_value_and_runtime():
    started = time.perf_counter()
    expectation = mean_fg(REFERENCE_GEOMETRY)
    kappa = -expectation.mean_f / (1.0 + expectation.mean_g)
    wall = time.perf_counter() - started
    ok = abs(kappa - (-19.3)) <= 0.05 * 19.3 and wall < 10.0
    report(1, ok, f"kappa(0.1, 0.2) = {kappa:.6f} (target -19.3 +/- 5%), wall {wall:.2f} s < 10 s")


def test_criterion_2_elastic_suppression_factor():
    ref = mean_fg(REFERENCE_GEOMETRY).mean_g
    grid = np.linspace(0.05, 0.25, 6)
    lowest = min(
        mean_fg(TrapGeometry(ep, el)).mean_g for ep in grid for el in grid
    )
    ok = 0.98 <= ref <= 1.0 and lowest >= 0.9
    report(2, ok, f"mean_g(ref) = {ref:.6f} in [0.98, 1.0]; min over grid = {lowest:.6f} >= 0.9")


def test_criterion_3_optimal_aspect_ratio():
    worst_ratio = 0.0
    worst_product = 0.0
    for eta in (0.05, 0.1, 0.2):
        ratio, kappa_star = optimize_ratio(eta)
        worst_ratio = max(worst_ratio, abs(ratio - 2.18) / 2.18)
        product = abs(kappa_star) * eta**3
        worst_product = max(worst_product, abs(product - 0.017) / 0.017)
    ok = worst_ratio <= 0.02 and worst_product <= 0.10
    report(
        3,
        ok,
        f"ratio within {100 * worst_ratio:.2f}% of 2.18 (tol 2%); "
        f"|kappa*| eta^3 within {100 * worst_product:.2f}% of 0.017 (tol 10%)",
    )


def test_criterion_4_quadrature_against_independent_references():
    master = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        ep = master.uniform(0.05, 0.3)
        el = master.uniform(0.05, 0.3)
        sub = int(master.integers(0, 2**31))
        geom = TrapGeometry(ep, el)
        exact = mean_fg(geom)
        sampled = mc_oracle(geom, 10**6, seed=sub)
        worst = max(
            worst,
            abs(exact.mean_f - sampled.mean_f) / (3.0 * sampled.err_f),
            abs(exact.mean_g - sampled.mean_g) / (3.0 * sampled.err_g),
        )
    iso = mean_fg(TrapGeometry(0.12, 0.12))
    ref_f, ref_g = oracles.iso_mean_fg_1d(0.12)
    iso_err = max(abs(iso.mean_f / ref_f - 1.0), abs(iso.mean_g / ref_g - 1.0))
    ok = worst <= 1.0 and iso_err <= 1e-7
    report(
        4,
        ok,
        f"20 random geometries vs 1e6-sample Monte Carlo: worst |z|/3 = {worst:.3f} <= 1; "
        f"isotropic vs radial reference rel err {iso_err:.2e} <= 1e-7",
    )


def test_criterion_5_well_separation_geometry():
    k = 2.0 * math.pi / 852e-9
    at_zero = well_separation(0.0, k)
    quarter = well_separation(math.pi / 2.0, k)
    target = math.pi / (2.0 * k)  # one quarter wavelength
    quarter_err = abs(quarter - target)
    theta = np.linspace(0.0, math.pi, 10_001, endpoint=False)
    increasing = bool(np.all(np.diff([well_separation(angle, k) for angle in theta.tolist()]) > 0))
    ok = at_zero == 0.0 and quarter_err <= 2.0 * math.ulp(target) and increasing
    report(
        5,
        ok,
        f"separation(0) = {at_zero} exactly; quarter-wave off by {quarter_err:.3e} m "
        f"(<= 2 ulp); strictly increasing on [0, pi): {increasing}",
    )


def test_criterion_6_trap_parameter_budget():
    config = load_lattice_config(CONFIG_PATH)
    doc = budget_report(config)
    nu_perp = doc["transverse_trap"]["osc_freq_hz"]
    nu_par = doc["longitudinal_trap"]["osc_freq_hz"]
    gamma_lat = doc["lattice_scatter"]["rate_over_2pi_hz"]
    gamma_sup = doc["catalysis"]["superradiant_rate_over_2pi_hz"]
    intensity = doc["catalysis"]["intensity_uw_cm2"]
    checks = [
        100e3 <= nu_perp <= 400e3,
        25e3 <= nu_par <= 100e3,
        4.0 / 3.0 <= gamma_lat <= 12.0,
        abs(gamma_sup - 259.0) <= 0.05 * 259.0,
        0.1 / 3.0 <= intensity <= 0.3,
    ]
    report(
        6,
        all(checks),
        f"nu_perp = {nu_perp / 1e3:.1f} kHz in [100, 400]; nu_par = {nu_par / 1e3:.1f} kHz in [25, 100]; "
        f"lattice scatter/2pi = {gamma_lat:.2f} Hz in [1.33, 12]; "
        f"superradiant/2pi = {gamma_sup:.1f} Hz within 5% of 259; "
        f"catalysis intensity = {intensity:.3f} uW/cm^2 in [0.033, 0.3]",
    )


def test_criterion_7_conditioned_pulse_truth_table():
    shift = math.pi * 1e4
    env = GateEnvironment(v_dd=-hbar * shift, gamma_dd=0.0, gamma_single=0.0)
    pulse = default_pulse(env, rabi_divisor=10.0)
    clean = truth_table(env, pulse)
    flip = clean.row("10")[STATE_LABELS.index("11")]
    resonant_err = abs(flip - 1.0)

    ceiling = pulse.rabi**2 / (pulse.rabi**2 + shift**2)
    off_res = clean.row("00")[STATE_LABELS.index("01")]

    physical_env = GateEnvironment(
        v_dd=-hbar * shift, gamma_dd=806.200890772, gamma_single=819.187044382
    )
    table = truth_table(physical_env, pulse)
    norm_err = max(
        abs(table.populations[i].sum() + table.leakage[i] - 1.0) for i in range(4)
    )

    doubled = GateEnvironment(
        v_dd=2.0 * physical_env.v_dd,
        gamma_dd=physical_env.gamma_dd,
        gamma_single=physical_env.gamma_single,
    )
    compensated = PulseSpec(
        rabi=pulse.rabi,
        detuning_from_shifted=-physical_env.v_dd / hbar,
        duration=pulse.duration,
    )
    moved = truth_table(doubled, compensated)
    invariant = all(
        np.array_equal(table.populations[STATE_LABELS.index(lbl)],
                       moved.populations[STATE_LABELS.index(lbl)])
        for lbl in ("00", "01")
    )

    conditioned = truth_table_fidelity(table).conditioned_mean
    ok = (
        resonant_err <= 1e-9
        and off_res <= ceiling
        and norm_err <= 1e-9
        and invariant
        and conditioned > 0.9
    )
    report(
        7,
        ok,
        f"resonant pi error {resonant_err:.1e} <= 1e-9; off-resonant flip {off_res:.2e} <= "
        f"{ceiling:.2e}; norm error {norm_err:.1e} <= 1e-9; control-0 rows bit-identical: "
        f"{invariant}; conditioned mean {conditioned:.4f} > 0.9",
    )


def test_criterion_8_background_subtracted_readout(reference_table):
    worst_z = 0.0
    diluted = True
    truth5 = np.append(
        reference_table.row("10"),
        reference_table.leakage[STATE_LABELS.index("10")],
    )
    for index, fill_prob in enumerate((0.3, 0.6, 0.9)):
        fill = simulate_fill(100_000, fill_prob, seed=11_000 + index)
        stages = [
            run_stage(fill, reference_table, "10", "paired_and_unpaired"),
            run_stage(fill, None, "10", "unpaired_only"),
        ]
        row = background_subtract(stages)
        got5 = np.append(row.probabilities, row.leaked)
        err5 = np.append(row.errors, row.leaked_error)
        live = err5 > 0
        worst_z = max(worst_z, np.max(np.abs(got5[live] - truth5[live]) / err5[live]))
        corrected = row.probabilities[STATE_LABELS.index("11")]
        diluted = diluted and apparent_fidelity(stages[0]) < corrected
    ok = worst_z <= 3.0 and diluted
    report(
        8,
        ok,
        f"recovered gate row at fill 0.3/0.6/0.9: worst |z| = {worst_z:.2f} <= 3; "
        f"apparent fidelity strictly below corrected: {diluted}",
    )


def _cli(*argv: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "latticegate.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_criterion_9_byte_level_reproducibility():
    kappa_args = ("kappa", "--eta-perp", "0.1", "--eta-par", "0.2")
    kappa_stable = _cli(*kappa_args) == _cli(*kappa_args)
    map_args = (
        "map",
        "--perp-min", "0.1", "--perp-max", "0.2", "--perp-steps", "2",
        "--par-min", "0.1", "--par-max", "0.2", "--par-steps", "2",
    )
    map_stable = _cli(*map_args, "--jobs", "1") == _cli(*map_args, "--jobs", "2")
    ens_args = ("ensemble", "--sites", "20000")
    ens_stable = _cli(*ens_args) == _cli(*ens_args)
    ok = kappa_stable and map_stable and ens_stable
    report(
        9,
        ok,
        f"kappa rerun byte-identical: {kappa_stable}; map jobs 1 vs 2 byte-identical: "
        f"{map_stable}; ensemble rerun byte-identical: {ens_stable}",
    )
