#!/usr/bin/env python3
"""End-to-end reference run: quadrature figure of merit, closed-form
cross-check, lattice budget from the shipped cesium configuration, and the
conditioned-pulse truth table at the standard operating point.

The figure of merit is quoted at the configuration's design geometry and
read from the budget report, so the dipole average is computed once."""

import sys
import time
from pathlib import Path

from latticegate import (
    STATE_LABELS,
    budget_report,
    dd_matrix_element,
    default_pulse,
    kappa_approx,
    load_lattice_config,
    mc_oracle,
    optimize_ratio,
    truth_table,
    truth_table_fidelity,
)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cesium_reference.cfg"


def main() -> int:
    config = load_lattice_config(CONFIG)
    geom = config.design_geometry
    t0 = time.perf_counter()
    report = budget_report(config)
    elapsed = time.perf_counter() - t0
    average = report["dipole_average"]
    kappa = report["figure_of_merit"]["kappa"]
    print(f"geometry eta = ({geom.eta_perp}, {geom.eta_par})")
    print(f"  <f> = {average['mean_f']:.9g}   <g> = {average['mean_g']:.9g}")
    print(f"  kappa = {kappa:.9g}   ({average['evaluations']} kernel calls, {elapsed*1e3:.1f} ms)")
    print(f"  closed-form |kappa| = {abs(kappa_approx(geom)):.9g}")

    mc = mc_oracle(geom, samples=10**6, seed=1729)
    print(f"  Monte Carlo check: <f> = {mc.mean_f:.6g} +- {mc.err_f:.2g}, "
          f"<g> = {mc.mean_g:.6g} +- {mc.err_g:.2g}")

    ratio, best = optimize_ratio(0.1)
    print(f"optimal aspect ratio (closed form): {ratio:.6g} with |kappa|*eta^3 = "
          f"{abs(best) * 0.1**3:.6g}")

    print(f"\nbudget from {CONFIG.name}:")
    print(f"  nu_perp = {report['transverse_trap']['osc_freq_hz']/1e3:.4g} kHz, "
          f"nu_par = {report['longitudinal_trap']['osc_freq_hz']/1e3:.4g} kHz")
    print(f"  derived eta = ({average['derived_eta_perp']:.6g}, "
          f"{average['derived_eta_par']:.6g})")
    print(f"  lattice scattering / 2pi = {report['lattice_scatter']['rate_over_2pi_hz']:.4g} Hz")
    print(f"  catalysis intensity = {report['catalysis']['intensity_uw_cm2']:.4g} uW/cm^2, "
          f"superradiant rate / 2pi = "
          f"{report['catalysis']['superradiant_rate_over_2pi_hz']:.6g} Hz")

    env = dd_matrix_element(
        report["catalysis"]["scatter_rate_per_s"], config.species.pi_coupling,
        average["mean_f"], average["mean_g"],
    )
    pulse = default_pulse(env)
    fid = truth_table_fidelity(truth_table(env, pulse))
    print(f"\ngate at Omega = |shift|/(10 hbar) = {pulse.rabi:.6g} rad/s, "
          f"pi time {pulse.duration*1e3:.4g} ms:")
    for label, raw, cond in zip(STATE_LABELS,
                                fid.row_fidelity, fid.conditioned_row_fidelity):
        print(f"  input {label}: raw {raw:.6f}   survival-conditioned {cond:.6f}")
    print(f"  mean: raw {fid.mean:.6f}   survival-conditioned {fid.conditioned_mean:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
