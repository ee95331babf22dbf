"""Reference values and the shared truth-table fixture.

Run as a script (with ``src`` on PYTHONPATH) it performs the sampling
workload's set-up in a fresh interpreter: import ``latticegate.cli`` and build
the truth table at the reference operating point. The sampling workload
times that child to measure ``setup_s``.
"""

from __future__ import annotations

import math

# SI value of the Planck constant (exact since 2019).
PLANCK = 6.62607015e-34

REFERENCE = (0.1, 0.2)
REFERENCE_SHIFT_HZ = 5000.0

# Frozen averages (eta_perp, eta_par) -> (mean_f, mean_g), copied from
# tests/conftest.py (REF_MEAN_F, REF_MEAN_G) and FROZEN_CORNERS in
# tests/test_overlap.py. The benchmark holds the program to them at rel 1e-7.
FROZEN_FG = {
    (0.1, 0.2): (38.350126203, 0.984147511),
    (0.05, 0.3): (169.272868160, 0.980368893),
    (0.3, 0.05): (-40.525848884, 0.930229792),
    (0.25, 0.25): (1.986128819, 0.939413063),
    (0.05, 0.05): (11.227466650, 0.997503122),
    (0.1, 0.1): (5.529807171113, 0.990049833749),
    (0.15, 0.15): (3.594523164861, 0.977751237193),
    (0.231, 0.0974): (-17.088276485, 0.956435447),
    (1.0, 0.05): (-4.949193028, 0.460388814),
}
REF_KAPPA = -19.3282636
FROZEN_REL = 1e-7


def close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


def frozen_ok(geometry: tuple[float, float], mean_f: float, mean_g: float) -> bool:
    f_ref, g_ref = FROZEN_FG[geometry]
    return close(mean_f, f_ref, FROZEN_REL) and close(mean_g, g_ref, FROZEN_REL)


def reference_truth_table():
    """Truth table of the reference operating point, as `latticegate gate`
    builds it with default flags: kappa at (0.1, 0.2), catalysis field for a
    5 kHz shift, default pulse."""
    from latticegate.atomics import cesium_d2
    from latticegate.gate import dd_matrix_element, default_pulse, truth_table
    from latticegate.lattice import catalysis_intensity
    from latticegate.overlap import TrapGeometry, mean_fg

    species = cesium_d2()
    expectation = mean_fg(TrapGeometry(*REFERENCE))
    solution = catalysis_intensity(
        species,
        c_g4=species.pi_coupling**4,
        mean_f=expectation.mean_f,
        mean_g=expectation.mean_g,
        target_shift=PLANCK * REFERENCE_SHIFT_HZ,
    )
    env = dd_matrix_element(
        solution.field.scatter_rate, species.pi_coupling, expectation.mean_f, expectation.mean_g
    )
    return truth_table(env, default_pulse(env))


if __name__ == "__main__":
    import latticegate.cli  # noqa: F401  (the import is part of the set-up cost)

    reference_truth_table()
