"""Two-qubit basis, pair-conditioned Hamiltonian, and Raman pi-pulse gate.

The two atoms of a merged well pair encode one qubit each in the |M| = 1
hyperfine sublevels, both in the vibrational ground state. The sigma+ atom
(target) holds |1> in the upper hyperfine level at M = +1 and |0> in the
lower level at M = -1; the sigma- atom (control) uses the mirrored
sublevels, |1> at M = -1 and |0> at M = +1. A weak resonant field gives the
doubly-excited logical state |11> a level shift and a cooperative decay
channel that no other basis state has, so a pi-pulse tuned to the shifted
target transition flips the target only when the control is 1. Decay is
modeled as non-Hermitian amplitude damping: population that scatters
leaves the computational space and is reported per input row as
`TruthTable.leakage`.

Conventions: two-qubit labels are "ct" with the control bit first, and
amplitudes are ordered ("00", "01", "10", "11"). Pulse detunings are
quoted relative to the *shifted* |11> <-> |10> line, so a resonant pulse
has detuning_from_shifted = 0 and the control-0 sector sits off resonance
by the full shift. Because the drive frame is anchored to the shifted
line, changing v_dd at a fixed PulseSpec moves the absolute drive
frequency; control-0 invariance under v_dd therefore holds at fixed
absolute frequency (compensate detuning_from_shifted by the shift change),
while the control-1 sector never contains v_dd at all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .atomics import HBAR, _require

__all__ = [
    "STATE_LABELS",
    "IDEAL_CNOT_OUTPUT",
    "GateEnvironment",
    "PulseSpec",
    "TruthTable",
    "FidelityReport",
    "dd_matrix_element",
    "truth_table",
    "truth_table_fidelity",
    "default_pulse",
]

STATE_LABELS = ("00", "01", "10", "11")

# control-conditioned target flip
IDEAL_CNOT_OUTPUT = {"00": "00", "01": "01", "10": "11", "11": "10"}


@dataclass(frozen=True)
class GateEnvironment:
    """Pair-conditioned rates: the |11> level shift v_dd (J), the
    cooperative decay addition gamma_dd on |11>, and the single-atom
    scattering rate gamma_single applied per atom in a logical-1 state
    (all rates 1/s).

    Cooperativity bounds the enhancement: gamma_dd <= gamma_single, so the
    pair's cooperative rate gamma_single + gamma_dd is at most twice the
    single-atom rate, and the |11> total rate 2*gamma_single + gamma_dd is
    at most 3*gamma_single.
    """

    v_dd: float
    gamma_dd: float
    gamma_single: float

    def __post_init__(self) -> None:
        _require("finite", v_dd=self.v_dd)
        _require("nonnegative", gamma_dd=self.gamma_dd, gamma_single=self.gamma_single)
        if self.gamma_dd > self.gamma_single * (1.0 + 1e-12):
            raise ValueError(
                "gamma_dd exceeds gamma_single: cooperativity cannot more than "
                "double the pair's scattering"
            )


@dataclass(frozen=True)
class PulseSpec:
    """Raman pulse: two-photon Rabi frequency, detuning from the shifted
    |11> <-> |10> line, and duration (rad/s, rad/s, s)."""

    rabi: float
    detuning_from_shifted: float
    duration: float

    def __post_init__(self) -> None:
        _require("positive", rabi=self.rabi, duration=self.duration)
        _require("finite", detuning_from_shifted=self.detuning_from_shifted)


def dd_matrix_element(gamma_prime: float, c_g: float, mean_f: float, mean_g: float) -> GateEnvironment:
    """Pair rates from the single-atom scattering rate and the trap-averaged
    interaction functions.

    The induced-dipole pair state acquires shift v_dd = -hbar * Gamma' *
    c_g^4 * <f> and cooperative decay gamma_dd = Gamma' * c_g^4 * <g>; the
    same coupling scatters each logical-1 atom at gamma_single = Gamma' *
    c_g^4. Only the |11> element is nonzero: the other basis states involve
    at most one laser-coupled atom and acquire neither shift nor
    cooperative decay.
    """
    _require("nonnegative", gamma_prime=gamma_prime)
    _require("c_g", c_g=c_g)
    _require("finite", mean_f=mean_f, mean_g=mean_g)
    c4 = c_g**4
    return GateEnvironment(
        v_dd=-HBAR * gamma_prime * c4 * mean_f,
        gamma_dd=gamma_prime * c4 * mean_g,
        gamma_single=gamma_prime * c4,
    )


def _sector_propagator(pulse: PulseSpec, env: GateEnvironment, control: int) -> np.ndarray:
    """Non-unitary 2x2 propagator on (target=1, target=0) for one control value.

    Rotating frame of the drive; the effective detuning is from the shifted
    line for control=1 and picks up the full shift for control=0. Decay per
    level counts gamma_single once per logical-1 atom, plus gamma_dd on the
    doubly-excited (1,1) level.

    exp(A) for A = -i H T in closed form (Cayley-Hamilton; Moler & Van Loan,
    SIAM Rev. 45, 3 (2003)): with m = tr(A)/2, d = (A11 - A22)/2 and
    w^2 = d^2 + A12 A21,

        exp(A) = e^m [cosh(w) I + sinh(w)/w (A - m I)].

    Unlike a scaled Pade approximant its error does not grow with
    |detuning| * duration.
    """
    if control == 1:
        delta = pulse.detuning_from_shifted
        gamma_target1 = 2.0 * env.gamma_single + env.gamma_dd
        gamma_target0 = env.gamma_single
    else:
        delta = pulse.detuning_from_shifted + env.v_dd / HBAR
        gamma_target1 = env.gamma_single
        gamma_target0 = 0.0
    t = pulse.duration
    m = complex(-0.25 * (gamma_target1 + gamma_target0) * t, 0.5 * delta * t)
    d = complex(-0.25 * (gamma_target1 - gamma_target0) * t, 0.5 * delta * t)
    off = -0.5j * pulse.rabi * t
    w2 = d * d + off * off
    if not cmath.isfinite(w2):
        raise ValueError("detuning, Rabi frequency or decay rate times duration overflows")
    # exp(A) = even * I + odd * (A - m I), even = e^m cosh(w), odd = e^m sinh(w)/w
    if abs(w2) < 1.0:
        # power series of cosh(w) and sinh(w)/w in w^2: no division by a
        # vanishing w
        cosh_w, sinhc_w, term = 1.0, 1.0, 1.0
        for k in range(1, 12):
            term *= w2 / ((2 * k - 1) * (2 * k))
            cosh_w += term
            sinhc_w += term / (2 * k + 1)
        scale = cmath.exp(m)
        even, odd = scale * cosh_w, scale * sinhc_w
    else:
        # from the eigenvalues m +- w, whose real parts are <= 0, so nothing
        # overflows however strong the decay
        w = cmath.sqrt(w2)
        up, down = cmath.exp(m + w), cmath.exp(m - w)
        even, odd = 0.5 * (up + down), (up - down) / (2.0 * w)
    return np.array([[even + odd * d, odd * off], [odd * off, even - odd * d]])


@dataclass(frozen=True)
class TruthTable:
    """Output populations (rows = inputs in STATE_LABELS order) and the
    per-row leaked population."""

    populations: np.ndarray
    leakage: np.ndarray

    def row(self, label: str) -> np.ndarray:
        return self.populations[STATE_LABELS.index(label)]


def truth_table(env: GateEnvironment, pulse: PulseSpec) -> TruthTable:
    """Read every basis input's output populations off its control sector.

    The pulse never changes the control bit, so input "ct" (row 2c+t) only
    reaches outputs 2c+1 (target=1) and 2c (target=0): the target's column
    of |U_c|^2. Whatever norm a row lacks has leaked out of the space.
    """
    populations = np.zeros((4, 4))
    for control in (0, 1):
        flips = np.abs(_sector_propagator(pulse, env, control)) ** 2
        for target in (0, 1):
            # sector order is (target=1, target=0)
            populations[2 * control + target, [2 * control + 1, 2 * control]] = flips[:, 1 - target]
    leakage = 1.0 - populations.sum(axis=1)
    if np.any(leakage < -1e-12):
        raise ValueError("leaked population must be nonnegative")
    leakage[leakage < 0.0] = 0.0  # rounding residue, not a gain
    return TruthTable(populations=populations, leakage=leakage)


@dataclass(frozen=True)
class FidelityReport:
    """Classical truth-table overlap with the ideal control-conditioned flip.

    row_fidelity is the raw population on the ideal output state, which
    counts scattered atoms as failures. conditioned_row_fidelity rescales
    by the surviving population, matching a fluorescence readout that
    post-selects pairs still in the computational space; this is the
    figure the operating point is judged on.
    """

    row_fidelity: np.ndarray
    conditioned_row_fidelity: np.ndarray
    mean: float
    conditioned_mean: float

    def __post_init__(self) -> None:
        _require("nonnegative", mean=self.mean, conditioned_mean=self.conditioned_mean)


def truth_table_fidelity(table: TruthTable) -> FidelityReport:
    raw = np.empty(4)
    conditioned = np.empty(4)
    for i, label in enumerate(STATE_LABELS):
        ideal_index = STATE_LABELS.index(IDEAL_CNOT_OUTPUT[label])
        raw[i] = table.populations[i, ideal_index]
        survival = 1.0 - table.leakage[i]
        conditioned[i] = raw[i] / survival if survival > 0.0 else 0.0
    return FidelityReport(
        row_fidelity=raw,
        conditioned_row_fidelity=conditioned,
        mean=float(raw.mean()),
        conditioned_mean=float(conditioned.mean()),
    )


def default_pulse(env: GateEnvironment, rabi_divisor: float = 10.0) -> PulseSpec:
    """Resonant pi-pulse at the standard perturbative operating point.

    The Rabi frequency is the shift over rabi_divisor (default 10), slow
    enough that the control-0 sector flips with probability about
    1/(divisor^2 + 1); duration is the pi time.
    """
    _require("positive", rabi_divisor=rabi_divisor)
    if env.v_dd == 0:
        raise ValueError("v_dd = 0 gives no conditional splitting to tune against")
    shift_per_rabi = HBAR * rabi_divisor
    if shift_per_rabi == 0.0:
        raise ValueError(f"hbar * rabi_divisor underflows to 0 at rabi_divisor {rabi_divisor!r}")
    rabi = abs(env.v_dd) / shift_per_rabi
    return PulseSpec(rabi=rabi, detuning_from_shifted=0.0, duration=math.pi / rabi)
