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
leaves the computational space and is accumulated in `leaked`.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .atomics import HBAR

__all__ = [
    "STATE_LABELS",
    "IDEAL_CNOT_OUTPUT",
    "GateEnvironment",
    "PulseSpec",
    "TwoQubitState",
    "TruthTable",
    "FidelityReport",
    "dd_matrix_element",
    "evolve_pulse",
    "truth_table",
    "truth_table_fidelity",
    "default_pulse",
]

STATE_LABELS = ("00", "01", "10", "11")

# control-conditioned target flip
IDEAL_CNOT_OUTPUT = {"00": "00", "01": "01", "10": "11", "11": "10"}

_NORM_TOL = 1e-9


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
        if self.gamma_single < 0 or self.gamma_dd < 0:
            raise ValueError("decay rates must be nonnegative")
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
        if not 0 < self.rabi < math.inf:
            raise ValueError("rabi must be finite and positive")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and positive")
        if not math.isfinite(self.detuning_from_shifted):
            raise ValueError("detuning_from_shifted must be finite")


@dataclass(eq=False)
class TwoQubitState:
    """Four complex amplitudes over STATE_LABELS plus leaked population."""

    amplitudes: np.ndarray
    leaked: float = 0.0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("amplitudes must be a length-4 complex vector")
        self.amplitudes = amps
        if self.leaked < 0.0:
            if self.leaked < -1e-12:
                raise ValueError("leaked population must be nonnegative")
            self.leaked = 0.0
        total = float(np.sum(np.abs(amps) ** 2)) + self.leaked
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: populations + leaked = {total!r}")

    @classmethod
    def from_label(cls, label: str) -> "TwoQubitState":
        if label not in STATE_LABELS:
            raise ValueError(f"label must be one of {STATE_LABELS}, got {label!r}")
        amps = np.zeros(4, dtype=complex)
        amps[STATE_LABELS.index(label)] = 1.0
        return cls(amps)

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def population(self, label: str) -> float:
        return float(self.populations[STATE_LABELS.index(label)])


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
    if gamma_prime < 0:
        raise ValueError("gamma_prime must be nonnegative")
    if not np.isfinite([gamma_prime, c_g, mean_f, mean_g]).all():
        raise ValueError("inputs must be finite")
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
    """
    if control == 1:
        delta = pulse.detuning_from_shifted
        gamma_target1 = 2.0 * env.gamma_single + env.gamma_dd
        gamma_target0 = env.gamma_single
    else:
        delta = pulse.detuning_from_shifted + env.v_dd / HBAR
        gamma_target1 = env.gamma_single
        gamma_target0 = 0.0
    generator = np.array(
        [
            [-delta - 0.5j * gamma_target1, 0.5 * pulse.rabi],
            [0.5 * pulse.rabi, -0.5j * gamma_target0],
        ],
        dtype=complex,
    )
    return expm(-1j * generator * pulse.duration)


def evolve_pulse(state: TwoQubitState, pulse: PulseSpec, env: GateEnvironment) -> TwoQubitState:
    """Propagate a state through one Raman pulse.

    The two control sectors evolve independently; lost norm goes to leaked.
    """
    amps = state.amplitudes
    new = np.empty(4, dtype=complex)
    u0 = _sector_propagator(pulse, env, control=0)
    u1 = _sector_propagator(pulse, env, control=1)
    # sector vectors are (target=1, target=0)
    new[1], new[0] = u0 @ np.array([amps[1], amps[0]])
    new[3], new[2] = u1 @ np.array([amps[3], amps[2]])
    norm_before = float(np.sum(np.abs(amps) ** 2))
    norm_after = float(np.sum(np.abs(new) ** 2))
    return TwoQubitState(new, leaked=state.leaked + (norm_before - norm_after))


@dataclass(frozen=True)
class TruthTable:
    """Output populations (rows = inputs in STATE_LABELS order) and the
    per-row leaked population, with the operating point that produced them."""

    populations: np.ndarray
    leakage: np.ndarray
    env: GateEnvironment
    pulse: PulseSpec

    def row(self, label: str) -> np.ndarray:
        return self.populations[STATE_LABELS.index(label)]

    def to_json_dict(self) -> dict:
        rows = []
        for i, label in enumerate(STATE_LABELS):
            rows.append(
                {
                    "input": label,
                    "populations": {
                        out: float(self.populations[i, j]) for j, out in enumerate(STATE_LABELS)
                    },
                    "leaked": float(self.leakage[i]),
                }
            )
        return {
            "rows": rows,
            "operating_point": {
                "rabi_rad_s": self.pulse.rabi,
                "detuning_from_shifted_rad_s": self.pulse.detuning_from_shifted,
                "duration_s": self.pulse.duration,
                "pulse_area": self.pulse.rabi * self.pulse.duration,
                "v_dd_joule": self.env.v_dd,
                "v_dd_over_hbar_rad_s": self.env.v_dd / HBAR,
                "gamma_dd_per_s": self.env.gamma_dd,
                "gamma_single_per_s": self.env.gamma_single,
            },
        }


def truth_table(env: GateEnvironment, pulse: PulseSpec) -> TruthTable:
    """Evolve each computational basis state through the pulse."""
    populations = np.empty((4, 4))
    leakage = np.empty(4)
    for i, label in enumerate(STATE_LABELS):
        out = evolve_pulse(TwoQubitState.from_label(label), pulse, env)
        populations[i] = out.populations
        leakage[i] = out.leaked
    return TruthTable(populations=populations, leakage=leakage, env=env, pulse=pulse)


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
    if not 0 < rabi_divisor < math.inf:
        raise ValueError("rabi_divisor must be finite and positive")
    if env.v_dd == 0:
        raise ValueError("v_dd = 0 gives no conditional splitting to tune against")
    rabi = abs(env.v_dd) / (HBAR * rabi_divisor)
    return PulseSpec(rabi=rabi, detuning_from_shifted=0.0, duration=math.pi / rabi)
