"""Atomic species data, the SI constants the package uses, and the
``key = value`` file reader shared by the species and lattice configuration
loaders.

Everything here is a pure function; the species record is a frozen dataclass
loaded from a key-value text file so other alkalis can be added without code
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "PLANCK",
    "HBAR",
    "AtomSpecies",
    "legendre_p2",
    "load_species",
    "cesium_d2",
]

# Planck constant in J s, exact in the SI since 2019, and the reduced one.
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2 * math.pi)


def _check_half_integer(value: float, name: str) -> int:
    """Return 2*value as an int, rejecting anything off the half-integer grid."""
    twice = 2.0 * value
    rounded = round(twice)
    if abs(twice - rounded) > 1e-9:
        raise ValueError(f"{name} must be an integer or half-integer, got {value!r}")
    return int(rounded)


@dataclass(frozen=True)
class AtomSpecies:
    """Constants of one alkali D2 transition.

    mass kg, lambda_res m, gamma_natural rad/s, i_sat W/m^2; hyperfine labels
    f_down/f_up = nuclear_spin -/+ 1/2 and f_max_excited = nuclear_spin + 3/2.
    """

    mass: float
    lambda_res: float
    gamma_natural: float
    i_sat: float
    nuclear_spin: float
    f_up: float
    f_down: float
    f_max_excited: float

    def __post_init__(self) -> None:
        for name in ("mass", "lambda_res", "gamma_natural", "i_sat"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        ti = _check_half_integer(self.nuclear_spin, "nuclear_spin")
        if ti <= 0:
            raise ValueError("nuclear_spin must be positive")
        if self.f_up - self.f_down != 1:
            raise ValueError("f_up - f_down must equal 1")
        if self.f_max_excited != self.f_up + 1:
            raise ValueError("f_max_excited must equal f_up + 1")
        if self.f_up != self.nuclear_spin + 0.5:
            raise ValueError("f_up must equal nuclear_spin + 1/2")

    @property
    def wave_number(self) -> float:
        """Resonant wave number k = 2 pi / lambda_res, rad/m."""
        return 2.0 * math.pi / self.lambda_res

    @property
    def pi_coupling(self) -> float:
        """Clebsch-Gordan amplitude of the pi transition from the upper
        hyperfine level at |M| = 1 to the strongest excited manifold,
        <F 1; 1 0 | F+1 1> = sqrt(F (F+2) / ((2F+1) (F+1))) with F = f_up.

        Its fourth power scales every laser-induced pair quantity (shift,
        cooperative decay, single-atom scattering in a logical-1 state).
        """
        f = self.f_up
        if f != int(f):
            raise ValueError(f"M = 1 needs an integer f_up, got {f!r}")
        return math.sqrt(f * (f + 2) / ((2 * f + 1) * (f + 1)))


def legendre_p2(mu):
    """P2(mu) = (3 mu^2 - 1)/2 on [-1, 1]; scalar or array."""
    arr = np.asarray(mu, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("legendre_p2 argument must lie in [-1, 1]")
    out = 0.5 * (3.0 * arr * arr - 1.0)
    return float(out) if np.ndim(mu) == 0 else out


# ---------------------------------------------------------------------------
# key = value files


def _finite_float(text: str) -> float:
    """float(text), rejecting nan and +-inf so they never reach a formula."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _read_key_values(path: str | Path, keys, noun: str, optional=(), convert=str) -> dict:
    """Values of a ``key = value`` file, one per line; ``#`` starts a comment.

    Each key must be one of ``keys`` (typos fail loudly), appear once and
    carry a nonempty value, which ``convert`` turns into the returned value;
    every key not in ``optional`` is required. ``noun`` names a key in the
    error messages, which also give the file and line.
    """
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown {noun} {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate {noun} {key!r}")
        if not value:
            raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
        try:
            values[key] = convert(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    missing = sorted(set(keys) - set(optional) - set(values))
    if missing:
        raise ValueError(f"{path}: missing {noun}s: {', '.join(missing)}")
    return values


# ---------------------------------------------------------------------------
# species records


def load_species(path: str | Path) -> AtomSpecies:
    """Parse a one-constant-per-line key-value species file (SI units).

    Lines look like ``mass = 2.2069e-25``; ``#`` starts a comment. All eight
    fields of AtomSpecies are required; unknown keys are rejected so typos
    fail loudly.
    """
    names = [field.name for field in fields(AtomSpecies)]
    return AtomSpecies(**_read_key_values(path, names, "species field", convert=_finite_float))


def cesium_d2() -> AtomSpecies:
    """The packaged Cs D2 record (852 nm, I = 7/2, F = 3/4, F'_max = 5)."""
    ref = resources.files(__package__).joinpath("data/cesium_d2.txt")
    with resources.as_file(ref) as path:
        return load_species(path)
