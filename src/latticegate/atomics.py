"""Atomic species data, the SI constants the package uses, the
``key = value`` file reader shared by the species and lattice configuration
loaders, and ``_require``, the one input rule of every public record and
function: each float is positive, nonnegative or merely finite, and NaN and
+-inf fail every rule with a ValueError that names the input.

Everything here is a pure function; the species record is a frozen dataclass
loaded from a key-value text file so other alkalis can be added without code
changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

__all__ = [
    "PLANCK",
    "HBAR",
    "AtomSpecies",
    "load_species",
    "cesium_d2",
]

# Planck constant in J s, exact in the SI since 2019, and the reduced one.
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2 * math.pi)


@dataclass(frozen=True)
class AtomSpecies:
    """Constants of one alkali D2 transition.

    mass kg, lambda_res m, gamma_natural rad/s, i_sat W/m^2, and the
    nuclear spin, which fixes the hyperfine labels. The spin must lie below
    2**52: from there on every double is a multiple of 1/2, so the
    half-integer test would pass on any value, and well below it
    pi_coupling's products stay finite.
    """

    mass: float
    lambda_res: float
    gamma_natural: float
    i_sat: float
    nuclear_spin: float

    def __post_init__(self) -> None:
        _require("positive", **vars(self))
        # a spin within 5e-10 of a multiple of 1/2 counts as that multiple,
        # so one that close to zero fails; fmod is exact and cannot overflow
        offset = math.fmod(self.nuclear_spin, 0.5)
        if min(offset, 0.5 - offset) > 5e-10:
            raise ValueError(f"nuclear_spin must be an integer or half-integer, got {self.nuclear_spin!r}")
        if self.nuclear_spin < 0.25:
            raise ValueError("nuclear_spin must be positive")
        if self.nuclear_spin >= 2**52:
            raise ValueError(f"nuclear_spin must lie below 2**52, got {self.nuclear_spin!r}")

    @property
    def f_up(self) -> float:
        """The upper ground hyperfine level, F = nuclear_spin + 1/2."""
        return self.nuclear_spin + 0.5

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


# ---------------------------------------------------------------------------
# input domains and key = value files

# the domains _require names; each is finite, and every comparison with NaN
# is false, so NaN and +-inf fail them all
_DOMAINS = {
    "positive": lambda x: 0.0 < x < math.inf,
    "nonnegative": lambda x: 0.0 <= x < math.inf,
    "finite": lambda x: -math.inf < x < math.inf,
}


def _require(domain: str, why: str = "", /, **values: float) -> None:
    """Raise ValueError at the first value outside domain, a key of _DOMAINS;
    the message names the value and adds why, if given, in parentheses."""
    for name, value in values.items():
        if not _DOMAINS[domain](value):
            rule = domain if domain == "finite" else f"{domain} and finite"
            raise ValueError(f"{name} must be {rule}{f' ({why})' if why else ''}, got {value!r}")


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

    Lines look like ``mass = 2.2069e-25``; ``#`` starts a comment. All five
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
