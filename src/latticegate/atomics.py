"""Atomic species data, the SI constants the package uses, the
``key = value`` file reader shared by the species and lattice configuration
loaders, and the input rules of every public record and function: by
``_require`` each float lies in its row of the ``_RANGES`` table, by
``_require_int`` each count or seed is an integer in a range, and either
raises a ValueError that names the input and gives its value.

Everything here is a pure function; the species record is a frozen dataclass
loaded from a key-value text file so other alkalis can be added without code
changes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
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
    nuclear spin, which fixes the hyperfine labels. Each lies in its row of
    _RANGES, a physical range wide around the alkalis in which the trap and
    catalysis formulas stay inside the doubles. The spin is an integer or
    half-integer below 2**52: from there on every double is a multiple of
    1/2, so the half-integer test would pass on any value, and well below it
    pi_coupling's products stay finite.
    """

    mass: float
    lambda_res: float
    gamma_natural: float
    i_sat: float
    nuclear_spin: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _require(name, **{name: value})
        # a spin within 5e-10 of a multiple of 1/2 counts as that multiple;
        # fmod is exact and cannot overflow
        offset = math.fmod(self.nuclear_spin, 0.5)
        if min(offset, 0.5 - offset) > 5e-10:
            raise ValueError(f"nuclear_spin must be an integer or half-integer, got {self.nuclear_spin!r}")

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


def _shown(bound: float) -> str:
    """A bound as a message prints it: %g where that reads back exactly."""
    return f"{bound:g}" if float(f"{bound:g}") == bound else repr(bound)


def _span(low: float, high: float, unit: str = "", ends: str = "[]") -> tuple[float, float, str]:
    """A row of _RANGES: the doubles from low to high, one double inward at
    an open end, and the rule a message states."""
    return (low if ends[0] == "[" else math.nextafter(low, math.inf),
            high if ends[1] == "]" else math.nextafter(high, -math.inf),
            f"lie in {ends[0]}{_shown(low)}, {_shown(high)}{ends[1]}" + (f" {unit}" if unit else ""))


_MAX = math.nextafter(math.inf, 0.0)
# the lattice light, from 100 nm (UV) to 100 um (past CO2 lasers)
_WAVELENGTH = _span(1e-7, 1e-4, "m")
# deep Lamb-Dicke down to where double precision runs out (TrapGeometry)
_ETA = _span(1e-98, 1.0)

# name -> (lowest, highest, rule): the one table of float domains. A value
# passes its row if lowest <= value <= highest; every row is finite, so NaN
# and +-inf fail them all. The rule is what an error message states.
_RANGES = {
    "positive": (math.ulp(0.0), _MAX, "be positive and finite"),
    "nonnegative": (0.0, _MAX, "be nonnegative and finite"),
    "finite": (-_MAX, _MAX, "be finite"),
    "detuning": (math.ulp(0.0), _MAX,
                 "be positive and finite (blue of resonance; red or zero detuning is not supported)"),
    # AtomSpecies: physical ranges, wide around the alkalis
    "mass": _span(1e-27, 1e-24, "kg"),
    "lambda_res": _span(1e-7, 1e-5, "m"),
    "gamma_natural": _span(1e3, 1e10, "rad/s"),
    "i_sat": _span(1e-3, 1e3, "W/m^2"),
    "nuclear_spin": _span(0.25, 2**52, ends="[)"),
    "lattice_wavelength": _WAVELENGTH,
    "wave_number": (2.0 * math.pi / _WAVELENGTH[1], 2.0 * math.pi / _WAVELENGTH[0],
                    f"lie in [2 pi / {_shown(_WAVELENGTH[1])}, 2 pi / {_shown(_WAVELENGTH[0])}] rad/m"),
    "polarization_angle": _span(0.0, math.pi, "rad"),
    "eta": _ETA,
    # optimize_ratio's eta_perp, below which |kappa_approx| ~ eta**-3 overflows
    "optimize_ratio_eta": _span(_ETA[0], 0.5),
    "rel_tol": _span(0.0, 1e-2, ends="(]"),
    "probability": _span(0.0, 1.0),
    "c_g": _span(-1.0, 1.0, "(a Clebsch-Gordan amplitude)"),
    "c_g4": _span(0.0, 1.0, ends="(]"),
}


def _require(domain: str, written: str = "", /, **values: float) -> None:
    """Raise ValueError at the first value outside the row domain of _RANGES,
    naming it and giving its value, or, if read from a file, its key and text."""
    low, high, rule = _RANGES[domain]
    for name, value in values.items():
        if not low <= value <= high:
            if written:
                name, value = repr(name), written
            raise ValueError(f"{name} must {rule}, got {value!r}")


def _require_int(low: int, high: float = math.inf, why: str = "", /, **values) -> None:
    """Raise ValueError, like _require, at the first value that is not an integer in [low, high):
    Python and numpy integers pass, and a bool or any other type fails."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value < high:
            reason = f" ({why})" if why else ""
            raise ValueError(f"{name} must be an integer in [{low}, {high}){reason}, got {value!r}")


def _number(key: str, text: str, domain: str, scale: float = 1.0, written: str = "") -> float:
    """float(text) * scale, key's value in a key = value file, inside the row
    domain of _RANGES; an error quotes written, the value as written, or text."""
    try:
        value = float(text) * scale
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from None
    _require(domain, written or text, **{key: value})
    return value


def _read_key_values(path: str | Path, keys, noun: str, convert, optional=()) -> dict:
    """Values of a ``key = value`` file, one per line; ``#`` starts a comment.

    Each key must be one of ``keys`` (typos fail loudly), appear once and
    carry a nonempty value, which ``convert(key, value)`` turns into the
    returned value; every key not in ``optional`` is required. ``noun`` names
    a key in the error messages, which, like those of ``convert``, give the
    file and line.
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
            values[key] = convert(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
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
    fail loudly, and a value outside its range is reported as written.
    """
    names = [field.name for field in fields(AtomSpecies)]
    return AtomSpecies(**_read_key_values(path, names, "species field", lambda key, text: _number(key, text, key)))


def cesium_d2() -> AtomSpecies:
    """The packaged Cs D2 record (852 nm, I = 7/2, F = 3/4, F'_max = 5),
    read from the package's data/cesium_d2.txt like any species file."""
    return load_species(Path(__file__).with_name("data") / "cesium_d2.txt")
