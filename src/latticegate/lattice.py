"""Lattice geometry, trap-parameter budget, and the catalysis-field solver.

Covers the classical engineering side of the scheme: where the two
polarization-split standing waves put their wells as the polarization angle
turns, what trap frequencies / Lamb-Dicke parameters / photon-scattering
rates a given set of beam intensities and detunings buys, and how strong
the near-resonant catalysis field must be to reach a requested
dipole-dipole shift. `budget_report` strings the pieces together into one
JSON-ready dictionary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .atomics import HBAR, PLANCK, AtomSpecies, _finite_float, _read_key_values, _require, cesium_d2, load_species
from .overlap import QuadratureSpec, TrapGeometry, mean_fg

__all__ = [
    "SATURATION_LIMIT",
    "LatticeBeamConfig",
    "TrapParams",
    "CatalysisField",
    "CatalysisSolution",
    "LatticeConfig",
    "well_separation",
    "trap_params",
    "catalysis_intensity",
    "load_lattice_config",
    "budget_report",
]

SATURATION_LIMIT = 0.1

# why a detuning must be positive
_BLUE = "blue of resonance; red or zero detuning is not supported"


@dataclass(frozen=True)
class LatticeBeamConfig:
    """Beam parameters of the two standing-wave pairs.

    Intensities in W/m^2 per beam, detunings in rad/s and blue of the
    resonance, wave_number in rad/m, polarization_angle in rad between the
    linear polarizations of the counter-propagating transverse beams.
    Intensity zero is allowed as the explicit no-trap degenerate case.
    """

    intensity_perp: float
    intensity_par: float
    detuning_perp: float
    detuning_par: float
    wave_number: float
    polarization_angle: float

    def __post_init__(self) -> None:
        _require("nonnegative", intensity_perp=self.intensity_perp, intensity_par=self.intensity_par)
        _require("positive", _BLUE, detuning_perp=self.detuning_perp, detuning_par=self.detuning_par)
        _require("positive", wave_number=self.wave_number)
        if not 0.0 <= self.polarization_angle <= math.pi:
            raise ValueError("polarization_angle must lie in [0, pi]")


@dataclass(frozen=True)
class TrapParams:
    """One axis of the harmonic well: depth, frequency, width, scattering.

    osc_freq is an ordinary frequency in Hz. A zero-intensity beam gives
    the degenerate record (zero depth, frequency and scattering; infinite
    ground-state width), kept constructible so an all-zero budget stays
    representable.
    """

    well_depth: float
    osc_freq: float
    ground_rms: float
    lamb_dicke: float
    scatter_rate: float

    def __post_init__(self) -> None:
        if self.well_depth == 0.0:
            if self.osc_freq != 0.0 or self.scatter_rate != 0.0:
                raise ValueError("zero-depth trap must have zero frequency and scattering")
            if not (math.isinf(self.ground_rms) and math.isinf(self.lamb_dicke)):
                raise ValueError("zero-depth trap leaves the atom unconfined")
            return
        _require("positive", well_depth=self.well_depth, osc_freq=self.osc_freq, ground_rms=self.ground_rms,
                 lamb_dicke=self.lamb_dicke)
        _require("nonnegative", scatter_rate=self.scatter_rate)


@dataclass(frozen=True)
class CatalysisField:
    """Resonant field driving the dipoles: intensity in W/m^2, saturation
    parameter, and the single-atom scattering rate it causes."""

    intensity: float
    saturation: float
    scatter_rate: float

    def __post_init__(self) -> None:
        _require("nonnegative", **vars(self))


@dataclass(frozen=True)
class CatalysisSolution:
    """Catalysis field plus the pair-level rates it implies.

    gamma_sup is the superradiantly enhanced scattering rate of the doubly
    excited-logical pair. The shift-to-linewidth ratio |shift| /
    (hbar * gamma_sup) is |kappa|, independent of the drive strength and of
    the Clebsch-Gordan factor.
    """

    field: CatalysisField
    gamma_sup: float

    def __post_init__(self) -> None:
        _require("nonnegative", gamma_sup=self.gamma_sup)


def well_separation(theta: float, wave_number: float) -> float:
    """Distance between the two standing waves' well minima at one angle.

    The sigma+ and sigma- components of the angled-polarization pair form
    standing waves whose minima slide apart as the angle opens; on the
    branch continuous in theta the separation is atan2(sin, 2 cos)/k,
    growing monotonically from 0 through a quarter wavelength at 90 deg.
    theta must lie in [0, pi]; a NaN angle is rejected with the rest.
    """
    _require("positive", wave_number=wave_number)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"polarization angle theta must lie in [0, pi], got {theta!r}")
    # cos(pi/2) is only zero to rounding; snap it so the quarter-wave
    # separation at 90 degrees comes out exact rather than one ulp short
    two_cos = 2.0 * math.cos(theta)
    if abs(two_cos) < 1e-12:
        two_cos = 0.0
    separation = math.atan2(math.sin(theta), two_cos) / wave_number
    if separation == math.inf:
        raise ValueError(f"the well separation overflows at wave_number {wave_number!r}")
    return separation


def trap_params(
    species: AtomSpecies,
    intensity: float,
    detuning: float,
    wave_number: float,
    geometry_factor: float = 1.0,
) -> TrapParams:
    """Far-off-resonance standing-wave trap parameters for one axis.

    Two-level light shift per beam U1 = hbar Gamma^2 (I/I_sat) / (8 Delta),
    standing-wave depth 4 U1 times a geometry factor absorbing beam
    arrangement details, harmonic expansion about the node for blue
    detuning. The scattering contribution is the zero-point residual: a
    node-sited atom samples the field over its ground-state width, which
    in the harmonic approximation scatters at Gamma * omega / (4 Delta).
    """
    _require("positive", _BLUE, detuning=detuning)
    _require("nonnegative", intensity=intensity)
    _require("positive", geometry_factor=geometry_factor, wave_number=wave_number)
    if intensity == 0.0:
        return TrapParams(0.0, 0.0, math.inf, math.inf, 0.0)
    gamma = species.gamma_natural
    try:
        lorentzian = 1.0 + (2.0 * detuning / gamma) ** 2
    except OverflowError:
        raise ValueError(f"detuning is too large: (2 detuning / gamma_natural)**2 overflows, "
                         f"got {detuning!r}") from None
    saturation = (intensity / species.i_sat) / lorentzian
    if saturation > SATURATION_LIMIT:
        raise ValueError(
            f"saturation {saturation:.3g} exceeds the far-off-resonance limit "
            f"{SATURATION_LIMIT}; the two-level light-shift model does not apply"
        )
    single_beam_shift = HBAR * gamma**2 * (intensity / species.i_sat) / (8.0 * detuning)
    depth = 4.0 * single_beam_shift * geometry_factor
    omega = wave_number * math.sqrt(2.0 * depth / species.mass)
    width_denominator = 2.0 * species.mass * omega
    if width_denominator == 0.0:
        raise ValueError(f"the trap frequency underflows to 0 at intensity {intensity!r} "
                         f"and detuning {detuning!r}")
    rms = math.sqrt(HBAR / width_denominator)
    return TrapParams(
        well_depth=depth,
        osc_freq=omega / (2.0 * math.pi),
        ground_rms=rms,
        lamb_dicke=wave_number * rms,
        scatter_rate=gamma * omega / (4.0 * detuning),
    )


def catalysis_intensity(
    species: AtomSpecies,
    c_g4: float,
    mean_f: float,
    mean_g: float,
    target_shift: float,
) -> CatalysisSolution:
    """Resonant catalysis field reaching a requested dipole-dipole shift.

    Inverts |shift| = hbar * Gamma' * c_g4 * |<f>| for the single-atom
    scattering rate Gamma', converts to saturation s = 2 Gamma' / Gamma and
    intensity I = s * I_sat, and reports the superradiant pair rate
    Gamma' * c_g4 * (1 + <g>). target_shift is in joules; its sign is
    ignored.
    """
    if not 0.0 < c_g4 <= 1.0:
        raise ValueError("c_g4 must lie in (0, 1]")
    _require("finite", mean_f=mean_f, mean_g=mean_g, target_shift=target_shift)
    if mean_g <= -1.0:
        raise ValueError("mean_g <= -1 would put the pair linewidth at or below zero")
    if mean_f == 0.0:
        raise ValueError("mean_f = 0: no field strength produces a level shift")
    shift_per_rate = HBAR * c_g4 * abs(mean_f)
    if shift_per_rate == 0.0:
        raise ValueError(f"hbar * c_g4 * |mean_f| underflows to 0 at c_g4 {c_g4!r} and mean_f {mean_f!r}")
    gamma_prime = abs(target_shift) / shift_per_rate
    saturation = 2.0 * gamma_prime / species.gamma_natural
    field = CatalysisField(
        intensity=saturation * species.i_sat,
        saturation=saturation,
        scatter_rate=gamma_prime,
    )
    gamma_sup = gamma_prime * c_g4 * (1.0 + mean_g)
    return CatalysisSolution(field=field, gamma_sup=gamma_sup)


# --- configuration file ---------------------------------------------------

_INTENSITY_UNITS = {
    "W/m2": 1.0,
    "mW/m2": 1e-3,
    "W/cm2": 1e4,
    "mW/cm2": 10.0,
    "uW/cm2": 1e-2,
}
_FREQUENCY_UNITS = {
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
    "THz": 1e12,
}
_LENGTH_UNITS = {"m": 1.0, "um": 1e-6, "nm": 1e-9}
_ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}


@dataclass(frozen=True)
class LatticeConfig:
    """Parsed run configuration: species, beams, the design localization
    at which the dipole average is quoted, and the requested shift."""

    species: AtomSpecies
    species_name: str
    beams: LatticeBeamConfig
    design_geometry: TrapGeometry
    target_shift: float
    geometry_factor: float

    def __post_init__(self) -> None:
        _require("finite", target_shift=self.target_shift)
        _require("positive", geometry_factor=self.geometry_factor)


# each number key's (unit kind, unit table), or None for a dimensionless one
_CONFIG_KEYS = {
    "intensity_perp": ("intensity", _INTENSITY_UNITS),
    "intensity_par": ("intensity", _INTENSITY_UNITS),
    "detuning_perp": ("frequency", _FREQUENCY_UNITS),
    "detuning_par": ("frequency", _FREQUENCY_UNITS),
    "lattice_wavelength": ("length", _LENGTH_UNITS),
    "polarization_angle": ("angle", _ANGLE_UNITS),
    "design_eta_perp": None,
    "design_eta_par": None,
    "target_shift": ("frequency", _FREQUENCY_UNITS),
    "geometry_factor": None,
}


def _quantity(key: str, raw: str) -> float:
    """The ``number [unit]`` value raw of key, in the SI unit of its table."""
    parts = raw.split()
    if len(parts) > 2:
        raise ValueError(f"malformed value for {key!r}: {raw!r}")
    try:
        value = _finite_float(parts[0])
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from exc
    unit = parts[1] if len(parts) == 2 else None
    if _CONFIG_KEYS[key] is None:
        if unit is not None:
            raise ValueError(f"{key!r} is dimensionless, got unit {unit!r}")
        return value
    kind, units = _CONFIG_KEYS[key]
    if unit is None:
        raise ValueError(f"{key!r} needs a {kind} unit, one of {sorted(units)}")
    if unit not in units:
        raise ValueError(f"unknown {kind} unit {unit!r} for {key!r}; use one of {sorted(units)}")
    return value * units[unit]


def load_lattice_config(path: str | Path) -> LatticeConfig:
    """Read a key = value lattice configuration.

    Each number is read in file order by the row of _CONFIG_KEYS for its
    key. Detunings and the target shift are given as ordinary frequencies
    (Hz...THz) and converted to rad/s and joules respectively: a detuning
    of "120 GHz" means 2 pi * 120e9 rad/s, a target_shift of "5 kHz" means
    the level shift whose magnitude over the Planck constant is 5 kHz.
    Intensities accept W/m2 and the usual per-cm^2 variants; the species
    is either the built-in "cesium_d2" or a path to a species file,
    resolved relative to the configuration file.
    """
    path = Path(path)
    values = _read_key_values(path, {"species", *_CONFIG_KEYS}, "key", optional={"geometry_factor"})

    species_name = values.pop("species")
    if species_name == "cesium_d2":
        species = cesium_d2()
    else:
        species = load_species(path.parent / species_name)

    number = {key: _quantity(key, raw) for key, raw in values.items()}
    wavelength = number["lattice_wavelength"]
    if wavelength <= 0:
        raise ValueError(f"'lattice_wavelength' must be positive, got {values['lattice_wavelength']!r}")
    beams = LatticeBeamConfig(
        intensity_perp=number["intensity_perp"],
        intensity_par=number["intensity_par"],
        detuning_perp=2.0 * math.pi * number["detuning_perp"],
        detuning_par=2.0 * math.pi * number["detuning_par"],
        wave_number=2.0 * math.pi / wavelength,
        polarization_angle=number["polarization_angle"],
    )
    return LatticeConfig(
        species=species,
        species_name=species_name,
        beams=beams,
        design_geometry=TrapGeometry(eta_perp=number["design_eta_perp"], eta_par=number["design_eta_par"]),
        target_shift=PLANCK * number["target_shift"],
        geometry_factor=number.get("geometry_factor", 1.0),
    )


# --- budget ---------------------------------------------------------------


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _trap_block(params: TrapParams) -> dict:
    return {
        "well_depth_joule": params.well_depth,
        "osc_freq_hz": params.osc_freq,
        "ground_rms_m": _finite_or_none(params.ground_rms),
        "lamb_dicke": _finite_or_none(params.lamb_dicke),
        "scatter_rate_per_s": params.scatter_rate,
        "formulas": {
            "well_depth": "4 * geometry_factor * hbar * gamma^2 * (I / I_sat) / (8 * detuning)",
            "osc_freq": "(k / 2 pi) * sqrt(2 * well_depth / mass)",
            "ground_rms": "sqrt(hbar / (2 * mass * 2 pi * osc_freq))",
            "lamb_dicke": "k * ground_rms",
            "scatter_rate": "gamma * (2 pi * osc_freq) / (4 * detuning)",
        },
    }


def budget_report(config: LatticeConfig, quad_spec: QuadratureSpec = QuadratureSpec()) -> dict:
    """Full parameter budget as a JSON-ready dictionary.

    Trap blocks derive from the configured beams; the dipole average and
    everything downstream of it (figure of merit, catalysis field) are
    quoted at the configured design localization, with the derived
    Lamb-Dicke parameters reported alongside so the consistency of the
    two is visible in the output.
    """
    species = config.species
    beams = config.beams
    perp = trap_params(
        species, beams.intensity_perp, beams.detuning_perp, beams.wave_number, config.geometry_factor
    )
    par = trap_params(
        species, beams.intensity_par, beams.detuning_par, beams.wave_number, config.geometry_factor
    )
    lattice_rate = 2.0 * perp.scatter_rate + par.scatter_rate

    design = config.design_geometry
    expectation = mean_fg(design, quad_spec)
    solution = catalysis_intensity(
        species,
        c_g4=species.pi_coupling**4,
        mean_f=expectation.mean_f,
        mean_g=expectation.mean_g,
        target_shift=config.target_shift,
    )

    theta = beams.polarization_angle
    return {
        "species": {
            "name": config.species_name,
            "mass_kg": species.mass,
            "gamma_natural_per_s": species.gamma_natural,
            "i_sat_w_m2": species.i_sat,
            "lambda_res_m": species.lambda_res,
        },
        "beams": {
            "intensity_perp_w_m2": beams.intensity_perp,
            "intensity_par_w_m2": beams.intensity_par,
            "detuning_perp_rad_s": beams.detuning_perp,
            "detuning_par_rad_s": beams.detuning_par,
            "wave_number_rad_m": beams.wave_number,
            "polarization_angle_rad": theta,
        },
        "transverse_trap": _trap_block(perp),
        "longitudinal_trap": _trap_block(par),
        "lattice_scatter": {
            "rate_per_s": lattice_rate,
            "rate_over_2pi_hz": lattice_rate / (2.0 * math.pi),
            "formula": "2 * transverse.scatter_rate + longitudinal.scatter_rate",
        },
        "well_separation": {
            "angle_rad": theta,
            "separation_m": well_separation(theta, beams.wave_number),
            "formula": "atan2(sin(angle), 2 cos(angle)) / k",
        },
        "dipole_average": {
            "design_eta_perp": design.eta_perp,
            "design_eta_par": design.eta_par,
            "derived_eta_perp": _finite_or_none(perp.lamb_dicke),
            "derived_eta_par": _finite_or_none(par.lamb_dicke),
            **asdict(expectation),
        },
        "figure_of_merit": {
            "kappa": expectation.kappa,
            "magnitude": abs(expectation.kappa),
            "formula": "-mean_f / (1 + mean_g)",
        },
        "catalysis": {
            "target_shift_joule": config.target_shift,
            "target_shift_over_h_hz": config.target_shift / PLANCK,
            "pi_coupling_4": species.pi_coupling**4,
            "intensity_w_m2": solution.field.intensity,
            "intensity_uw_cm2": solution.field.intensity * 1e2,
            "saturation": solution.field.saturation,
            "scatter_rate_per_s": solution.field.scatter_rate,
            "superradiant_rate_per_s": solution.gamma_sup,
            "superradiant_rate_over_2pi_hz": solution.gamma_sup / (2.0 * math.pi),
            "formulas": {
                "scatter_rate": "|target_shift| / (hbar * c_g^4 * |mean_f|)",
                "saturation": "2 * scatter_rate / gamma",
                "intensity": "saturation * I_sat",
                "superradiant_rate": "scatter_rate * c_g^4 * (1 + mean_g)",
            },
        },
    }
