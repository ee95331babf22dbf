import json
import math

import numpy as np
import pytest
from scipy.constants import h, hbar

from conftest import CG_PI_4, REF_MEAN_F, REF_MEAN_G, REPO_ROOT
from latticegate import lattice
from latticegate.lattice import (
    SATURATION_LIMIT,
    CatalysisField,
    LatticeBeamConfig,
    TrapParams,
    budget_report,
    catalysis_intensity,
    load_lattice_config,
    trap_params,
    well_separation,
)

# Shipped reference beams: transverse pair 50 W/cm^2 at +120 GHz, axial
# pair 52 W/cm^2 at +2 THz, both on the 852 nm line. The frozen numbers
# below were derived by hand from the closed formulas before this module
# existed.
PERP_INTENSITY = 50.0e4
PERP_DETUNING = 2.0 * math.pi * 120e9
PAR_INTENSITY = 52.0e4
PAR_DETUNING = 2.0 * math.pi * 2e12


def _wave_number(species) -> float:
    """Resonant wave number k = 2 pi / lambda_res, rad/m."""
    return 2.0 * math.pi / species.lambda_res


# --- well separation -----------------------------------------------------------

def test_separation_zero_angle_is_exactly_zero(cesium):
    assert well_separation(0.0, _wave_number(cesium)) == 0.0


def test_separation_quarter_wave_at_perpendicular(cesium):
    k = _wave_number(cesium)
    quarter = cesium.lambda_res / 4.0
    sep = well_separation(math.pi / 2.0, k)
    assert abs(sep - quarter) <= 2.0 * math.ulp(quarter)
    # with k = 1 both sides are computed exactly
    assert well_separation(math.pi / 2.0, 1.0) == math.pi / 2.0


def test_separation_half_wave_at_pi(cesium):
    sep = well_separation(math.pi, _wave_number(cesium))
    assert sep == pytest.approx(cesium.lambda_res / 2.0, rel=1e-12)


def test_separation_strictly_increasing_and_continuous(cesium):
    k = _wave_number(cesium)
    theta = np.linspace(0.0, math.pi - 1e-9, 10_001)
    sep = [well_separation(angle, k) for angle in theta.tolist()]
    steps = np.diff(sep)
    assert np.all(steps > 0.0)
    # the slope d(sep)/d(theta) = (2/k) / (4 cos^2 + sin^2) peaks at 2/k
    dtheta = theta[1] - theta[0]
    assert np.max(steps) <= 2.05 * dtheta / k


# --- trap parameters ------------------------------------------------------------

def test_transverse_trap_frozen_chain(cesium):
    trap = trap_params(cesium, PERP_INTENSITY, PERP_DETUNING, _wave_number(cesium))
    assert trap.well_depth == pytest.approx(3.419504e-27, rel=1e-6)
    assert trap.osc_freq == pytest.approx(206614.6027, rel=1e-8)
    assert trap.ground_rms == pytest.approx(13.5662e-9, rel=1e-5)
    assert trap.lamb_dicke == pytest.approx(0.100045364, rel=1e-8)
    assert trap.scatter_rate == pytest.approx(14.117901, rel=1e-7)


def test_longitudinal_trap_frozen_chain(cesium):
    trap = trap_params(cesium, PAR_INTENSITY, PAR_DETUNING, _wave_number(cesium))
    assert trap.well_depth == pytest.approx(2.133770e-28, rel=1e-6)
    assert trap.osc_freq == pytest.approx(51612.3112, rel=1e-8)
    assert trap.ground_rms == pytest.approx(27.1432e-9, rel=1e-5)
    assert trap.lamb_dicke == pytest.approx(0.200170845, rel=1e-8)
    assert trap.scatter_rate == pytest.approx(0.211599, rel=1e-6)


def test_total_scatter_sums_three_axes(reference_config):
    beams = reference_config.beams
    perp = trap_params(reference_config.species, beams.intensity_perp, beams.detuning_perp, beams.wave_number)
    par = trap_params(reference_config.species, beams.intensity_par, beams.detuning_par, beams.wave_number)
    total = budget_report(reference_config)["lattice_scatter"]["rate_per_s"]
    assert total == pytest.approx(2.0 * perp.scatter_rate + par.scatter_rate, rel=1e-15)
    assert total == pytest.approx(28.447402, rel=1e-7)
    assert total / (2.0 * math.pi) == pytest.approx(4.527545, rel=1e-7)


def test_trap_scaling_laws(cesium):
    k = _wave_number(cesium)
    base = trap_params(cesium, PERP_INTENSITY, PERP_DETUNING, k)
    quad = trap_params(cesium, 4.0 * PERP_INTENSITY, PERP_DETUNING, k)
    assert quad.well_depth / base.well_depth == pytest.approx(4.0, rel=1e-12)
    assert quad.osc_freq / base.osc_freq == pytest.approx(2.0, rel=1e-12)
    assert quad.lamb_dicke / base.lamb_dicke == pytest.approx(4.0**-0.25, rel=1e-12)
    assert quad.scatter_rate / base.scatter_rate == pytest.approx(2.0, rel=1e-12)
    # deeper detuning at fixed intensity: depth and heating both drop as 1/detuning
    far = trap_params(cesium, PERP_INTENSITY, 2.0 * PERP_DETUNING, k)
    assert far.well_depth / base.well_depth == pytest.approx(0.5, rel=1e-12)
    assert far.scatter_rate / base.scatter_rate == pytest.approx(
        0.5 / math.sqrt(2.0), rel=1e-12
    )


def test_trap_geometry_factor_scales_depth(cesium):
    k = _wave_number(cesium)
    base = trap_params(cesium, PERP_INTENSITY, PERP_DETUNING, k)
    doubled = trap_params(cesium, PERP_INTENSITY, PERP_DETUNING, k, geometry_factor=2.0)
    assert doubled.well_depth / base.well_depth == pytest.approx(2.0, rel=1e-12)


def test_trap_rejects_red_detuning_and_saturation(cesium):
    k = _wave_number(cesium)
    with pytest.raises(ValueError, match="red or zero"):
        trap_params(cesium, PERP_INTENSITY, -PERP_DETUNING, k)
    with pytest.raises(ValueError, match="saturation"):
        # 50 W/cm^2 at only 2 pi * 50 MHz: far outside the dispersive regime
        trap_params(cesium, PERP_INTENSITY, 2.0 * math.pi * 50e6, k)
    with pytest.raises(ValueError, match="intensity must be positive"):
        trap_params(cesium, -1.0, PERP_DETUNING, k)
    # a beam that does not trap leaves the atom unconfined, outside the model
    with pytest.raises(ValueError, match=r"^intensity must be positive and finite, got 0\.0$"):
        trap_params(cesium, 0.0, PERP_DETUNING, k)
    with pytest.raises(ValueError, match="geometry_factor"):
        trap_params(cesium, PERP_INTENSITY, PERP_DETUNING, k, geometry_factor=0.0)
    with pytest.raises(ValueError, match="wave_number"):
        trap_params(cesium, PERP_INTENSITY, PERP_DETUNING, 0.0)


def test_trap_params_record_invariants():
    with pytest.raises(ValueError, match="well_depth must be positive"):
        TrapParams(0.0, 0.0, math.inf, math.inf, 0.0)
    with pytest.raises(ValueError, match="ground_rms must be positive and finite"):
        TrapParams(1e-27, 1.0, math.inf, math.inf, 0.0)
    with pytest.raises(ValueError, match="positive"):
        TrapParams(1e-27, -1.0, 1e-9, 0.1, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        TrapParams(1e-27, 1.0, 1e-9, 0.1, -1.0)


# --- catalysis field -------------------------------------------------------------

def test_catalysis_frozen_chain(cesium):
    solution = catalysis_intensity(
        cesium, c_g4=CG_PI_4, mean_f=REF_MEAN_F, mean_g=REF_MEAN_G,
        target_shift=h * 5000.0,
    )
    field = solution.field
    assert field.scatter_rate == pytest.approx(2879.954452904, rel=1e-9)
    assert field.saturation == pytest.approx(1.756164702e-04, rel=1e-9)
    assert field.intensity == pytest.approx(1.931781172e-03, rel=1e-9)
    assert solution.gamma_sup == pytest.approx(1625.387935153, rel=1e-9)
    assert solution.gamma_sup / (2.0 * math.pi) == pytest.approx(258.688524, rel=1e-8)
    assert h * 5000.0 / (hbar * solution.gamma_sup) == pytest.approx(19.3282636, rel=1e-8)


def test_catalysis_round_trip_reaches_requested_shift(cesium):
    target = h * 5000.0
    solution = catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, REF_MEAN_G, target)
    recovered = hbar * solution.field.scatter_rate * CG_PI_4 * abs(REF_MEAN_F)
    assert recovered == pytest.approx(target, rel=1e-12)
    # and the shift over the broadened linewidth is the figure of merit |kappa|
    assert target / (hbar * solution.gamma_sup) == pytest.approx(
        abs(REF_MEAN_F) / (1.0 + REF_MEAN_G), rel=1e-12
    )


def test_catalysis_figure_independent_of_coupling_and_shift(cesium):
    # the Clebsch-Gordan factor and drive strength cancel out of the
    # shift-to-linewidth ratio
    a = catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, REF_MEAN_G, h * 5000.0)
    b = catalysis_intensity(cesium, 0.5, REF_MEAN_F, REF_MEAN_G, h * 1.0)
    figure_a = h * 5000.0 / (hbar * a.gamma_sup)
    figure_b = h * 1.0 / (hbar * b.gamma_sup)
    assert figure_a == pytest.approx(figure_b, rel=1e-12)
    # while the required intensity does scale: weaker coupling needs more light
    assert b.field.intensity != a.field.intensity


def test_catalysis_ignores_shift_sign(cesium):
    up = catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, REF_MEAN_G, h * 5000.0)
    down = catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, REF_MEAN_G, -h * 5000.0)
    assert up == down


def test_catalysis_validation(cesium):
    with pytest.raises(ValueError, match="mean_g"):
        catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, -1.0, h * 5000.0)
    with pytest.raises(ValueError, match="mean_f"):
        catalysis_intensity(cesium, CG_PI_4, 0.0, REF_MEAN_G, h * 5000.0)
    with pytest.raises(ValueError):
        CatalysisField(-1.0, 0.1, 1.0)


def test_catalysis_stays_a_weak_drive(cesium):
    # the reference needs saturation 1.8e-4 at 5 kHz, so SATURATION_LIMIT
    # falls near 2.85 MHz, as for the trap beams
    below = catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, REF_MEAN_G, h * 2.8e6)
    assert 0.09 < below.field.saturation <= SATURATION_LIMIT
    with pytest.raises(ValueError, match=r"^saturation 0\.102 at target_shift .* exceeds the weak-drive limit 0\.1;"):
        catalysis_intensity(cesium, CG_PI_4, REF_MEAN_F, REF_MEAN_G, h * 2.9e6)


# --- configuration loading --------------------------------------------------------

def test_reference_config_loads(reference_config, cesium):
    cfg = reference_config
    assert cfg.species == cesium
    assert cfg.species_name == "cesium_d2"
    assert cfg.beams.intensity_perp == pytest.approx(PERP_INTENSITY, rel=1e-15)
    assert cfg.beams.intensity_par == pytest.approx(PAR_INTENSITY, rel=1e-15)
    assert cfg.beams.detuning_perp == pytest.approx(PERP_DETUNING, rel=1e-15)
    assert cfg.beams.detuning_par == pytest.approx(PAR_DETUNING, rel=1e-15)
    assert cfg.beams.wave_number == pytest.approx(2.0 * math.pi / 852e-9, rel=1e-12)
    assert cfg.beams.polarization_angle == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert (cfg.design_geometry.eta_perp, cfg.design_geometry.eta_par) == (0.1, 0.2)
    assert cfg.target_shift == pytest.approx(h * 5000.0, rel=1e-15)
    assert cfg.geometry_factor == 1.0


def _write_config(tmp_path, **overrides):
    entries = {
        "species": "cesium_d2",
        "intensity_perp": "50 W/cm2",
        "intensity_par": "52 W/cm2",
        "detuning_perp": "120 GHz",
        "detuning_par": "2 THz",
        "lattice_wavelength": "852 nm",
        "polarization_angle": "90 deg",
        "design_eta_perp": "0.1",
        "design_eta_par": "0.2",
        "target_shift": "5 kHz",
    }
    entries.update(overrides)
    path = tmp_path / "lattice.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None))
    return path


def test_config_unit_conversions(tmp_path):
    cfg = load_lattice_config(_write_config(
        tmp_path,
        intensity_perp="50000 mW/cm2",
        detuning_perp="120000 MHz",
        lattice_wavelength="0.852 um",
        polarization_angle=f"{math.pi / 2.0} rad",
        target_shift="5000 Hz",
    ))
    assert cfg.beams.intensity_perp == pytest.approx(PERP_INTENSITY, rel=1e-12)
    assert cfg.beams.detuning_perp == pytest.approx(PERP_DETUNING, rel=1e-12)
    assert cfg.beams.wave_number == pytest.approx(2.0 * math.pi / 852e-9, rel=1e-12)
    assert cfg.beams.polarization_angle == math.pi / 2.0
    assert cfg.target_shift == pytest.approx(h * 5000.0, rel=1e-12)


def test_readme_config_example_is_the_reference_config(tmp_path, reference_config):
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    # its comments list exactly the units the loader accepts
    comments = [line.partition("#")[2].strip() for line in block.splitlines()]
    for table in lattice._UNITS.values():
        assert any(c.endswith(", ".join(table)) for c in comments), list(table)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert load_lattice_config(path) == reference_config


def test_config_species_path_resolved_relative(tmp_path, cesium):
    (tmp_path / "species.txt").write_text(
        f"mass = {cesium.mass!r}\nlambda_res = {cesium.lambda_res!r}\n"
        f"gamma_natural = {cesium.gamma_natural!r}\ni_sat = {cesium.i_sat!r}\n"
        "nuclear_spin = 3.5\n"
    )
    cfg = load_lattice_config(_write_config(tmp_path, species="species.txt"))
    assert cfg.species == cesium
    assert cfg.species_name == "species.txt"


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(target_shift=None), "missing keys"),
        (dict(beam_power="3 W"), "unknown key"),
        (dict(intensity_perp="50"), "needs a intensity unit"),
        (dict(intensity_perp="50 W"), "unknown intensity unit"),
        (dict(design_eta_perp="0.1 rad"), "dimensionless"),
        (dict(detuning_perp="fast GHz"), "could not convert"),
        (dict(polarization_angle="1 2 rad"), "malformed"),
        (dict(intensity_perp=""), "empty value"),
        # a value with a newline leaves a second line that has no "="
        (dict(target_shift="5 kHz\nbeam_power 3 W"), "expected 'key = value'"),
        # nan and inf parse as floats but lie in no range: they never reach
        # the formulas, and each error gives the key and the value as written
        (dict(intensity_perp="nan W/cm2"),
         r"cfg:2: 'intensity_perp' must be positive and finite, got 'nan W/cm2'$"),
        (dict(target_shift="nan kHz"), r"cfg:10: 'target_shift' must be finite, got 'nan kHz'$"),
        (dict(geometry_factor="nan"), r"cfg:11: 'geometry_factor' must be positive and finite, got 'nan'$"),
        (dict(detuning_par="inf THz"), r"cfg:5: 'detuning_par' must be positive and finite \(blue of"),
        # 0 nm parses but would divide by zero in the wave number
        (dict(lattice_wavelength="0 nm"),
         r"cfg:6: 'lattice_wavelength' must lie in \[1e-07, 0\.0001\] m, got '0 nm'$"),
        # every beam traps, and the lattice light lies between 100 nm and 100 um
        (dict(intensity_perp="0 W/cm2"), r"cfg:2: 'intensity_perp' must be positive and finite, got '0 W/cm2'$"),
        (dict(lattice_wavelength="1 m"),
         r"cfg:6: 'lattice_wavelength' must lie in \[1e-07, 0\.0001\] m, got '1 m'$"),
        (dict(design_eta_perp="2"), r"cfg:8: 'design_eta_perp' must lie in \[1e-98, 1\], got '2'$"),
        (dict(detuning_perp="-5 GHz"),
         r"cfg:4: 'detuning_perp' must be positive and finite \(blue of resonance; red or zero detuning is not "
         r"supported\), got '-5 GHz'$"),
        (dict(polarization_angle="200 deg"),
         r"cfg:7: 'polarization_angle' must lie in \[0, 3\.141592653589793\] rad, got '200 deg'$"),
        # a unit scale that overflows the number is caught under its key
        (dict(target_shift="1e300 THz"), r"cfg:10: 'target_shift' must be finite, got '1e300 THz'$"),
        # a species file's value is reported in that file, under its key
        (dict(species="bad_species.txt"),
         r"bad_species\.txt:1: 'mass' must lie in \[1e-27, 1e-24\] kg, got '1'$"),
    ],
)
def test_config_errors(tmp_path, overrides, fragment):
    (tmp_path / "bad_species.txt").write_text("mass = 1\n")
    path = _write_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=fragment):
        load_lattice_config(path)


def test_config_rejects_duplicates(tmp_path):
    path = _write_config(tmp_path)
    path.write_text(path.read_text() + "target_shift = 6 kHz\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_lattice_config(path)


def test_beam_config_validation(cesium):
    k = _wave_number(cesium)
    LatticeBeamConfig(1.0, 1.0, 1.0, 1.0, k, 0.0)
    with pytest.raises(ValueError, match="intensity_perp must be positive"):
        LatticeBeamConfig(-1.0, 1.0, 1.0, 1.0, k, 0.0)
    with pytest.raises(ValueError, match="intensity_par must be positive"):
        LatticeBeamConfig(1.0, 0.0, 1.0, 1.0, k, 0.0)


# --- budget report ----------------------------------------------------------------

def test_budget_report_reference_numbers(reference_config):
    report = budget_report(reference_config)
    assert report["transverse_trap"]["osc_freq_hz"] == pytest.approx(206614.6027, rel=1e-8)
    assert report["longitudinal_trap"]["osc_freq_hz"] == pytest.approx(51612.3112, rel=1e-8)
    assert report["dipole_average"]["derived_eta_perp"] == pytest.approx(0.100045364, rel=1e-8)
    assert report["dipole_average"]["derived_eta_par"] == pytest.approx(0.200170845, rel=1e-8)
    assert report["dipole_average"]["mean_f"] == pytest.approx(REF_MEAN_F, rel=1e-8)
    assert report["lattice_scatter"]["rate_over_2pi_hz"] == pytest.approx(4.527545, rel=1e-7)
    assert report["figure_of_merit"]["kappa"] == pytest.approx(-19.3282636, rel=1e-8)
    assert report["catalysis"]["superradiant_rate_over_2pi_hz"] == pytest.approx(
        258.688524, rel=1e-8
    )
    assert report["catalysis"]["intensity_uw_cm2"] == pytest.approx(0.193178117, rel=1e-8)
    assert report["well_separation"]["separation_m"] == pytest.approx(852e-9 / 4.0, rel=1e-12)
    # the design localization matches what the beams actually produce
    assert report["dipole_average"]["derived_eta_perp"] == pytest.approx(
        report["dipole_average"]["design_eta_perp"], rel=1e-3
    )


def test_budget_report_is_json_ready(reference_config):
    report = budget_report(reference_config)
    parsed = json.loads(json.dumps(report))
    assert parsed["species"]["name"] == "cesium_d2"


def test_shipped_reference_config_exists():
    assert (REPO_ROOT / "configs" / "cesium_reference.cfg").is_file()
