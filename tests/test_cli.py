"""End-to-end checks of the command line interface via subprocess.

Every invocation goes through ``python -m latticegate.cli`` so the tests
exercise argument parsing, exit codes, and byte-level output stability
exactly as a shell user would see them. A test that only reads the result of
one of scripts/cli_digests.py's commands takes the session's run of it
(read_cli) instead of starting the command again.
"""

import json
import math
import re
import shlex
import shutil
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, package_imports, run_cli
from latticegate.cli import build_parser
from latticegate.ensemble import STAGES

# as cli_digests names it, relative to the repository root that run_cli runs in
CONFIG = "configs/cesium_reference.cfg"
CONFIG_TEXT = (REPO_ROOT / CONFIG).read_text()


def assert_nine_digit_floats(obj, path="$"):
    """Emitted floats must round-trip through nine significant digits."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, float):
        if math.isfinite(obj):
            assert float(f"{obj:.9g}") == obj, f"{path} = {obj!r} is not 9-digit clean"
    elif isinstance(obj, dict):
        for key, value in obj.items():
            assert_nine_digit_floats(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            assert_nine_digit_floats(value, f"{path}[{i}]")


# --- kappa ------------------------------------------------------------------

def test_kappa_json_payload(read_cli):
    result = read_cli("kappa", "--eta-perp", "0.1", "--eta-par", "0.2")
    doc = json.loads(result.stdout)
    assert doc["schema_version"] == 1
    prov = doc["provenance"]
    assert prov["seed"] == 1729
    assert len(prov["config_hash"]) == 16
    int(prov["config_hash"], 16)
    assert doc["kappa"] == pytest.approx(-19.3282636, rel=1e-8)
    assert doc["mean_g"] == pytest.approx(0.984147511, rel=1e-8)
    assert doc["kappa_approx"] > 0
    assert doc["kappa_approx_sign_aligned"] == pytest.approx(doc["kappa"], rel=0.15)
    assert doc["evaluations"] > 0 and doc["err_f"] >= 0
    assert_nine_digit_floats(doc)


def test_kappa_runs_are_byte_identical(tmp_path):
    first = run_cli("kappa", "--eta-perp", "0.13", "--eta-par", "0.21")
    second = run_cli("kappa", "--eta-perp", "0.13", "--eta-par", "0.21")
    assert first.stdout == second.stdout
    out_file = tmp_path / "kappa.json"
    run_cli("kappa", "--eta-perp", "0.13", "--eta-par", "0.21", "--out", str(out_file))
    assert out_file.read_text() == first.stdout


def test_kappa_config_hash_tracks_inputs(read_cli):
    base = json.loads(read_cli("kappa", "--eta-perp", "0.1", "--eta-par", "0.2").stdout)
    moved = json.loads(run_cli("kappa", "--eta-perp", "0.11", "--eta-par", "0.2").stdout)
    assert base["provenance"]["config_hash"] != moved["provenance"]["config_hash"]


def test_kappa_rejects_bad_geometry():
    result = run_cli("kappa", "--eta-perp", "2.0", "--eta-par", "0.2", check=False)
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_kappa_missing_required_flag_is_usage_error():
    result = run_cli("kappa", "--eta-par", "0.2", check=False)
    assert result.returncode == 2
    assert "error" in result.stderr


def test_kappa_starved_budget_exits_no_convergence():
    result = run_cli(
        "kappa", "--eta-perp", "0.1", "--eta-par", "0.2", "--eval-budget", "100",
        check=False,
    )
    assert result.returncode == 3
    assert "converge" in result.stderr


# the exit code of each extreme geometry: 2 below TrapGeometry's 1e-98
# floor, 0 inside the domain, out to its corners and to aspect ratios past
# 6.7e7, where the closed form's artanh branch has to switch
EXTREME_GEOMETRY_EXITS = {
    ("1e-105", "1e-105"): 2,
    ("1e-300", "1e-300"): 2,
    ("1e-5", "0.2"): 0,
    ("1e-120", "0.1"): 2,
    ("1e-99", "0.1"): 2,
    ("0.1", "1e-99"): 2,
    ("1e-98", "1e-98"): 0,
    ("1e-8", "1.0"): 0,
    ("1e-9", "0.5"): 0,
}


@pytest.mark.parametrize("eta_perp,eta_par", list(EXTREME_GEOMETRY_EXITS))
def test_kappa_extreme_geometry_never_prints_a_silent_number(read_cli, eta_perp, eta_par):
    # each answer is finite or names the domain it left, never a traceback,
    # a numpy warning or a nan with exit 0
    result = read_cli("kappa", "--eta-perp", eta_perp, "--eta-par", eta_par, check=False)
    assert result.returncode == EXTREME_GEOMETRY_EXITS[eta_perp, eta_par], result.stderr
    if result.returncode == 0:
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        for key in ("mean_f", "mean_g", "err_f", "err_g", "kappa", "kappa_approx"):
            assert math.isfinite(doc[key]), key
    else:
        assert result.stdout == ""
        name, value = ("eta_perp", eta_perp) if float(eta_perp) < 1e-98 else ("eta_par", eta_par)
        assert result.stderr == f"error: {name} must lie in [1e-98, 1], got {value}\n"


# --- map --------------------------------------------------------------------

def test_map_output_is_worker_independent(tmp_path):
    argv = (
        "map",
        "--perp-min", "0.1", "--perp-max", "0.2", "--perp-steps", "3",
        "--par-min", "0.1", "--par-max", "0.2", "--par-steps", "3",
    )
    serial = run_cli(*argv, "--jobs", "1")
    threaded = run_cli(*argv, "--jobs", "2")
    assert serial.stdout == threaded.stdout
    header = [line for line in serial.stdout.splitlines() if line.startswith("#")]
    assert len(header) == 5
    assert header[0].startswith("# latticegate ")
    assert header[1] == "# schema_version 1"
    assert header[2].startswith("# config_hash ")
    assert header[3] == "# seed 1729"
    assert header[4] == "# failed_cells 0"


def test_map_single_cell_agrees_with_kappa_command(read_cli):
    cell = run_cli(
        "map",
        "--perp-min", "0.1", "--perp-max", "0.1", "--perp-steps", "1",
        "--par-min", "0.2", "--par-max", "0.2", "--par-steps", "1",
    )
    rows = [line for line in cell.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == "eta_perp/eta_par,0.2"
    label, value = rows[1].split(",")
    assert label == "0.1"
    point = json.loads(read_cli("kappa", "--eta-perp", "0.1", "--eta-par", "0.2").stdout)
    assert float(value) == point["kappa"]


def test_map_starved_budget_marks_failed_cells():
    result = run_cli(
        "map",
        "--perp-min", "0.1", "--perp-max", "0.15", "--perp-steps", "2",
        "--par-min", "0.2", "--par-max", "0.2", "--par-steps", "1",
        "--eval-budget", "100",
        check=False,
    )
    assert result.returncode == 3
    assert "# failed_cells 2" in result.stdout
    rows = [line for line in result.stdout.splitlines() if not line.startswith("#")]
    assert rows == ["eta_perp/eta_par,0.2", "0.1,nan", "0.15,nan"]


@pytest.mark.parametrize(
    "perp, message",
    [
        (("0.1", "0.2", "0"), "perp-steps must be an integer in [1, inf), got 0"),
        (("0.1", "0.2", "1"), "single-step perp grid needs min == max"),
    ],
)
def test_map_rejects_a_malformed_grid(perp, message):
    lo, hi, steps = perp
    result = run_cli("map", "--perp-min", lo, "--perp-max", hi, "--perp-steps", steps,
                     "--par-min", "0.2", "--par-max", "0.2", "--par-steps", "1", check=False)
    assert result.returncode == 2
    assert message in result.stderr


@pytest.mark.parametrize(
    "grid, stderr",
    [
        (("0.2", "0.1", "2", "0.1", "0.2", "2"), "error: perp-min must be below perp-max, got 0.2 and 0.1\n"),
        (("0.1", "0.2", "2", "0.2", "0.2", "3"), "error: par-min must be below par-max, got 0.2 and 0.2\n"),
        # ends one ulp apart: the three-step linspace repeats a value
        (("0.1", "0.10000000000000002", "3", "0.2", "0.2", "1"),
         "error: perp-min and perp-max are too close for 3 perp-steps, got 0.1 and 0.10000000000000002\n"),
    ],
)
def test_map_names_the_flags_of_a_grid_that_does_not_increase(grid, stderr):
    flags = ("--perp-min", "--perp-max", "--perp-steps", "--par-min", "--par-max", "--par-steps")
    result = run_cli("map", *(x for pair in zip(flags, grid) for x in pair), check=False)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", stderr)


# --- budget -----------------------------------------------------------------

def test_budget_reference_numbers(read_cli):
    result = read_cli("budget", "--config", CONFIG)
    doc = json.loads(result.stdout)
    assert doc["transverse_trap"]["osc_freq_hz"] == pytest.approx(206614.603, rel=1e-6)
    assert doc["longitudinal_trap"]["osc_freq_hz"] == pytest.approx(51612.3112, rel=1e-6)
    assert doc["lattice_scatter"]["rate_over_2pi_hz"] == pytest.approx(4.52754464, rel=1e-6)
    assert doc["catalysis"]["superradiant_rate_over_2pi_hz"] == pytest.approx(258.688524, rel=1e-6)
    assert doc["catalysis"]["intensity_uw_cm2"] == pytest.approx(0.193178117, rel=1e-6)
    assert doc["figure_of_merit"]["kappa"] == pytest.approx(-19.3282636, rel=1e-7)
    assert_nine_digit_floats(doc)
    # one fresh run against the session's run
    assert run_cli("budget", "--config", CONFIG).stdout == result.stdout


def test_budget_missing_config_is_usage_error(tmp_path):
    result = run_cli("budget", "--config", str(tmp_path / "nope.cfg"), check=False)
    assert result.returncode == 2
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "line,edited,key",
    [
        ("detuning_par = 2 THz", "detuning_par = inf THz", "detuning_par"),
        ("lattice_wavelength = 852 nm", "lattice_wavelength = 0 nm", "lattice_wavelength"),
    ],
    ids=["inf_detuning", "zero_wavelength"],
)
def test_budget_bad_config_value_is_usage_error(tmp_path, line, edited, key):
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(CONFIG_TEXT.replace(line, edited))
    assert cfg.read_text() != CONFIG_TEXT
    result = run_cli("budget", "--config", str(cfg), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and f"'{key}'" in result.stderr
    assert "Traceback" not in result.stderr


def test_budget_refuses_a_geometry_factor(tmp_path):
    # the depth is that of a counter-propagating pair; no key scales it
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(CONFIG_TEXT + "geometry_factor = 1\n")
    line = len(cfg.read_text().splitlines())
    result = run_cli("budget", "--config", str(cfg), check=False)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {cfg}:{line}: unknown key 'geometry_factor'\n"


def test_budget_zero_intensity_is_usage_error(tmp_path):
    # every beam must trap: a zero intensity leaves the atom unconfined
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(CONFIG_TEXT.replace("intensity_perp = 50 W/cm2", "intensity_perp = 0 W/cm2"))
    assert cfg.read_text() != CONFIG_TEXT
    result = run_cli("budget", "--config", str(cfg), check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {cfg}:7: 'intensity_perp' must be positive and finite, got '0 W/cm2'\n"


# --- gate -------------------------------------------------------------------

def test_gate_reference_operating_point(read_cli):
    doc = json.loads(read_cli("gate").stdout)
    assert doc["fidelity"]["conditioned_mean"] == pytest.approx(0.967501928, abs=1e-6)
    assert doc["fidelity"]["conditioned_row"]["00"] > 0.999
    assert [row["input"] for row in doc["rows"]] == ["00", "01", "10", "11"]
    assert doc["operating_point"]["pulse_area"] == pytest.approx(math.pi, rel=1e-8)
    assert doc["operating_point"]["v_dd_over_hbar_rad_s"] == pytest.approx(-31415.9265, rel=1e-6)
    for row in doc["rows"]:
        assert sum(row["populations"].values()) + row["leaked"] == pytest.approx(1.0, abs=1e-9)
    assert doc["figure_of_merit"] == pytest.approx(-19.3282636, rel=1e-7)
    assert_nine_digit_floats(doc)
    # kappa, gate and budget quote the same reference point: same bits
    kappa_doc = json.loads(read_cli("kappa", "--eta-perp", "0.1", "--eta-par", "0.2").stdout)
    budget_doc = json.loads(read_cli("budget", "--config", CONFIG).stdout)
    assert doc["figure_of_merit"] == kappa_doc["kappa"] == budget_doc["figure_of_merit"]["kappa"]


def test_gate_nan_duration_is_usage_error():
    result = run_cli("gate", "--duration", "nan", check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "duration" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("shift", ["nan", "inf"])
def test_gate_non_finite_shift_is_usage_error_naming_it(shift):
    # the library's input rule reaches the CLI: catalysis_intensity rejects
    # the shift before any record is built from it
    result = run_cli("gate", "--shift-over-h-hz", shift, check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error:") and "target_shift" in result.stderr
    assert "Traceback" not in result.stderr


def test_gate_names_the_saturation_not_the_shift_in_joules():
    # the shift is a flag in Hz; the limit it passes is a saturation
    result = run_cli("gate", "--shift-over-h-hz", "1e9", check=False)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: target_shift needs saturation 35.1, above the weak-drive limit 0.1; "
        "the catalysis model does not apply\n")


def test_gate_far_detuned_pulse_exits_cleanly():
    # the true "00" leakage here is 3.4e-14; an expm-based propagator came
    # out norm-gaining and the command exited 2
    doc = json.loads(run_cli("gate", "--detuning-from-shifted", "1e10").stdout)
    assert doc["rows"][0]["leaked"] == pytest.approx(3.4e-14, rel=1e-2)
    assert all(row["leaked"] >= 0.0 for row in doc["rows"])


def test_gate_pulse_speed_tradeoff(read_cli):
    # faster pulse: less time to scatter, higher conditioned fidelity;
    # slower pulse: cooperative decay eats the target rows
    default = json.loads(read_cli("gate").stdout)["fidelity"]["conditioned_mean"]
    fast = json.loads(run_cli("gate", "--rabi-divisor", "2").stdout)
    slow = json.loads(run_cli("gate", "--rabi-divisor", "100").stdout)
    assert fast["fidelity"]["conditioned_mean"] > default
    assert slow["fidelity"]["conditioned_mean"] < default


# --- ensemble ---------------------------------------------------------------

def test_ensemble_subtraction_recovers_gate_row():
    result = run_cli("ensemble", "--sites", "100000", "--fill-prob", "0.6")
    doc = json.loads(result.stdout)
    target = doc["gate_row"]["11"]
    sigma = doc["corrected_row"]["errors"]["11"]
    assert abs(doc["corrected_fidelity"] - target) <= 3.0 * sigma
    assert doc["apparent_fidelity"] < doc["corrected_fidelity"]
    # pairs count once among p^2 + 2p(1-p) measured units: p / (2 - p)
    assert doc["paired_fraction"] == pytest.approx(0.6 / 1.4, abs=0.02)
    assert_nine_digit_floats(doc)
    assert doc["input"] == "10"
    assert [s["stage"] for s in doc["stages"]] == list(STAGES)
    for stage in doc["stages"]:
        assert list(stage["fractions"]) == ["00", "01", "10", "11", "leaked"]
        assert sum(stage["fractions"].values()) == pytest.approx(1.0, rel=1e-8)
        assert stage["n_measured"] > 0


def test_ensemble_is_seed_deterministic(read_cli):
    argv = ("ensemble", "--sites", "20000")
    # one fresh run against the session's run
    first = read_cli(*argv)
    assert run_cli(*argv).stdout == first.stdout
    reseeded = run_cli(*argv, "--seed", "999")
    assert reseeded.stdout != first.stdout
    assert json.loads(reseeded.stdout)["provenance"]["seed"] == 999


def test_ensemble_empty_lattice_is_non_identifiable():
    result = run_cli(
        "ensemble", "--sites", "100", "--fill-prob", "0", check=False
    )
    assert result.returncode == 4
    assert "identifiable" in result.stderr


def test_ensemble_names_the_fill_prob_flag():
    result = run_cli("ensemble", "--sites", "100", "--fill-prob", "1.5", check=False)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: fill-prob must lie in [0, 1], got 1.5\n"


def test_ensemble_site_count_beyond_int64_is_usage_error():
    result = run_cli("ensemble", "--sites", str(2**63), "--fill-prob", "1.0", check=False)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "n_sites" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


# --- entry points -----------------------------------------------------------

def test_readme_commands_parse():
    # every `latticegate ...` line of README's sh blocks, with its backslash
    # continuations, is a command line the parser accepts
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("latticegate ")]
    for argv in commands:
        build_parser().parse_args(argv[1:])
    assert {argv[1] for argv in commands} == {"kappa", "map", "budget", "gate", "ensemble"}


def test_console_script_is_installed():
    binary = shutil.which("latticegate")
    assert binary, "console script not on PATH"
    result = subprocess.run([binary, "--version"], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("latticegate ")


def test_cli_import_leaves_scipy_out():
    # the runtime depends on numpy alone; scipy is a test-only reference
    probe = (
        "import sys, latticegate.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO_ROOT, check=True
    )
    assert result.stdout.strip() == "[]"
    # numpy loads numpy.random on first use, which costs a one-shot command
    # tens of milliseconds; only the sampling layers may touch it
    probe = (
        "import sys, latticegate.cli; "
        "latticegate.cli.main(['kappa', '--eta-perp', '0.1', '--eta-par', '0.2']); "
        f"latticegate.cli.main(['budget', '--config', {CONFIG!r}]); "
        "latticegate.cli.main(['gate']); "
        "print('numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO_ROOT, check=True
    )
    assert result.stdout.splitlines()[-1] == "False"


def test_cli_import_and_serial_map_leave_multiprocessing_out():
    # the map, also with --jobs 2, and mc_oracle split across threads, not
    # processes or an executor; the ensemble fill is one multinomial draw
    # and starts no worker at all
    probe = (
        "import sys, latticegate.cli; "
        "latticegate.cli.kappa_map([0.1, 0.2], [0.1, 0.2], jobs=1); "
        "latticegate.cli.main(['map', '--perp-min', '0.1', '--perp-max', '0.2', '--perp-steps', '2', "
        "'--par-min', '0.1', '--par-max', '0.2', '--par-steps', '2', '--jobs', '2']); "
        "latticegate.cli.main(['ensemble', '--sites', '1000000']); "
        "latticegate.mc_oracle(latticegate.TrapGeometry(0.1, 0.2), 10**5, 1); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO_ROOT, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"


def test_only_the_cli_renders_output():
    # the physics modules return numbers and records; every byte a command
    # prints or writes is formatted in cli.py
    assert package_imports({"csv", "io", "json"}) == {"cli.py": ["json"]}


def test_atomics_and_lattice_stay_plain_python():
    # the species, trap budget and catalysis solver need only math; numpy
    # stays in the array layers
    numpy_users = ["cli.py", "dipole_kernel.py", "ensemble.py", "gate.py", "overlap.py"]
    assert sorted(package_imports({"numpy"})) == numpy_users
    # the packaged species file is read by path, like any species file
    assert package_imports({"importlib"}) == {}


def test_version_flag():
    result = run_cli("--version")
    assert result.stdout.strip() == "latticegate 0.1.0"
