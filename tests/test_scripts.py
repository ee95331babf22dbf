"""Smoke tests of the standalone scripts under scripts/, run as subprocesses."""

import hashlib
import importlib.util
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_reference_run_prints_reference_kappa():
    result = run_script("reference_run.py")
    assert result.returncode == 0, result.stderr
    assert "  kappa = -19.3282636   (" in result.stdout


def test_make_kappa_map_writes_small_grid(tmp_path):
    out = tmp_path / "map.csv"
    result = run_script("make_kappa_map.py", "--steps", "2", "--jobs", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert all(len(row.split(",")) == 3 for row in rows)
    assert "nan" not in out.read_text()


def test_cli_digests_lists_every_command():
    spec = importlib.util.spec_from_file_location("cli_digests", SCRIPTS / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result = run_script("cli_digests.py")
    assert result.returncode == 0, result.stderr
    # each line: exit code, stdout sha256, stderr sha256, command
    rows = [line.split(" ", 3) for line in result.stdout.splitlines()]
    assert [(row[0], row[3]) for row in rows] == [
        (str(code), " ".join(argv)) for code, argv in module.COMMANDS
    ]
    direct = subprocess.run(
        [sys.executable, "-m", "latticegate.cli", *module.KAPPA_REF],
        capture_output=True,
        cwd=REPO_ROOT,
        check=True,
    )
    assert rows[0][1] == hashlib.sha256(direct.stdout).hexdigest()
