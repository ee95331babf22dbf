"""Smoke tests of the standalone scripts under scripts/, run as subprocesses."""

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
