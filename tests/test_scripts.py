"""Smoke tests of the standalone scripts under scripts/, run as subprocesses."""

import difflib
import hashlib
import importlib.util
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"
GOLDEN = REPO_ROOT / "tests" / "cli_golden.txt"


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


@pytest.fixture(scope="module")
def cli_digests():
    spec = importlib.util.spec_from_file_location("cli_digests", SCRIPTS / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digest_runs(cli_digests):
    """One run of each of cli_digests' commands, shared by the tests that
    read them (the 20 subprocesses take ~5 s)."""
    runs = {argv: cli_digests.run_command(argv) for _, argv in cli_digests.COMMANDS}
    assert len(runs) == len(cli_digests.COMMANDS)
    return runs


def test_cli_digests_lists_every_command(cli_digests, digest_runs, monkeypatch, capsys):
    # the script's own loop, on the shared runs
    monkeypatch.setattr(cli_digests, "run_command", digest_runs.__getitem__)
    status = cli_digests.main([])
    result = capsys.readouterr()
    assert status == 0, result.err
    # each line: exit code, stdout sha256, stderr sha256, command
    rows = [line.split(" ", 3) for line in result.out.splitlines()]
    assert [(row[0], row[3]) for row in rows] == [
        (str(code), " ".join(argv)) for code, argv in cli_digests.COMMANDS
    ]
    direct = subprocess.run(
        [sys.executable, "-m", "latticegate.cli", *cli_digests.KAPPA_REF],
        capture_output=True,
        cwd=REPO_ROOT,
        check=True,
    )
    assert rows[0][1] == hashlib.sha256(direct.stdout).hexdigest()


def test_cli_output_matches_the_golden_transcript(cli_digests, digest_runs):
    """Every digest command's exit code, stdout and stderr, byte for byte.

    tests/cli_golden.txt was recorded on a CPU with AVX-512, whose numpy
    dispatch it reflects: with the AVX2 paths, the err_f and err_g of
    `kappa --eta-perp 1e-12 --eta-par 0.5` differ at the 8th digit. A change
    that moves the output on purpose re-records the file with
    `PYTHONPATH=src python scripts/cli_digests.py --transcript` and
    declares the diff.
    """
    got = "".join(cli_digests.transcript(argv, digest_runs[argv]) for _, argv in cli_digests.COMMANDS)
    want = GOLDEN.read_text()
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(True), got.splitlines(True), "tests/cli_golden.txt", "this run"
        )
        pytest.fail("the CLI output moved:\n" + "".join(diff), pytrace=False)
