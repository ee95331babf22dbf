import ast
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticegate import (
    GateEnvironment,
    LatticeConfig,
    QuadratureSpec,
    TrapGeometry,
    cesium_d2,
    dd_matrix_element,
    default_pulse,
    load_lattice_config,
    mean_fg,
    truth_table,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

# Reference Lamb-Dicke pair used throughout: tight transverse (0.1),
# softer longitudinal (0.2), both wells driven on the same transition.
REFERENCE_GEOMETRY = TrapGeometry(eta_perp=0.1, eta_par=0.2)

# Frozen quadrature values at the reference geometry. These were
# established against the Monte Carlo route and nested adaptive
# integration before the production integrator existed, and pin the
# outgoing-wave sign convention: mean_f > 0 here, so the coherent
# level shift for the stretched pair is negative.
REF_MEAN_F = 38.350126203
REF_MEAN_G = 0.984147511
REF_KAPPA = -19.3282636
REF_KAPPA_STATIC = 16.901286568

# pi-transition amplitude from |m|=1 of the upper hyperfine ground
# level to the strongest excited manifold, squared twice.
CG_PI = math.sqrt(24.0 / 45.0)
CG_PI_4 = (24.0 / 45.0) ** 2


def imported_roots(tree: ast.AST) -> set[str]:
    """Root of every absolute import in a parsed module, at module level or
    inside a function."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def package_imports(apis: set[str]) -> dict[str, list[str]]:
    """The modules under src/latticegate that import any of apis, each with
    the ones it imports."""
    package = REPO_ROOT / "src" / "latticegate"
    found = {}
    for path in sorted(package.rglob("*.py")):
        roots = imported_roots(ast.parse(path.read_text(), filename=str(path))) & apis
        if roots:
            found[path.relative_to(package).as_posix()] = sorted(roots)
    return found


def default_jobs() -> int:
    return max(1, min(8, os.cpu_count() or 1))


def _checked(result, argv, check):
    # with check, a nonzero exit fails the test with its stderr
    if check and result.returncode != 0:
        raise AssertionError(
            f"cli {' '.join(argv)} exited {result.returncode}: {result.stderr}"
        )
    return result


def run_cli(*argv, check=True):
    """The completed ``python -m latticegate.cli *argv`` with its output as
    text; with check, a nonzero exit fails the test with its stderr."""
    result = subprocess.run(
        [sys.executable, "-m", "latticegate.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    return _checked(result, argv, check)


@pytest.fixture(scope="session")
def cli_digests():
    """scripts/cli_digests.py as a module."""
    spec = importlib.util.spec_from_file_location("cli_digests", REPO_ROOT / "scripts" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def digest_runs(cli_digests):
    """One run of each of cli_digests' commands, by argv, shared by the tests
    that read them (the 20 subprocesses take ~4 s)."""
    runs = {argv: cli_digests.run_command(argv) for _, argv in cli_digests.COMMANDS}
    assert len(runs) == len(cli_digests.COMMANDS)
    return runs


@pytest.fixture(scope="session")
def read_cli(digest_runs):
    """run_cli for a test that only reads a command's result: a command of
    cli_digests is not run again, and the session's run of it is returned,
    its output as text."""
    def read(*argv, check=True):
        if argv not in digest_runs:
            return run_cli(*argv, check=check)
        run = digest_runs[argv]
        text = subprocess.CompletedProcess(run.args, run.returncode, run.stdout.decode(), run.stderr.decode())
        return _checked(text, argv, check)

    return read


@pytest.fixture(scope="session")
def cesium():
    return cesium_d2()


@pytest.fixture(scope="session")
def reference_fg():
    """One production quadrature evaluation shared by the whole session."""
    return mean_fg(REFERENCE_GEOMETRY, QuadratureSpec())


@pytest.fixture(scope="session")
def reference_config(cesium) -> LatticeConfig:
    return load_lattice_config(REPO_ROOT / "configs" / "cesium_reference.cfg")


@pytest.fixture(scope="session")
def reference_env(reference_fg) -> GateEnvironment:
    """Gate environment at the frozen operating point.

    The drive scattering rate is the catalysis solution for a 5 kHz level
    shift at the reference geometry; shift and decay rates then follow
    from the same averaged interaction functions, as in production.
    """
    return dd_matrix_element(
        gamma_prime=2879.954452904,
        c_g=CG_PI,
        mean_f=reference_fg.mean_f,
        mean_g=reference_fg.mean_g,
    )


@pytest.fixture(scope="session")
def reference_pulse(reference_env):
    return default_pulse(reference_env, rabi_divisor=10.0)


@pytest.fixture(scope="session")
def reference_table(reference_env, reference_pulse):
    return truth_table(reference_env, reference_pulse)
