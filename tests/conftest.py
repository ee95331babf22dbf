import ast
import math
import os
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
