import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import spherical_bessel_pair
from latticegate.atomics import (
    AtomSpecies,
    cesium_d2,
    legendre_p2,
    load_species,
)

# --- spherical Bessel pair ---------------------------------------------------

FROZEN_BESSEL = [
    # (n, x, j_n, y_n)
    (0, 10.0, -0.054402111088936981, 0.083907152907645245),
    (2, 10.0, 0.077942193628562445, -0.065069304993734793),
    (2, 0.5, 0.016371106607993413, -25.059922824838636),
    (2, 0.12, 0.00095901296631383628, -1740.2927417993718),
    (2, math.pi, 0.30396355092701331, -0.22155528288419224),
    (2, 1e-3, 6.666666190476204e-08, -3000000500.0001248),
]


@pytest.mark.parametrize("n,x,jn,yn", FROZEN_BESSEL)
def test_spherical_bessel_frozen_values(n, x, jn, yn):
    j, y = spherical_bessel_pair(n, x)
    assert j == pytest.approx(jn, rel=1e-12)
    assert y == pytest.approx(yn, rel=1e-12)


def test_spherical_bessel_y0_at_pi_is_one_over_pi():
    _, y0 = spherical_bessel_pair(0, math.pi)
    assert y0 == pytest.approx(1.0 / math.pi, rel=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_spherical_bessel_against_mpmath_log_grid(n):
    for x in np.logspace(-6, 3, 46):
        j, y = spherical_bessel_pair(n, float(x))
        j_ref, y_ref = oracles.mp_spherical_pair(n, float(x))
        assert j == pytest.approx(j_ref, rel=1e-10), f"j{n}({x})"
        assert y == pytest.approx(y_ref, rel=1e-10), f"y{n}({x})"


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    log_x=st.floats(min_value=-5.0, max_value=2.7),
)
def test_spherical_bessel_wronskian(n, log_x):
    # j_n y_n' - j_n' y_n = 1/x^2, with derivatives from the downward
    # recurrence f_n' = f_{n-1} - (n+1)/x f_n
    x = 10.0**log_x
    j_lo, y_lo = spherical_bessel_pair(n - 1, x)
    j_n, y_n = spherical_bessel_pair(n, x)
    jp = j_lo - (n + 1) / x * j_n
    yp = y_lo - (n + 1) / x * y_n
    assert j_n * yp - jp * y_n == pytest.approx(1.0 / (x * x), rel=1e-9)


def test_spherical_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        spherical_bessel_pair(0, 0.0)
    with pytest.raises(ValueError):
        spherical_bessel_pair(0, -1.0)
    with pytest.raises(ValueError):
        spherical_bessel_pair(3, 1.0)


def test_series_crossover_is_seamless():
    # both j2 branches must agree with the reference at the switch point
    for x in (0.2499999, 0.25, 0.2500001):
        j, _ = spherical_bessel_pair(2, x)
        j_ref, _ = oracles.mp_spherical_pair(2, x)
        assert j == pytest.approx(j_ref, rel=1e-12)


# --- Legendre ----------------------------------------------------------------

def test_legendre_p2_values():
    assert legendre_p2(1.0) == 1.0
    assert legendre_p2(-1.0) == 1.0
    assert legendre_p2(0.0) == -0.5
    assert legendre_p2(1.0 / math.sqrt(3.0)) == pytest.approx(0.0, abs=1e-15)
    arr = legendre_p2(np.array([0.0, 1.0]))
    assert isinstance(arr, np.ndarray)
    assert arr.tolist() == [-0.5, 1.0]
    with pytest.raises(ValueError):
        legendre_p2(1.5)


# --- species records -----------------------------------------------------------

def test_cesium_record(cesium):
    assert cesium.mass == pytest.approx(2.20694695e-25, rel=1e-8)
    assert cesium.lambda_res == pytest.approx(852.34727582e-9, rel=1e-3)
    assert cesium.gamma_natural / (2 * math.pi) == pytest.approx(5.22e6, rel=2e-3)
    assert cesium.i_sat == pytest.approx(11.0, rel=0.05)
    assert (cesium.nuclear_spin, cesium.f_down, cesium.f_up) == (3.5, 3.0, 4.0)
    assert cesium.f_max_excited == 5.0
    assert cesium.wave_number == pytest.approx(2 * math.pi / cesium.lambda_res, rel=1e-15)


def test_pi_coupling_is_root_24_45(cesium):
    assert cesium.pi_coupling == pytest.approx(math.sqrt(24.0 / 45.0), rel=1e-13)
    # the float the exact rational Racah sum gave
    assert cesium.pi_coupling.hex() == "0x1.75e9746a0b098p-1"


@pytest.mark.parametrize("nuclear_spin", [0.5, 1.5, 2.5, 3.5, 4.5, 5.5])
def test_pi_coupling_matches_symbolic(cesium, nuclear_spin):
    f_up = nuclear_spin + 0.5
    species = dataclasses.replace(
        cesium, nuclear_spin=nuclear_spin, f_up=f_up, f_down=f_up - 1, f_max_excited=f_up + 1
    )
    assert species.pi_coupling == pytest.approx(oracles.sympy_cg(f_up, 1, 0, f_up + 1), rel=1e-15)


def test_pi_coupling_needs_an_integer_f_up(cesium):
    species = dataclasses.replace(cesium, nuclear_spin=1.0, f_up=1.5, f_down=0.5, f_max_excited=2.5)
    with pytest.raises(ValueError, match="integer f_up"):
        species.pi_coupling


def test_load_species_roundtrip(tmp_path, cesium):
    path = tmp_path / "custom.txt"
    path.write_text(
        "# test species\n"
        f"mass = {cesium.mass!r}\n"
        f"lambda_res = {cesium.lambda_res!r}\n"
        f"gamma_natural = {cesium.gamma_natural!r}  # rad/s\n"
        f"i_sat = {cesium.i_sat!r}\n"
        "nuclear_spin = 3.5\nf_up = 4\nf_down = 3\nf_max_excited = 5\n"
    )
    loaded = load_species(path)
    assert loaded == cesium


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("mass = 1e-25\n", "missing species fields"),
        ("masss = 1e-25\n", "unknown species field"),
        ("mass = heavy\n", "bad value"),
        ("mass = 1e-25\nmass = 2e-25\n", "duplicate"),
        ("mass 1e-25\n", "expected 'key = value'"),
        ("mass =\n", "empty value"),
        ("mass = nan\n", "bad value for 'mass'"),
        ("mass = inf\n", "bad value for 'mass'"),
    ],
)
def test_load_species_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        load_species(path)


def test_species_invariants_enforced(cesium):
    with pytest.raises(ValueError, match="f_up - f_down"):
        AtomSpecies(cesium.mass, cesium.lambda_res, cesium.gamma_natural,
                    cesium.i_sat, 3.5, 4.0, 2.0, 5.0)
    with pytest.raises(ValueError, match="f_max_excited"):
        AtomSpecies(cesium.mass, cesium.lambda_res, cesium.gamma_natural,
                    cesium.i_sat, 3.5, 4.0, 3.0, 6.0)
    with pytest.raises(ValueError, match="positive"):
        AtomSpecies(-1.0, cesium.lambda_res, cesium.gamma_natural,
                    cesium.i_sat, 3.5, 4.0, 3.0, 5.0)


def test_cesium_d2_loader_is_cached_consistent():
    assert cesium_d2() == cesium_d2()
