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
    clebsch_gordan,
    legendre_p2,
    load_species,
)

# --- Clebsch-Gordan ---------------------------------------------------------

FROZEN_CG = [
    # (f, m_f, q, f_prime, value)
    (4, 1, 0, 5, 0.730296743340221),     # pi coupling of the |M| = 1 qubit level
    (4, 4, 1, 5, 1.0),                   # stretched sigma+ is closed
    (3, 0, 0, 4, 0.755928946018455),
    (4, 1, 0, 4, 0.223606797749979),
    (4, 1, -1, 5, 0.471404520791032),
    (4, 0, 0, 5, 0.745355992499930),
    (0.5, 0.5, 0, 1.5, math.sqrt(2.0 / 3.0)),
    (0.5, 0.5, 0, 0.5, math.sqrt(1.0 / 3.0)),
    (0.5, -0.5, 0, 0.5, -math.sqrt(1.0 / 3.0)),  # Condon-Shortley sign
]


@pytest.mark.parametrize("f,m_f,q,f_prime,expected", FROZEN_CG)
def test_clebsch_gordan_frozen_values(f, m_f, q, f_prime, expected):
    assert clebsch_gordan(f, m_f, q, f_prime) == pytest.approx(expected, rel=1e-13, abs=1e-13)


half_integers = st.integers(min_value=0, max_value=12).map(lambda t: t / 2.0)


@settings(max_examples=150, deadline=None)
@given(
    tf=st.integers(min_value=0, max_value=12),
    df=st.sampled_from([-1, 0, 1]),
    q=st.sampled_from([-1, 0, 1]),
    data=st.data(),
)
def test_clebsch_gordan_matches_symbolic(tf, df, q, data):
    f = tf / 2.0
    f_prime = f + df
    if f_prime < 0:
        f_prime = f + 1
    tm = data.draw(st.integers(min_value=-tf, max_value=tf).filter(lambda t: (t - tf) % 2 == 0))
    m_f = tm / 2.0
    ours = clebsch_gordan(f, m_f, q, f_prime)
    assert ours == pytest.approx(oracles.sympy_cg(f, m_f, q, f_prime), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(tf=st.integers(min_value=0, max_value=10), q=st.sampled_from([-1, 0, 1]), data=st.data())
def test_clebsch_gordan_completeness(tf, q, data):
    # |f m>|1 q> is a unit vector: its squared overlaps with the coupled
    # basis states f' = f-1, f, f+1 add up to one
    f = tf / 2.0
    tm = data.draw(st.integers(min_value=-tf, max_value=tf).filter(lambda t: (t - tf) % 2 == 0))
    m_f = tm / 2.0
    total = 0.0
    for f_prime in (f - 1.0, f, f + 1.0):
        if f_prime < 0:
            continue
        total += clebsch_gordan(f, m_f, q, f_prime) ** 2
    assert total == pytest.approx(1.0, abs=1e-12)


def test_clebsch_gordan_row_orthogonality():
    # two distinct (m, q) decompositions of the same total m are orthogonal
    f, f_prime_values = 4.0, (3.0, 4.0, 5.0)
    for m1, q1, m2, q2 in [(1, 0, 0, 1), (2, -1, 1, 0), (0, 0, -1, 1)]:
        dot = sum(
            clebsch_gordan(f, m1, q1, fp) * clebsch_gordan(f, m2, q2, fp)
            for fp in f_prime_values
        )
        assert dot == pytest.approx(0.0, abs=1e-12)


def test_clebsch_gordan_selection_rules_return_zero():
    assert clebsch_gordan(4, 4, 1, 4) == 0.0  # m' = 5 exceeds f' = 4
    assert clebsch_gordan(0, 0, 0, 0) == 0.0  # triangle 0-1-0 fails
    assert clebsch_gordan(4, 0, 0, 4) == 0.0  # vanishing 404|440 element


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f=4, m_f=1, q=2, f_prime=5),       # bad polarization index
        dict(f=4, m_f=5, q=0, f_prime=4),       # |m| > f
        dict(f=4, m_f=0.5, q=0, f_prime=4),     # m off the integer grid of f
        dict(f=4, m_f=1, q=0, f_prime=4.5),     # f' off f's grid
        dict(f=4, m_f=1, q=0, f_prime=6),       # |f - f'| > 1
        dict(f=-1, m_f=0, q=0, f_prime=0),
        dict(f=0.3, m_f=0, q=0, f_prime=1),     # not a half-integer
    ],
)
def test_clebsch_gordan_rejects_malformed(kwargs):
    with pytest.raises(ValueError):
        clebsch_gordan(**kwargs)


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
    assert cesium.pi_coupling == clebsch_gordan(4, 1, 0, 5)


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
