import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latticegate.dipole_kernel import radial_parts
from oracles import NEAR_FIELD_WINDOW, RelativePosition, fg, fg_smallkr_asymptote

P2_ZERO_MU = 1.0 / math.sqrt(3.0)  # P2 vanishes here: pure monopole kernel


def test_monopole_f_at_pi_is_minus_one_over_pi():
    f, g = fg(RelativePosition(kr=math.pi, cos_theta=P2_ZERO_MU))
    # f = -y0(pi) = -1/pi when the tensor part is projected out
    assert f == pytest.approx(-1.0 / math.pi, abs=1e-15)
    # g = j0(pi) = sin(pi)/pi ~ 0 up to the rounding of sin
    assert g == pytest.approx(0.0, abs=1e-16)


def test_head_to_tail_values_at_kr_2():
    f, g = fg(RelativePosition(kr=2.0, cos_theta=1.0))
    assert f == pytest.approx(oracles.kernel_f(2.0, 1.0), rel=1e-13)
    assert g == pytest.approx(oracles.kernel_g(2.0, 1.0), rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    log_kr=st.floats(min_value=-4.0, max_value=2.0),
    mu=st.floats(min_value=-1.0, max_value=1.0),
)
def test_fg_matches_scipy_kernel(log_kr, mu):
    kr = 10.0**log_kr
    f, g = fg(RelativePosition(kr=kr, cos_theta=mu))
    scale_f = max(abs(f), 1.0 / kr**3)
    assert abs(f - oracles.kernel_f(kr, mu)) <= 1e-10 * scale_f
    assert g == pytest.approx(oracles.kernel_g(kr, mu), rel=1e-10, abs=1e-13)


def test_near_field_tensor_dominates():
    # inside the near-field window f*(kr)^3 tracks 3*P2 and g is ~1
    for kr in np.logspace(-4, math.log10(0.049), 12):
        for mu in (-1.0, -0.4, 0.0, 0.5, 1.0):
            f, g = fg(RelativePosition(kr=float(kr), cos_theta=mu))
            p2 = 0.5 * (3.0 * mu * mu - 1.0)
            assert abs(f * kr**3 - 3.0 * p2) <= 0.05
            assert abs(g - 1.0) <= 1e-3


def test_asymptote_agrees_with_exact_at_small_kr():
    pos = RelativePosition(kr=0.02, cos_theta=1.0)
    f_exact, g_exact = fg(pos)
    f_asym, g_asym = fg_smallkr_asymptote(pos)
    assert f_asym == 3.0 / 0.02**3
    assert g_asym == 1.0
    assert f_exact == pytest.approx(f_asym, rel=2e-4)
    assert g_exact == pytest.approx(g_asym, rel=1e-3)


def test_asymptote_rejects_large_kr():
    with pytest.raises(ValueError, match="kr <"):
        fg_smallkr_asymptote(RelativePosition(kr=NEAR_FIELD_WINDOW, cos_theta=0.0))
    with pytest.raises(ValueError):
        fg_smallkr_asymptote(RelativePosition(kr=1.0, cos_theta=0.0))


def test_radial_parts_series_branch_does_not_mutate_input():
    xs = np.array([0.01, 0.5, 0.2])
    before = xs.copy()
    radial_parts(xs)
    assert np.array_equal(xs, before)


def test_radial_parts_rejects_nonpositive():
    with pytest.raises(ValueError):
        radial_parts(np.array([0.0]))
    with pytest.raises(ValueError):
        radial_parts(np.array([0.5, -1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_radial_parts_rejects_non_finite(bad):
    for kr in (np.array([bad]), np.array([0.1, bad, 2.0]), np.full((2, 3), bad)):
        with pytest.raises(ValueError, match="positive and finite"):
            radial_parts(kr)


def test_radial_parts_of_no_radii_is_four_empty_arrays():
    parts = radial_parts(np.array([]))
    assert len(parts) == 4 and all(part.shape == (0,) for part in parts)


@pytest.mark.parametrize("kr", [0.1, np.array(0.1), 1.0, np.array(1.0)])
def test_radial_parts_rejects_a_scalar_on_both_sides_of_the_crossover(kr):
    with pytest.raises(ValueError, match="array of radii"):
        radial_parts(kr)


def _ulps_around(x: float, count: int) -> np.ndarray:
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(sorted(set(below + above)))


KERNEL_INPUTS = {
    "geomspace": np.geomspace(1e-100, 1e3, 20_001),
    "crossover": _ulps_around(0.25, 4),
    "all_small": np.linspace(1e-6, 0.2499, 1001),
    # the whole series band, where its terms underflow at the bottom and the
    # six-term cut's bound is tightest at the top, against the frozen twelve
    "series_band": np.append(np.geomspace(1e-300, np.nextafter(0.25, 0.0), 200_001), 0.25),
    "none_small": np.linspace(0.25, 40.0, 1001),
    "mixed": np.random.default_rng(7).uniform(1e-3, 0.6, 1001),
    "two_d": np.random.default_rng(8).uniform(1e-4, 3.0, (37, 29)),
}


@pytest.mark.parametrize("name", KERNEL_INPUTS)
def test_radial_parts_has_the_bits_of_the_frozen_kernel(name):
    # the in-place kernel keeps every elementwise step of the frozen one,
    # and writes nothing into its argument
    kr = KERNEL_INPUTS[name].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracles.frozen_radial_parts(kr)
        got = radial_parts(kr)
    assert np.array_equal(kr, KERNEL_INPUTS[name])
    for ours, frozen in zip(got, want):
        assert ours.shape == frozen.shape == kr.shape
        assert ours.tobytes() == frozen.tobytes()


@pytest.mark.parametrize("name", KERNEL_INPUTS)
def test_radial_parts_into_out_has_the_bits_of_the_allocating_call(name):
    # out holds stale values; the results land in out[:4] and are returned,
    # with the bits of the allocating call and of the frozen kernel
    kr = KERNEL_INPUTS[name].copy()
    out = [np.full(kr.shape, np.nan) for _ in range(7)]
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracles.frozen_radial_parts(kr)
        allocated = radial_parts(kr)
        got = radial_parts(kr, out=out)
    assert np.array_equal(kr, KERNEL_INPUTS[name])
    assert all(ours is given for ours, given in zip(got, out[:4]))
    for ours, fresh, frozen in zip(got, allocated, want):
        assert ours.shape == kr.shape
        assert ours.tobytes() == fresh.tobytes() == frozen.tobytes()


def test_fg_reconstructs_from_radial_parts():
    kr, mu = 0.8, -0.6
    (f_mono,), (f_tens,), (g_mono,), (g_tens,) = radial_parts(np.array([kr]))
    p2 = 0.5 * (3.0 * mu * mu - 1.0)
    f, g = fg(RelativePosition(kr=kr, cos_theta=mu))
    assert f == f_mono + p2 * f_tens
    assert g == g_mono + p2 * g_tens


def test_relative_position_validation():
    RelativePosition(kr=1.0, cos_theta=-1.0)
    with pytest.raises(ValueError):
        RelativePosition(kr=0.0, cos_theta=0.0)
    with pytest.raises(ValueError):
        RelativePosition(kr=-1.0, cos_theta=0.0)
    with pytest.raises(ValueError):
        RelativePosition(kr=1.0, cos_theta=1.2)


def test_far_field_decays():
    # both functions fall off as (1 + |P2|)/kr at large separation
    f, g = fg(RelativePosition(kr=300.0, cos_theta=0.3))
    assert abs(f) < 1.5 / 300.0
    assert abs(g) < 1.5 / 300.0
