import io
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import REF_KAPPA, REF_KAPPA_STATIC, REF_MEAN_F, REF_MEAN_G, REFERENCE_GEOMETRY
from latticegate import overlap
from latticegate.dipole_kernel import radial_parts
from latticegate.overlap import (
    DEFAULT_QUAD,
    ConvergenceError,
    DipoleExpectation,
    QuadratureSpec,
    TrapGeometry,
    kappa,
    kappa_approx,
    kappa_map,
    kappa_map_csv,
    mc_oracle,
    mean_fg,
    optimize_ratio,
    relative_distribution,
)

# Frozen averages established by two independent routes (importance-sampled
# Monte Carlo with a near-field control variate, and nested adaptive
# quadrature with an adaptive angular rule) before the production
# integrator was written. Geometries cover both map corners, the isotropic
# line, an off-grid interior point, and a 20:1 pancake that stresses the
# angular resolution.
FROZEN_CORNERS = [
    # (eta_perp, eta_par, mean_f, mean_g)
    (0.05, 0.30, 169.272868160, 0.980368893),
    (0.30, 0.05, -40.525848884, 0.930229792),
    (0.25, 0.25, 1.986128819, 0.939413063),
    (0.05, 0.05, 11.227466650, 0.997503122),
    (0.10, 0.10, 5.529807171113, 0.990049833749),
    (0.15, 0.15, 3.594523164861, 0.977751237193),
    (0.231, 0.0974, -17.088276485, 0.956435447),
    (1.00, 0.05, -4.949193028, 0.460388814),
]


# --- deterministic quadrature -------------------------------------------------

def test_reference_expectation(reference_fg):
    assert reference_fg.mean_f == pytest.approx(REF_MEAN_F, rel=1e-8)
    assert reference_fg.mean_g == pytest.approx(REF_MEAN_G, rel=1e-8)
    assert 0.0 < reference_fg.err_f < 1e-3
    assert reference_fg.evaluations < 2000


@pytest.mark.parametrize("eta_perp,eta_par,f_expected,g_expected", FROZEN_CORNERS)
def test_frozen_geometries(eta_perp, eta_par, f_expected, g_expected):
    result = mean_fg(TrapGeometry(eta_perp, eta_par))
    assert result.mean_f == pytest.approx(f_expected, rel=1e-7)
    assert result.mean_g == pytest.approx(g_expected, rel=1e-7)


# The radial loop is a port of scipy's quad_vec; it must return every field
# bit for bit, at the frozen geometries, the aspect-20 band and a tight spec.
PORT_CASES = [
    *[((eta_perp, eta_par), QuadratureSpec()) for eta_perp, eta_par, _, _ in FROZEN_CORNERS],
    ((0.1, 0.2), QuadratureSpec()),
    ((0.05, 1.0), QuadratureSpec()),
    ((0.1, 0.2), QuadratureSpec(rel_tol=1e-8)),
]


def _bits(result: DipoleExpectation) -> tuple:
    return (result.mean_f.hex(), result.mean_g.hex(), result.err_f.hex(), result.err_g.hex(),
            result.evaluations)


@pytest.mark.parametrize("eta,spec", PORT_CASES)
def test_radial_loop_matches_scipy_quad_vec_bit_for_bit(eta, spec):
    geom = TrapGeometry(*eta)
    assert _bits(mean_fg(geom, spec)) == _bits(oracles.quad_vec_mean_fg(geom, spec))


def test_unconverged_partial_matches_scipy_quad_vec_bit_for_bit():
    geom = TrapGeometry(0.01, 0.01)
    spec = QuadratureSpec(rel_tol=1e-15)
    with pytest.raises(ConvergenceError, match="tolerance") as ours:
        mean_fg(geom, spec)
    with pytest.raises(ConvergenceError) as reference:
        oracles.quad_vec_mean_fg(geom, spec)
    assert str(ours.value) == str(reference.value)
    assert _bits(ours.value.partial) == _bits(reference.value.partial)


def _chirp_and_peak(x: np.ndarray, peak=0.7123) -> np.ndarray:
    return np.stack((np.sin(1.0 / (x + 1e-4)), 1.0 / ((x - peak) ** 2 + 1e-8)), axis=1)


def _assert_panels_match_hex(ours, reference):
    assert len(ours) == len(reference)
    for (value, err), (ref_value, ref_err) in zip(ours, reference):
        assert value.tobytes() == ref_value.tobytes()
        assert err.hex() == ref_err.hex()


@pytest.mark.parametrize("epsrel", [1e-3, 1e-8, 1e-14])
def test_adaptive_loop_matches_scipy_quad_vec_on_a_hard_integrand(epsrel):
    # the dipole integrand converges after one split per round; this one
    # splits up to 19 intervals in a round, stops at the 200-interval cap
    # (1e-8, 1e-14) and on rounding error (1e-14)
    cuts = [0.0, 0.5, 1.0, 2.0]
    _, (ours,) = overlap._adaptive_gk21(lambda x, cell: _chirp_and_peak(x), [cuts], epsrel, math.inf)
    reference = oracles.quad_vec_panels(lambda x: _chirp_and_peak(np.array([x]))[0], cuts, epsrel)
    _assert_panels_match_hex(ours, reference)


# cells of one lockstep, each with its own cuts and its own peak, which the
# integrand finds through the cell index of each node
LOCKSTEP_CELLS = [([0.0, 0.5, 1.0, 2.0], 0.7123), ([0.1, 0.3, 1.7], 0.25), ([0.0, 2.0], 1.9)]


@pytest.mark.parametrize("epsrel", [1e-3, 1e-8, 1e-14])
def test_lockstep_cells_each_match_scipy_quad_vec(epsrel):
    peaks = np.array([peak for _, peak in LOCKSTEP_CELLS])
    cuts = [cell_cuts for cell_cuts, _ in LOCKSTEP_CELLS]

    def integrand(x, cell):
        return _chirp_and_peak(x, peaks[cell])

    counts, ours = overlap._adaptive_gk21(integrand, cuts, epsrel, math.inf)
    for (cell_cuts, peak), count, panels in zip(LOCKSTEP_CELLS, counts, ours):
        nodes = []

        def scalar(x, peak=peak):
            nodes.append(x)
            return _chirp_and_peak(np.array([x]), peak)[0]

        _assert_panels_match_hex(panels, oracles.quad_vec_panels(scalar, cell_cuts, epsrel))
        assert count == len(nodes)
    # a budget between the cells' node counts stops the costlier cells and
    # leaves the others' bits alone
    budget = sorted(counts)[1]
    _, starved = overlap._adaptive_gk21(integrand, cuts, epsrel, budget)
    for count, panels, full in zip(counts, starved, ours):
        if count > budget:
            assert panels is None
        else:
            _assert_panels_match_hex(panels, full)


def test_kappa_is_shift_over_broadened_linewidth(reference_fg):
    value = kappa(REFERENCE_GEOMETRY)
    assert value == pytest.approx(REF_KAPPA, rel=1e-8)
    assert value == pytest.approx(
        -reference_fg.mean_f / (1.0 + reference_fg.mean_g), rel=1e-12
    )
    assert reference_fg.kappa == value
    assert reference_fg.kappa == pytest.approx(REF_KAPPA, rel=1e-8)
    assert value < 0  # attractive shift for the elongated reference geometry


@pytest.mark.parametrize("eta", [0.1, 0.15])
def test_isotropic_matches_radial_oracle(eta):
    # equal widths reduce the average to two 1D radial integrals
    result = mean_fg(TrapGeometry(eta, eta))
    f_ref, g_ref = oracles.iso_mean_fg_1d(eta)
    assert result.mean_f == pytest.approx(f_ref, rel=1e-8)
    assert result.mean_g == pytest.approx(g_ref, rel=1e-8)


def test_mean_fg_is_deterministic():
    a = mean_fg(TrapGeometry(0.17, 0.08))
    b = mean_fg(TrapGeometry(0.17, 0.08))
    assert (a.mean_f, a.mean_g, a.err_f, a.err_g) == (b.mean_f, b.mean_g, b.err_f, b.err_g)


# (eta_perp, eta_par, the switches between closed forms, at q = beta x^2,
# that lie on the integration range)
MOMENT_CASES = [
    ((0.05, 1.0), (-3.0, -40.0)),  # aspect-20 cigar
    ((1.0, 0.05), (3.0,)),  # aspect-20 pancake
    ((0.1, 0.2), (-3.0, -40.0)),
    ((0.3, 0.05), (3.0,)),
    ((0.15, 0.15), ()),  # exactly isotropic, q = 0
    ((0.1, 0.1001), ()),  # near-isotropic, |q| < 0.1
    ((0.15, 0.15 * (1.0 + 1e-9)), ()),
]


def _moment_radii(eta: tuple[float, float], switches: tuple[float, ...]) -> tuple[float, float, list[float]]:
    """sigma_perp, sigma_par and radii over mean_fg's range [x_lo, 14 sigma_max],
    with a pair of radii straddling each switch within 1e-12."""
    a, c = (math.sqrt(2.0) * e for e in eta)
    beta = 0.5 / (c * c) - 0.5 / (a * a)
    x_hi = 14.0 * max(a, c)
    radii = list(np.geomspace(1e-4 * min(eta), x_hi, 200))
    for q in switches:
        below, above = (math.sqrt(q / beta) * (1.0 + step) for step in (-1e-12, 1e-12))
        assert above < x_hi
        assert (beta * below * below - q) * (beta * above * above - q) < 0
        radii += [below, above]
    return a, c, radii


@pytest.mark.parametrize("eta,switches", MOMENT_CASES)
def test_angular_moments_match_mpmath(eta, switches):
    a, c, radii = _moment_radii(eta, switches)
    m0, m2 = overlap._angular_moments(np.array(radii), a, c)
    for x, ours0, ours2 in zip(radii, m0, m2):
        ref0, ref2 = oracles.mp_angular_moments(x, a, c)
        assert abs(ours0 - ref0) <= 1e-13 * ref0
        assert abs(ours2 - ref2) <= 1e-13 * ref0
    if eta[0] == eta[1]:
        assert not np.any(m2)


@pytest.mark.parametrize("eta,switches", MOMENT_CASES)
def test_angular_moments_of_a_node_depend_on_that_node_alone(eta, switches):
    a, c, radii = _moment_radii(eta, switches)
    batch = overlap._angular_moments(np.array(radii), a, c)
    order = np.random.default_rng(3).permutation(len(radii))
    shuffled = overlap._angular_moments(np.array(radii)[order], a, c)
    for moment, moment_shuffled in zip(batch, shuffled):
        assert moment[order].tobytes() == moment_shuffled.tobytes()
    for k, x in enumerate(radii):
        alone = overlap._angular_moments(np.array([x]), a, c)
        assert [m[k].hex() for m in batch] == [m[0].hex() for m in alone]


def test_small_kr_head_is_subdominant():
    # the [0, x_lo] head F(x_lo) * x_lo / 2 that mean_fg adds, rebuilt from
    # radial_parts and this test's own angular moments at the base order
    gauss = relative_distribution(REFERENCE_GEOMETRY)
    a, c = gauss.sigma_perp, gauss.sigma_par
    x_lo = 1e-4 * min(REFERENCE_GEOMETRY.eta_perp, REFERENCE_GEOMETRY.eta_par)
    mu, w = np.polynomial.legendre.leggauss(64)
    weighted = w * np.exp(-(x_lo**2) * ((1.0 - mu**2) / (2.0 * a * a) + mu**2 / (2.0 * c * c)))
    m0 = weighted.sum()
    m2 = (weighted * 0.5 * (3.0 * mu**2 - 1.0)).sum()
    f_mono, f_tensor, g_mono, g_tensor = radial_parts(x_lo)
    scale = 2.0 * math.pi * gauss.norm * x_lo**2 * 0.5 * x_lo
    head_f = scale * (f_mono * m0 + f_tensor * m2)
    head_g = scale * (g_mono * m0 + g_tensor * m2)
    assert abs(head_f) < 1e-7 * abs(REF_MEAN_F)
    assert abs(head_g) < 1e-7 * abs(REF_MEAN_G)


@settings(max_examples=8, deadline=None)
@given(
    eta_perp=st.floats(min_value=0.05, max_value=0.35),
    eta_par=st.floats(min_value=0.05, max_value=0.35),
)
def test_mean_g_bounded_by_unity(eta_perp, eta_par):
    # |g| <= 1 pointwise, so no average may exceed it
    result = mean_fg(TrapGeometry(eta_perp, eta_par))
    assert abs(result.mean_g) <= 1.0
    assert math.isfinite(result.mean_f)


# --- Monte Carlo cross-check ---------------------------------------------------

def test_mc_agrees_with_quadrature(reference_fg):
    mc = mc_oracle(REFERENCE_GEOMETRY, samples=10**6, seed=7)
    assert abs(mc.mean_f - reference_fg.mean_f) <= 3.0 * mc.err_f
    assert abs(mc.mean_g - reference_fg.mean_g) <= 3.0 * mc.err_g
    # the control variate keeps the f estimator tight despite the 1/(kr)^3 core
    assert mc.err_f < 1e-3 * abs(mc.mean_f)


def test_mc_is_deterministic_per_seed():
    a = mc_oracle(REFERENCE_GEOMETRY, samples=10**5, seed=11)
    b = mc_oracle(REFERENCE_GEOMETRY, samples=10**5, seed=11)
    c = mc_oracle(REFERENCE_GEOMETRY, samples=10**5, seed=12)
    assert (a.mean_f, a.mean_g) == (b.mean_f, b.mean_g)
    assert a.mean_f != c.mean_f


def test_mc_error_scales_as_root_n():
    small = mc_oracle(REFERENCE_GEOMETRY, samples=10**5, seed=3)
    large = mc_oracle(REFERENCE_GEOMETRY, samples=4 * 10**5, seed=3)
    assert large.err_f / small.err_f == pytest.approx(0.5, rel=0.15)
    assert large.err_g / small.err_g == pytest.approx(0.5, rel=0.15)


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(ValueError, match="10\\^4"):
        mc_oracle(REFERENCE_GEOMETRY, samples=100, seed=1)


# --- retardation-free closed form ----------------------------------------------

def test_kappa_approx_frozen_reference():
    assert kappa_approx(REFERENCE_GEOMETRY) == pytest.approx(REF_KAPPA_STATIC, rel=1e-9)


def test_kappa_approx_isotropic_is_exactly_zero():
    assert kappa_approx(TrapGeometry(0.2, 0.2)) == 0.0
    assert kappa_approx(TrapGeometry(0.07, 0.07)) == 0.0


@pytest.mark.parametrize(
    "ratio",
    # spans the oblate branch, both sides of the series window at
    # |1 - 1/ratio^2| = 0.02, and the prolate branch, out to the 20:1
    # pancake and 10:1 cigar extremes where mc_oracle also relies on it
    [0.05, 0.5, 0.985, 0.9895, 0.9905, 1.0095, 1.0105, 1.015, 2.0, 4.0, 10.0],
)
def test_kappa_approx_equals_static_tensor_average(ratio):
    # closed form == (3/2) <P2/(kr)^3>, checked against direct nested
    # quadrature with no shared code; passing on both sides of each branch
    # boundary also proves the continuation is seamless
    geom = TrapGeometry(0.1, 0.1 * ratio)
    static = oracles.static_tensor_mean_2d(geom.eta_perp, geom.eta_par)
    assert kappa_approx(geom) == pytest.approx(1.5 * static, rel=1e-7, abs=1e-9)


def test_kappa_approx_pure_cubic_scaling():
    # the closed form carries no retardation scale: shrinking the geometry
    # by lambda multiplies it by exactly lambda^-3
    base = kappa_approx(TrapGeometry(0.1, 0.2))
    shrunk = kappa_approx(TrapGeometry(0.025, 0.05))
    assert shrunk == pytest.approx(base * 4.0**3, rel=1e-12)


def test_full_kappa_reaches_static_limit_for_tight_traps():
    # retardation corrections scale as eta^2; at eta ~ 0.01 the full average
    # and the closed form agree in magnitude to well under 2 percent
    geom = TrapGeometry(0.01, 0.02)
    full = kappa(geom)
    static = kappa_approx(geom)
    assert abs(full) == pytest.approx(abs(static), rel=2e-2)


def test_retardation_matters_at_reference_geometry():
    # at eta = (0.1, 0.2) the finite-kr terms shift the magnitude by ~14
    # percent; the closed form is a cross-check there, not a substitute
    ratio = abs(kappa(REFERENCE_GEOMETRY)) / abs(kappa_approx(REFERENCE_GEOMETRY))
    assert 1.05 < ratio < 1.25


# --- ratio optimizer ------------------------------------------------------------

def test_optimize_ratio_frozen_optimum():
    ratio_star, kappa_star = optimize_ratio(0.1)
    assert ratio_star == pytest.approx(2.181401217, abs=1e-3)
    assert abs(kappa_star) * 0.1**3 == pytest.approx(0.017023663, rel=1e-4)


def test_optimize_ratio_is_geometry_free_in_closed_form():
    ratios = [optimize_ratio(ep)[0] for ep in (0.05, 0.1, 0.2)]
    assert max(ratios) - min(ratios) < 1e-6
    for ep in (0.05, 0.1, 0.2):
        _, kappa_star = optimize_ratio(ep)
        assert abs(kappa_star) * ep**3 == pytest.approx(0.017023663, rel=1e-4)


def test_optimize_ratio_full_quadrature_mode():
    ratio_star, kappa_star = optimize_ratio(0.05, use_approx=False)
    assert 1.9 < ratio_star < 2.5
    # the optimum must beat the closed-form optimum's geometry
    fixed = abs(kappa(TrapGeometry(0.05, 0.05 * 2.181401217)))
    assert abs(kappa_star) >= fixed * (1.0 - 1e-6)


def test_optimize_ratio_domain():
    with pytest.raises(ValueError):
        optimize_ratio(0.0)
    with pytest.raises(ValueError):
        optimize_ratio(0.6)


# --- map --------------------------------------------------------------------

def test_map_matches_pointwise_kappa():
    grid_perp = np.array([0.08, 0.1])
    grid_par = np.array([0.15, 0.2])
    values = kappa_map(grid_perp, grid_par)
    assert values.shape == (2, 2)
    assert values[1, 1] == kappa(TrapGeometry(0.1, 0.2))
    assert values[0, 0] == kappa(TrapGeometry(0.08, 0.15))


def test_map_worker_count_independence():
    grid = np.linspace(0.08, 0.2, 3)
    serial = kappa_map(grid, grid, jobs=1)
    pooled = kappa_map(grid, grid, jobs=2)
    assert np.array_equal(serial, pooled)


def test_map_grid_validation():
    good = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match="strictly increasing"):
        kappa_map(np.array([0.2, 0.1]), good)
    with pytest.raises(ValueError, match="nonempty"):
        kappa_map(np.array([]), good)
    with pytest.raises(ValueError, match="\\(0, 1\\]"):
        kappa_map(np.array([0.5, 1.5]), good)
    # nan fails every comparison, so each element is checked, not the ends
    with pytest.raises(ValueError, match="eta_perp_grid must lie in \\(0, 1\\]"):
        kappa_map(np.array([math.nan, math.nan]), good)
    with pytest.raises(ValueError, match="eta_par_grid must lie in \\(0, 1\\]"):
        kappa_map(good, np.array([math.nan]))
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        kappa_map(good, good, jobs=0)


def test_map_pool_never_outnumbers_cells(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize):
            return [func(task) for task in tasks]

    monkeypatch.setattr(overlap, "Pool", SerialPool)
    grid = np.array([0.1, 0.2])
    values = kappa_map(grid, grid, jobs=8)
    assert started == [4]
    assert np.array_equal(values, kappa_map(grid, grid, jobs=1))


def test_map_marks_failed_cells_as_nan():
    starved = QuadratureSpec(eval_budget=50)
    values = kappa_map(np.array([0.1]), np.array([0.2]), starved)
    assert math.isnan(values[0, 0])


def _q_range(geom: TrapGeometry) -> tuple[float, float]:
    """The extremes of q = beta x^2 on mean_fg's radial range for geom."""
    gauss = relative_distribution(geom)
    beta = 0.5 / gauss.sigma_par**2 - 0.5 / gauss.sigma_perp**2
    cuts = overlap._cuts(geom, gauss)
    return tuple(sorted((beta * cuts[0] ** 2, beta * cuts[-1] ** 2)))


def _outcome(result) -> tuple:
    if isinstance(result, ConvergenceError):
        partial = result.partial
        return ("error", str(result), None if partial is None else _bits(partial))
    return ("ok", _bits(result))


def test_map_cells_of_one_batch_are_independent():
    # one batch whose nodes cross every band of _angular_moments, under a
    # budget that some cells exhaust: each cell must get the bits it gets
    # alone, and nan exactly where it fails alone
    grid = np.array([0.05, 0.1, 0.3, 1.0])
    spec = QuadratureSpec(eval_budget=300)
    # every cell's q starts near 0 (the series band); a cigar past q = -40
    # crosses the cigar series into the Dawson band, a pancake past 3 the erf
    lows, highs = zip(*(_q_range(TrapGeometry(ep, el)) for ep in grid for el in grid))
    assert min(lows) < -40.0 and max(highs) > 3.0
    assert len(grid) ** 2 <= overlap._MAP_CHUNK
    values = kappa_map(grid, grid, spec)
    assert np.isnan(values).any() and np.isfinite(values).any()
    for (i, ep), (j, el) in itertools.product(enumerate(grid), enumerate(grid)):
        try:
            alone = kappa(TrapGeometry(ep, el), spec)
        except ConvergenceError:
            assert math.isnan(values[i, j])
        else:
            assert values[i, j].hex() == alone.hex()


def test_batched_failures_match_single_cell_failures():
    # at rel_tol = 1e-15 every cell fails, some with a partial and some on
    # the budget; messages and partials match a batch of one's bit for bit
    geoms = [TrapGeometry(*eta) for eta in ((0.01, 0.01), (0.1, 0.2), (0.05, 1.0), (1.0, 0.05), (0.3, 0.3))]
    for spec in (QuadratureSpec(rel_tol=1e-15), QuadratureSpec(rel_tol=1e-15, eval_budget=300)):
        batched = overlap._mean_fg_many(geoms, spec)
        assert all(isinstance(result, ConvergenceError) for result in batched)
        for geom, result in zip(geoms, batched):
            with pytest.raises(ConvergenceError) as alone:
                mean_fg(geom, spec)
            assert _outcome(result) == _outcome(alone.value)


def test_map_csv_format():
    grid_perp = np.array([0.1])
    grid_par = np.array([0.15, 0.2])
    values = np.array([[1.23456789012, math.nan]])
    buffer = io.StringIO()
    kappa_map_csv(grid_perp, grid_par, values, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "eta_perp/eta_par,0.15,0.2"
    assert lines[1] == "0.1,1.23456789,nan"
    with pytest.raises(ValueError, match="shape"):
        kappa_map_csv(grid_perp, grid_par, np.zeros((2, 2)), buffer)


def test_map_surface_is_smooth_at_fig_grid_resolution():
    # 64x64 sweep of the full domain: every cell converges, and adjacent
    # cells differ by < 25 percent of the larger magnitude or of the map
    # scale (the map-scale disjunct admits the sign-change contour and the
    # steep small-eta corner, where the surface is smooth but the relative
    # step is large). Any spiked, flipped, or non-converged cell fails.
    grid = np.linspace(0.05, 0.3, 64)
    values = kappa_map(grid, grid)
    assert np.all(np.isfinite(values))
    scale = 0.25 * np.max(np.abs(values))
    for delta, pairmax in (
        (np.abs(np.diff(values, axis=0)), np.maximum(np.abs(values[:-1, :]), np.abs(values[1:, :]))),
        (np.abs(np.diff(values, axis=1)), np.maximum(np.abs(values[:, :-1]), np.abs(values[:, 1:]))),
    ):
        ok = (delta <= 0.25 * pairmax) | (delta <= scale)
        assert np.all(ok), f"rough step: {delta[~ok].max():.3g}"


# --- failure reporting ------------------------------------------------------

def test_budget_exhaustion_raises_without_partial():
    with pytest.raises(ConvergenceError, match="budget") as excinfo:
        mean_fg(REFERENCE_GEOMETRY, QuadratureSpec(eval_budget=100))
    assert excinfo.value.partial is None
    # the budget counts every kernel node, the small-kr head included: the
    # reference point takes n = 232 of them, so n - 1 fails and n passes
    n = oracles.quad_vec_mean_fg(REFERENCE_GEOMETRY, DEFAULT_QUAD).evaluations
    assert n == 232
    with pytest.raises(ConvergenceError, match=f"budget {n - 1} exhausted") as excinfo:
        mean_fg(REFERENCE_GEOMETRY, QuadratureSpec(eval_budget=n - 1))
    assert excinfo.value.partial is None
    assert mean_fg(REFERENCE_GEOMETRY, QuadratureSpec(eval_budget=n)).evaluations == n


def test_unreached_tolerance_raises_with_partial():
    # the panels stop at quad_vec's rounding-error estimate, 50 machine
    # epsilons of each panel's integral of |F|: 4.4e-14 of the result here,
    # above the 1e-14 that rel_tol = 1e-15 asks. The refusal must still
    # carry the (correct) partial result for diagnostics
    geom = TrapGeometry(0.01, 0.01)
    with pytest.raises(ConvergenceError, match="tolerance") as excinfo:
        mean_fg(geom, QuadratureSpec(rel_tol=1e-15))
    partial = excinfo.value.partial
    assert partial is not None
    mc = mc_oracle(geom, samples=10**6, seed=7)
    assert abs(partial.mean_f - mc.mean_f) <= 3.0 * mc.err_f
    assert abs(partial.mean_g - mc.mean_g) <= 3.0 * mc.err_g


def test_non_finite_result_raises_without_partial():
    # the density prefactor or the kernel's 1/(kr)^3 overflows to inf: no
    # number may come back, and the error says so without numpy warnings
    for eta in ((1e-105, 1e-105), (1e-120, 0.1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite") as excinfo:
                mean_fg(TrapGeometry(*eta))
        assert excinfo.value.partial is None


# --- input validation ---------------------------------------------------------

def test_trap_geometry_domain():
    TrapGeometry(1.0, 1.0)
    with pytest.raises(ValueError):
        TrapGeometry(0.0, 0.1)
    with pytest.raises(ValueError):
        TrapGeometry(0.1, 1.5)
    with pytest.raises(ValueError):
        TrapGeometry(-0.1, 0.1)


def test_quadrature_spec_validation():
    QuadratureSpec(rel_tol=1e-9, eval_budget=1)
    for kwargs in (
        dict(rel_tol=0.0),
        dict(rel_tol=0.5),
        dict(eval_budget=0),
    ):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


def test_expectation_record_invariants():
    with pytest.raises(ValueError, match="nonnegative"):
        DipoleExpectation(1.0, 0.5, -1e-3, 0.0, 10)
    with pytest.raises(ValueError, match="exceeds 1"):
        DipoleExpectation(1.0, 1.5, 1e-6, 1e-6, 10)
    # a g estimate slightly above 1 is fine if the error bar covers it
    DipoleExpectation(1.0, 1.001, 1e-6, 2e-3, 10)


def test_relative_distribution_rejects_an_underflowing_volume():
    with pytest.raises(ValueError, match="too narrow"):
        relative_distribution(TrapGeometry(1e-300, 1e-300))


def test_relative_distribution_widths():
    gauss = relative_distribution(TrapGeometry(0.1, 0.2))
    assert gauss.sigma_perp == pytest.approx(math.sqrt(2.0) * 0.1, rel=1e-15)
    assert gauss.sigma_par == pytest.approx(math.sqrt(2.0) * 0.2, rel=1e-15)
    expected_norm = (2.0 * math.pi) ** -1.5 / (gauss.sigma_perp**2 * gauss.sigma_par)
    assert gauss.norm == pytest.approx(expected_norm, rel=1e-15)
