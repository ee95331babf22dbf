import itertools
import math
import sys
import threading
import tracemalloc
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
    ConvergenceError,
    DipoleExpectation,
    QuadratureSpec,
    TrapGeometry,
    kappa,
    kappa_approx,
    kappa_map,
    mc_oracle,
    mean_fg,
    optimize_ratio,
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


# Geometries held to the 30-digit momentum-space reference (oracles.mp_mean_fg):
# the frozen corners, the aspect-20 bands, a near-isotropic pair, the digest
# geometries at aspect 1e8 and 5e11, and aspect 100 both ways.
REFERENCE_GEOMETRIES = [
    (0.1, 0.2), (0.05, 0.3), (0.3, 0.05), (0.25, 0.25), (0.05, 0.05), (0.1, 0.1),
    (0.15, 0.15), (0.231, 0.0974), (1.0, 0.05), (0.05, 1.0), (0.15, 0.151),
    (1e-8, 1.0), (1e-12, 0.5), (0.01, 1.0), (1.0, 0.01),
]


@pytest.mark.parametrize("eta", [(0.1, 0.2), (0.3, 0.05), (0.05, 1.0)])
def test_mp_reference_agrees_with_the_real_space_route(eta):
    # the reference's formula is held to scipy's quad_vec on the real-space
    # radial integral, so that neither stands on its own derivation
    ref = oracles.mp_mean_fg(*eta)
    tight = oracles.quad_vec_mean_fg(TrapGeometry(*eta), QuadratureSpec(rel_tol=1e-12))
    assert tight.mean_f == pytest.approx(ref[0], rel=1e-12, abs=0.0)
    assert tight.mean_g == pytest.approx(ref[1], rel=1e-12, abs=0.0)


def test_error_bars_cover_the_mp_reference():
    # |mean_fg - reference| <= err per component; how far below err the true
    # error sits is reported, not bounded
    ratios = {}
    for eta in REFERENCE_GEOMETRIES:
        result = mean_fg(TrapGeometry(*eta))
        ref_f, ref_g = oracles.mp_mean_fg(*eta)
        ratios[eta, "f"] = abs(result.mean_f - ref_f) / result.err_f
        ratios[eta, "g"] = abs(result.mean_g - ref_g) / result.err_g
    worst = max(ratios, key=ratios.get)
    line = f"largest |mean_fg - reference| / err: {ratios[worst]:.3g}, <{worst[1]}> at {worst[0]}"
    print(line)
    assert ratios[worst] <= 1.0, line


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
    a, c = REFERENCE_GEOMETRY.sigma_perp, REFERENCE_GEOMETRY.sigma_par
    x_lo = 1e-4 * min(REFERENCE_GEOMETRY.eta_perp, REFERENCE_GEOMETRY.eta_par)
    mu, w = np.polynomial.legendre.leggauss(64)
    weighted = w * np.exp(-(x_lo**2) * ((1.0 - mu**2) / (2.0 * a * a) + mu**2 / (2.0 * c * c)))
    m0 = weighted.sum()
    m2 = (weighted * 0.5 * (3.0 * mu**2 - 1.0)).sum()
    (f_mono,), (f_tensor,), (g_mono,), (g_tensor,) = radial_parts(np.array([x_lo]))
    norm = (2.0 * math.pi) ** -1.5 / (a * a * c)
    scale = 2.0 * math.pi * norm * x_lo**2 * 0.5 * x_lo
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


def test_mc_pulls_are_standard_normal_over_seeds():
    # (mc - mean_fg) / err over 100 seeds of six-chunk calls. Over nine sets
    # of 120 seeds at (0.1, 0.2) and at (0.3, 0.05), the pulls' means lay in
    # -0.26..+0.21 and their sds in 0.86..1.14. A stream shared by the six
    # chunks would leave err as it is and make the sd ~sqrt(6)
    geom = TrapGeometry(0.3, 0.05)
    exact = mean_fg(geom)
    pulls = []
    for seed in range(100):
        mc = mc_oracle(geom, 6 * overlap._MC_CHUNK, seed)
        pulls.append(((mc.mean_f - exact.mean_f) / mc.err_f, (mc.mean_g - exact.mean_g) / mc.err_g))
    means, sds = np.mean(pulls, axis=0), np.std(pulls, axis=0, ddof=1)
    assert np.all(np.abs(means) < 0.4) and np.all((0.75 < sds) & (sds < 1.3)), (means, sds)


def test_mc_rejects_tiny_sample_counts():
    with pytest.raises(ValueError, match="10\\^4"):
        mc_oracle(REFERENCE_GEOMETRY, samples=100, seed=1)


@pytest.mark.parametrize(
    "eta, samples, seed",
    [
        ((0.1, 0.2), 10**5, 11),
        # three full chunks and a ragged tail, and exactly one
        ((0.05, 1.0), 3 * overlap._MC_CHUNK + 7, 5),
        ((1.0, 0.05), overlap._MC_CHUNK, 3),
        ((0.15, 0.15), 10**4, 2),
        ((0.05, 1.0), 6 * overlap._MC_CHUNK + 7, 5),
        ((1.0, 0.05), 2 * overlap._MC_CHUNK, 3),
        # nearly every radius in the j2 series band
        ((0.02, 0.02), 10**5, 13),
    ],
)
def test_chunked_mc_oracle_matches_the_one_shot_draw(eta, samples, seed, monkeypatch):
    # each chunk draws from its own stream, whichever worker evaluates it,
    # and the chunks' moments are pooled in chunk order; at these widths
    # the control constant's rounding vanishes from err_f
    geom = TrapGeometry(*eta)
    want = oracles.one_shot_mc_oracle(geom, samples, seed)
    fields = ("mean_f", "mean_g", "err_f", "err_g")
    for cpus in (1, 2, 3):
        monkeypatch.setattr(overlap, "_available_cpus", lambda: cpus)
        got = mc_oracle(geom, samples, seed)
        assert [getattr(got, k).hex() for k in fields] == [getattr(want, k).hex() for k in fields]
        assert got.evaluations == want.evaluations == samples


def _record_chunks(monkeypatch, cpus: int) -> list:
    """Make mc_oracle see cpus CPUs, and record the (thread, radii) of each
    chunk it evaluates."""
    chunks = []

    def recording(r, out=None):
        chunks.append((threading.current_thread(), r.copy()))
        return radial_parts(r, out=out)

    monkeypatch.setattr(overlap, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(overlap, "radial_parts", recording)
    return chunks


def _serial_fan_out(workers, chunks, work):
    # every chunk in order on the calling thread: no thread starts
    return [work(k) for k in range(chunks)]


def _record_workers(monkeypatch, fan_out=overlap._fan_out) -> list:
    """Record the number of workers of each of overlap's fan-outs."""
    fanned = []

    def recording(workers, chunks, work):
        fanned.append(workers)
        return fan_out(workers, chunks, work)

    monkeypatch.setattr(overlap, "_fan_out", recording)
    return fanned


def test_mc_oracle_splits_its_chunks_across_threads(monkeypatch):
    samples = 3 * overlap._MC_CHUNK + 7
    for cpus in (1, 2, 3):
        chunks = _record_chunks(monkeypatch, cpus)
        fanned = _record_workers(monkeypatch)
        mc_oracle(REFERENCE_GEOMETRY, samples, 1)
        # the chunk size does not depend on the CPU count
        assert sorted(r.size for _, r in chunks) == [7] + [overlap._MC_CHUNK] * 3
        assert fanned == [min(cpus, overlap._MC_WORKERS)]
        assert len({thread for thread, _ in chunks}) == fanned[0]
        # every chunk draws from a stream of its own: no radius is seen twice
        radii = np.concatenate([r for _, r in chunks])
        assert np.unique(radii).size == samples

    # no more threads than chunks
    chunks.clear()
    fanned.clear()
    mc_oracle(REFERENCE_GEOMETRY, overlap._MC_CHUNK, 1)
    assert [r.size for _, r in chunks] == [overlap._MC_CHUNK]
    assert fanned == [1]


def test_mc_oracle_workers_stop_at_the_cap(monkeypatch):
    # with 64 CPUs the workers stop at _MC_WORKERS = 2, the chunks in flight
    # that the memory bound has room for. They run one after another on the
    # calling thread here, so no thread starts
    chunks = _record_chunks(monkeypatch, cpus=64)
    fanned = _record_workers(monkeypatch, _serial_fan_out)
    mc_oracle(REFERENCE_GEOMETRY, 10**5, 1)
    assert fanned == [2]
    assert sorted(r.size for _, r in chunks) == [10**5 % overlap._MC_CHUNK] + [overlap._MC_CHUNK] * 6
    assert {thread for thread, _ in chunks} == {threading.current_thread()}


class _WorkerFailure(Exception):
    pass


def test_mc_oracle_worker_exception_propagates(monkeypatch):
    threads_before = threading.active_count()
    caller = threading.current_thread()
    chunks = []

    def failing(r, out=None):
        chunks.append(threading.current_thread())
        if threading.current_thread() is not caller:
            raise _WorkerFailure("worker chunk")
        return radial_parts(r, out=out)

    monkeypatch.setattr(overlap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(overlap, "radial_parts", failing)
    with pytest.raises(_WorkerFailure, match="worker chunk"):
        mc_oracle(REFERENCE_GEOMETRY, 10**6, 1)
    # of the 62 chunks, the calling thread takes every other one: the
    # failure stopped it before it took all 31 of them, and every worker
    # thread has been joined
    assert -(-10**6 // overlap._MC_CHUNK) == 62
    assert len(chunks) < 62
    assert chunks.count(caller) < 31
    assert threading.active_count() == threads_before


def test_mc_oracle_bits_hold_under_frequent_thread_switches(monkeypatch):
    # two workers, switching every microsecond: a chunk taken twice,
    # skipped or drawn from another chunk's stream moves the bits
    monkeypatch.setattr(overlap, "_available_cpus", lambda: 3)
    geom = TrapGeometry(0.3, 0.07)
    want = oracles.one_shot_mc_oracle(geom, 123_457, 9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = mc_oracle(geom, 123_457, 9)
    finally:
        sys.setswitchinterval(interval)
    fields = ("mean_f", "mean_g", "err_f", "err_g")
    assert [getattr(got, k).hex() for k in fields] == [getattr(want, k).hex() for k in fields]


def test_mc_oracle_peak_memory_is_per_worker_scratch(monkeypatch):
    # each of the at most _MC_WORKERS threads has ten arrays of _MC_CHUNK
    # samples (1.3 MB), and radial_parts works in seven of them: no array
    # of the sample count's length is made
    for cpus in (1, 2, 3):
        monkeypatch.setattr(overlap, "_available_cpus", lambda: cpus)
        mc_oracle(REFERENCE_GEOMETRY, 10**4, 1)  # first-call allocations stay out
        tracemalloc.start()
        try:
            mc_oracle(REFERENCE_GEOMETRY, 10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak} B at {cpus} CPUs"


def _ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(b)


@pytest.mark.parametrize("size", [10**4, 3 * overlap._MC_CHUNK + 7, 10**6])
@pytest.mark.parametrize("loc, scale", [(1.0, 1.0), (0.9, 0.1), (1e8, 1.0)])
def test_pooled_moments_agree_with_numpy(size, loc, scale):
    # mc_oracle's chunk moments, pooled, and the reference's pooling, held
    # against numpy's full-array mean and std(ddof=1). At an offset of 1e8
    # sigma, pooling without each chunk's sum of deviations is ~1e5 ulps off
    values = np.random.default_rng(size).normal(loc, scale, size)
    chunks = range(0, size, overlap._MC_CHUNK)
    pooled = overlap._pooled_mean_and_std(
        [overlap._chunk_moments(values[start:start + overlap._MC_CHUNK].copy()) for start in chunks])
    for mean, std in (pooled, oracles.pooled_mean_and_std(values, overlap._MC_CHUNK)):
        assert _ulps_apart(mean, float(values.mean())) <= 4
        assert _ulps_apart(std, float(values.std(ddof=1))) <= 4


def test_mc_error_covers_the_rounding_of_the_control_constant():
    # at aspect 1e8 the control constant is 1.4e15, whose last bits are
    # comparable with the sampling error of 10^6 samples: without them in
    # err_f the estimate sat 4.2 err_f from the quadrature
    geom = TrapGeometry(1e-8, 1.0)
    mc = mc_oracle(geom, 10**6, 3)
    control = 2.0 * kappa_approx(geom)
    assert mc.err_f >= overlap._CONTROL_ULPS * math.ulp(control)
    assert abs(mc.mean_f - mean_fg(geom).mean_f) <= 3.0 * mc.err_f


def test_mc_non_finite_estimate_raises(monkeypatch):
    # at the floor the sample-wise residual cancels terms of ~1e294 and its
    # deviation overflows: a loud failure, with no numpy warning, also when
    # the samples span several chunks on several worker threads
    for cpus in (1, 2, 3):
        monkeypatch.setattr(overlap, "_available_cpus", lambda: cpus)
        for samples in (10**4, 3 * overlap._MC_CHUNK + 7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError, match="non-finite Monte Carlo estimate"):
                    mc_oracle(TrapGeometry(1e-98, 1e-98), samples, 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_mc_worker_overflow_is_a_non_finite_estimate(cpus, monkeypatch):
    # an overflow in a worker's elementwise steps, not only in the moments
    # the calling thread takes: each worker sets numpy's per-thread error
    # state, so it raises ConvergenceError and no warning
    def overflowing(r, out=None):
        f_mono, f_tensor, g_mono, g_tensor = radial_parts(r, out=out)
        return np.full_like(f_mono, 1.5e308), np.full_like(f_tensor, 1.5e308), g_mono, g_tensor

    monkeypatch.setattr(overlap, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(overlap, "radial_parts", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite Monte Carlo estimate"):
            mc_oracle(REFERENCE_GEOMETRY, 3 * overlap._MC_CHUNK + 7, 1)


def _aspect_ladder():
    for eta_max in (0.05, 1.0):
        for exponent in np.linspace(0.5, 98.0, 14):
            eta_min = max(eta_max / 10**exponent, 1e-98)
            yield (eta_min, eta_max)
            yield (eta_max, eta_min)


@pytest.mark.parametrize("eta", list(_aspect_ladder()))
def test_mean_fg_agrees_with_mc_along_the_aspect_ladder(eta):
    # from aspect ~1e10 the panel [0.1 min(eta), scale] is too wide for its
    # GK21 nodes to find the narrow axis: without _cuts' decade rule
    # mean_fg returned a finite <f> 1000 times too small, with exit 0
    geom = TrapGeometry(*eta)
    exact = mean_fg(geom)
    mc = mc_oracle(geom, 2 * 10**4, 1)
    assert all(map(math.isfinite, (exact.mean_f, exact.mean_g, exact.err_f)))
    assert abs(exact.mean_f - mc.mean_f) <= 5.0 * math.hypot(exact.err_f, mc.err_f)
    assert abs(exact.mean_g - mc.mean_g) <= 5.0 * math.hypot(exact.err_g, mc.err_g)


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


@pytest.mark.parametrize("ratio", [1e7, 6.6e7, 1e8, 1e10, 1e12])
def test_kappa_approx_at_extreme_cigar_aspects(ratio):
    # past ratio ~ 6.7e7 the artanh branch's v = ratio/sqrt(ratio^2 - 1)
    # rounds to 1, where artanh(1/v) overflows; the closed form must stay
    # finite and on the mpmath value of the same formula on both sides
    geom = TrapGeometry(1.0 / ratio, 1.0)
    expected = float(oracles.mp_kappa_approx(geom.eta_perp, geom.eta_par))
    assert kappa_approx(geom) == pytest.approx(expected, rel=1e-12)
    # mc_oracle adds twice the closed form back as its control constant
    assert math.isfinite(mc_oracle(geom, samples=10**4, seed=1).mean_f)


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


@pytest.mark.parametrize(
    "eta_perp,aspect",
    [(1e-4, aspect) for aspect in (0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 1.25, 2.0, 5.0, 10.0, 20.0, 50.0)]
    + [(1e-3, aspect) for aspect in (0.02, 0.1, 0.5, 2.0, 10.0, 50.0)],
)
def test_retardation_correction_matches_its_second_order_coefficient(eta_perp, aspect):
    # dev = |kappa| / |kappa_approx| - 1 = C(aspect) eta_perp^2 to the first
    # order. The next order measures ~3 eta_perp^2 + 0.11 eta_par^2 of C (at
    # (1e-3, 50): 2.6e-4). dev's own error is kappa's relative error, of
    # order 1e-14 (against mp_mean_fg, <f> is within 3.4e-15 and <g> within
    # 4.7e-14 on [0.01, 1]^2), which dominates at 1e-4 near isotropy
    eta_par = aspect * eta_perp
    geom = TrapGeometry(eta_perp, eta_par)
    dev = abs(kappa(geom)) / abs(kappa_approx(geom)) - 1.0
    coefficient = oracles.retardation_coefficient(aspect)
    tolerance = abs(coefficient) * (10.0 * eta_perp**2 + eta_par**2) + 5e-14 / eta_perp**2
    assert abs(dev / eta_perp**2 - coefficient) <= tolerance


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
    threaded = kappa_map(grid, grid, jobs=2)
    assert np.array_equal(serial, threaded)


def test_map_grid_validation():
    good = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match="strictly increasing"):
        kappa_map(np.array([0.2, 0.1]), good)
    with pytest.raises(ValueError, match="nonempty"):
        kappa_map(np.array([]), good)
    with pytest.raises(ValueError, match="\\[1e-98, 1\\], got 1.5"):
        kappa_map(np.array([0.5, 1.5]), good)
    # nan fails every comparison, so each element is checked, not the ends
    with pytest.raises(ValueError, match="eta_perp must lie in \\[1e-98, 1\\], got nan"):
        kappa_map(np.array([math.nan, math.nan]), good)
    with pytest.raises(ValueError, match="eta_par must lie in \\[1e-98, 1\\], got nan"):
        kappa_map(good, np.array([math.nan]))
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        kappa_map(good, good, jobs=0)


def test_map_workers_never_outnumber_cells_or_cpus(monkeypatch):
    fanned = _record_workers(monkeypatch, _serial_fan_out)
    grid = np.array([0.1, 0.2])
    values = kappa_map(grid, grid, jobs=8)
    assert fanned == [min(8, overlap._available_cpus(), 4)]
    assert np.array_equal(values, kappa_map(grid, grid, jobs=1))


def test_map_workers_stop_at_the_cpu_count(monkeypatch):
    # a huge jobs asks for no more threads than CPUs; the chunks run on the
    # calling thread here, so no thread or process starts
    fanned = _record_workers(monkeypatch, _serial_fan_out)
    grid = np.array([0.1, 0.15, 0.2])
    kappa_map(grid, grid, jobs=10**6)
    assert fanned == [min(overlap._available_cpus(), 9)]
    fanned.clear()
    monkeypatch.setattr(overlap, "_available_cpus", lambda: 3)
    values = kappa_map(grid, grid, jobs=10**6)
    assert fanned == [3]
    assert np.array_equal(values, kappa_map(grid, grid, jobs=1))


@pytest.mark.parametrize("failing_row", [0.1, 0.2])
def test_map_chunk_exception_propagates(failing_row, monkeypatch):
    # four cells in two chunks of one row each: the calling thread takes the
    # 0.1 row and a worker thread the 0.2 row
    threads_before = threading.active_count()
    threads = set()
    mean_fg_many = overlap._mean_fg_many

    def failing(cells, quad_spec):
        threads.add(threading.current_thread())
        if cells[0].eta_perp == failing_row:
            raise _WorkerFailure(f"row {failing_row}")
        return mean_fg_many(cells, quad_spec)

    monkeypatch.setattr(overlap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(overlap, "_mean_fg_many", failing)
    grid = np.array([0.1, 0.2])
    with pytest.raises(_WorkerFailure, match=f"row {failing_row}"):
        kappa_map(grid, grid, jobs=2)
    assert len(threads) == 2
    assert threading.active_count() == threads_before


def test_map_marks_failed_cells_as_nan():
    starved = QuadratureSpec(eval_budget=50)
    values = kappa_map(np.array([0.1]), np.array([0.2]), starved)
    assert math.isnan(values[0, 0])


def _q_range(geom: TrapGeometry) -> tuple[float, float]:
    """The extremes of q = beta x^2 on mean_fg's radial range for geom."""
    beta = 0.5 / geom.sigma_par**2 - 0.5 / geom.sigma_perp**2
    cuts = overlap._cuts(geom)
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


@pytest.mark.parametrize(
    "etas,specs,converged",
    [
        # at rel_tol = 1e-15 every cell fails, some with a partial and some
        # on the budget
        (((0.01, 0.01), (0.1, 0.2), (0.05, 1.0), (1.0, 0.05), (0.3, 0.3)),
         (QuadratureSpec(rel_tol=1e-15), QuadratureSpec(rel_tol=1e-15, eval_budget=300)), ((), ())),
        # (0.1, 0.2) takes 232 nodes, its head among them, beside cells that
        # take 337 and 295: at a budget of 231 the head node does not fit
        (((0.1, 0.2), (0.05, 1.0), (1.0, 0.05)),
         (QuadratureSpec(eval_budget=231), QuadratureSpec(eval_budget=232)), ((), ((0.1, 0.2),))),
    ],
    ids=["tolerance", "head_node"],
)
def test_batched_failures_match_single_cell_failures(etas, specs, converged):
    # converged lists the cells that converge under each spec, with their
    # default-budget bits; a failure without a partial is the budget's, and
    # messages and partials match a batch of one's bit for bit
    geoms = [TrapGeometry(*eta) for eta in etas]
    for spec, ok in zip(specs, converged):
        batched = overlap._mean_fg_many(geoms, spec)
        done = [geom for geom, result in zip(geoms, batched) if not isinstance(result, ConvergenceError)]
        assert done == [TrapGeometry(*eta) for eta in ok]
        for geom, result in zip(geoms, batched):
            try:
                alone = mean_fg(geom, spec)
            except ConvergenceError as exc:
                alone = exc
            assert _outcome(result) == _outcome(alone)
            if isinstance(result, ConvergenceError):
                if result.partial is None:
                    assert str(result) == f"evaluation budget {spec.eval_budget} exhausted for {geom}"
            else:
                assert _outcome(result) == _outcome(mean_fg(geom))


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
    n = oracles.quad_vec_mean_fg(REFERENCE_GEOMETRY, QuadratureSpec()).evaluations
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


def _unchecked_geometry(eta_perp: float, eta_par: float) -> TrapGeometry:
    """A TrapGeometry that skips the domain check, to reach what it guards."""
    geom = object.__new__(TrapGeometry)
    object.__setattr__(geom, "eta_perp", eta_perp)
    object.__setattr__(geom, "eta_par", eta_par)
    return geom


def test_non_finite_result_raises_without_partial():
    # below TrapGeometry's floor the kernel's 1/(kr)^3 overflows to inf: no
    # number may come back, and the error says so without numpy warnings
    for eta in ((1e-105, 1e-105), (1e-120, 0.1)):
        with pytest.raises(ValueError, match="must lie in"):
            TrapGeometry(*eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="non-finite") as excinfo:
                mean_fg(_unchecked_geometry(*eta))
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


@pytest.mark.parametrize("eta", [(1e-99, 0.1), (0.1, 1e-99), (1e-300, 1e-300)])
def test_trap_geometry_rejects_widths_below_the_floor(eta):
    # below 1e-98 the kernel's 1/(kr)^3 at the radial range's start
    # kr = 1e-4 * min(eta) overflows, so the domain ends there
    name, value = ("eta_perp", eta[0]) if eta[0] < 1e-98 else ("eta_par", eta[1])
    with pytest.raises(ValueError, match=f"^{name} must lie in \\[1e-98, 1\\], got {value!r}$"):
        TrapGeometry(*eta)


@pytest.mark.parametrize("eta", [(1e-98, 1e-98), (1e-98, 1.0), (1.0, 1e-98)])
def test_geometries_at_the_floor_converge(eta):
    geom = TrapGeometry(*eta)
    result = mean_fg(geom)
    assert all(map(math.isfinite, (result.mean_f, result.mean_g, result.err_f, result.kappa)))
    if eta[0] == eta[1]:
        # mc_oracle has no digits left here (test_mc_non_finite_estimate_raises).
        # At kr ~ 1e-98 only f's monopole cos(kr)/kr survives the isotropic
        # average, so <f> = <1/r> = sqrt(2/pi)/sigma, and g = 1
        assert result.mean_f == pytest.approx(math.sqrt(2.0 / math.pi) / geom.sigma_perp, rel=1e-12)
        assert result.mean_g == pytest.approx(1.0, rel=1e-12)
        return
    mc = mc_oracle(geom, 10**5, 7)
    assert abs(result.mean_f - mc.mean_f) <= 5.0 * math.hypot(result.err_f, mc.err_f)
    assert abs(result.mean_g - mc.mean_g) <= 5.0 * math.hypot(result.err_g, mc.err_g)


def test_relative_distribution_widths():
    # the relative coordinate's widths in kr units are sqrt(2) * eta per axis
    geom = TrapGeometry(0.1, 0.2)
    assert geom.sigma_perp == math.sqrt(2.0) * 0.1
    assert geom.sigma_par == math.sqrt(2.0) * 0.2
