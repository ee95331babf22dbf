"""Gaussian-averaged dipole coupling for two atoms in adjacent wells.

Two atoms in the vibrational ground states of their wells have a relative
coordinate distributed as an anisotropic Gaussian; the coherent (f) and
cooperative (g) coupling functions are averaged over that distribution. The
figure of merit

    kappa = -<f> / (1 + <g>)

compares the coherent level shift against the superradiantly broadened
linewidth of the doubly-excitable state. kappa is negative (attractive
shift) for elongated head-to-tail geometries such as the reference point
eta_perp = 0.1, eta_par = 0.2.

Deterministic path: spherical coordinates with the azimuth analytic, the
angular integral innermost (the 1/(kr)^3 tensor piece is finite only after
angular averaging at each radius), Gauss-Legendre in cos(theta), adaptive
Gauss-Kronrod panels in kr. The radial integrator is a port of
scipy.integrate.quad_vec (scipy/integrate/_quad_vec.py, BSD-3-Clause; after
QUADPACK, Piessens et al. 1983) for the GK21 rule and the max norm. It keeps
quad_vec's every sum and update in the same order, so its results are
bit-identical to quad_vec's, but it runs all radial panels in lockstep and
hands each round's nodes to the integrand as one array. An importance-sampled
Monte Carlo estimator with a near-field control variate provides an
independent cross-check, and the retardation-free closed form provides a
second one.
"""

from __future__ import annotations

import csv
import functools
import heapq
import math
import sys
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np
from numpy.polynomial.legendre import leggauss

from .atomics import legendre_p2
from .dipole_kernel import radial_parts

__all__ = [
    "TrapGeometry",
    "RelativeGaussian",
    "QuadratureSpec",
    "DipoleExpectation",
    "ConvergenceError",
    "DEFAULT_QUAD",
    "relative_distribution",
    "mean_fg",
    "mc_oracle",
    "kappa",
    "kappa_approx",
    "optimize_ratio",
    "kappa_map",
    "kappa_map_csv",
]


@dataclass(frozen=True)
class TrapGeometry:
    """Lamb-Dicke parameters of one well: eta = k * rms ground-state width.

    eta_perp applies to both transverse axes, eta_par to the axis along the
    dipole polarization. Both must lie in (0, 1]; this code assumes the deep
    Lamb-Dicke regime and rejects wider packets.
    """

    eta_perp: float
    eta_par: float

    def __post_init__(self) -> None:
        for name in ("eta_perp", "eta_par"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


@dataclass(frozen=True)
class RelativeGaussian:
    """Relative-coordinate distribution of two identical ground-state packets.

    Widths are in kr units (dimensionless): sigma = sqrt(2) * eta per axis,
    since the difference of two independent Gaussians doubles the variance.
    norm is the density prefactor (2 pi)^(-3/2) / (sigma_perp^2 * sigma_par).
    """

    sigma_perp: float
    sigma_par: float
    norm: float


def relative_distribution(geom: TrapGeometry) -> RelativeGaussian:
    sigma_perp = math.sqrt(2.0) * geom.eta_perp
    sigma_par = math.sqrt(2.0) * geom.eta_par
    norm = (2.0 * math.pi) ** -1.5 / (sigma_perp**2 * sigma_par)
    return RelativeGaussian(sigma_perp, sigma_par, norm)


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the deterministic averaging integrator.

    rel_tol is the target relative tolerance per radial panel, applied above
    a fixed absolute error floor of 1e-12 per panel, so tightening it past
    that floor adds no nodes (at eta = (0.1, 0.2), rel_tol = 1e-12, 1e-13 and
    1e-14 all take 274). The achieved-error check afterwards allows
    10 * rel_tol of the result's scale. angular_order is the base
    Gauss-Legendre order in cos(theta), raised automatically for strongly
    anisotropic traps; eval_budget caps the radial kernel nodes evaluated
    before an explicit non-convergence report.
    """

    rel_tol: float = 1e-6
    angular_order: int = 64
    eval_budget: int = 10_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol!r}")
        if self.angular_order < 8:
            raise ValueError("angular_order must be >= 8")
        if self.eval_budget < 1:
            raise ValueError("eval_budget must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class DipoleExpectation:
    """<f>, <g> with absolute error estimates and the kernel call count.

    For the deterministic path the errors are quadrature estimates; for the
    Monte Carlo path they are one-sigma statistical standard errors.
    """

    mean_f: float
    mean_g: float
    err_f: float
    err_g: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.err_f < 0 or self.err_g < 0:
            raise ValueError("error estimates must be nonnegative")
        if abs(self.mean_g) > 1.0 + self.err_g + 1e-9:
            raise ValueError(
                f"|mean_g| = {abs(self.mean_g)!r} exceeds 1 beyond its error estimate"
            )

    @property
    def kappa(self) -> float:
        """Figure of merit -<f>/(1 + <g>)."""
        return -self.mean_f / (1.0 + self.mean_g)


class ConvergenceError(RuntimeError):
    """Raised instead of returning a silently unconverged expectation."""

    def __init__(self, message: str, partial: DipoleExpectation | None = None):
        super().__init__(message)
        self.partial = partial


# Gauss-Kronrod 21-point rule on [-1, 1]: nodes, the 10-point Gauss weights
# (on the odd-indexed nodes) and the 21-point Kronrod weights, copied from
# scipy/integrate/_quad_vec.py so that they parse to the same doubles.
_GK21_NODES = np.array((
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
))
_GK21_GAUSS = np.array((
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
    0.295524224714752870173892994651338,
    0.269266719309996355091226921569469,
    0.219086362515982043995534934228163,
    0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
))
_GK21_KRONROD = np.array((
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
))
# quad_vec's fixed settings as mean_fg called it: absolute tolerance per
# panel, intervals split per round, and the cap on intervals per panel
_EPSABS = 1e-12
_PARALLEL_COUNT = 128
_LIMIT = 200


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of terms[:, i] over the node axis i, added one node at a time
    from 0.0 as quad_vec's loops add them."""
    total = 0.0
    for i in range(terms.shape[1]):
        total = total + terms[:, i]
    return total


def _gk21(lo: np.ndarray, hi: np.ndarray, integrand) -> tuple[np.ndarray, list, list]:
    """GK21 integral, error and rounding error on each interval [lo_i, hi_i].

    quad_vec's _quadrature_gk with the max norm, run over all intervals at
    once: one integrand call takes every node, and each sum adds its terms
    node by node in quad_vec's order. The integral comes back with shape
    (intervals, 2); the errors are lists of Python floats.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _GK21_NODES
    fv = integrand(x.ravel()).reshape(lo.size, _GK21_NODES.size, 2)

    kronrod = _GK21_KRONROD[:, None]
    s_k, s_k_abs = np.split(_node_sum(kronrod * np.concatenate((fv, np.abs(fv)), axis=2)), 2, axis=1)
    s_g = _node_sum(_GK21_GAUSS[:, None] * fv[:, 1::2])
    s_k_dabs = _node_sum(kronrod * np.abs(fv - (s_k / 2.0)[:, None]))

    h = h[:, None]
    gk_err = np.max(np.abs((s_k - s_g) * h), axis=1).tolist()
    dabs = np.max(np.abs(s_k_dabs * h), axis=1).tolist()
    round_err = np.max(np.abs(50 * sys.float_info.epsilon * h * s_k_abs), axis=1).tolist()
    errors = []
    for err, d, rnd in zip(gk_err, dabs, round_err):
        # QUADPACK's error estimate, on Python floats as in quad_vec
        if d != 0 and err != 0:
            err = d * min(1.0, (200 * err / d) ** 1.5)
        if rnd > sys.float_info.min:
            err = max(err, rnd)
        errors.append(err)
    return h * s_k, errors, round_err


class _Panel:
    """The state of one quad_vec call: running integral, error and rounding
    error, the heap of intervals keyed on (-err, a, b), and each interval's
    integral by (a, b)."""

    def __init__(self, a: float, b: float, integral: np.ndarray, err: float, rnd: float):
        self.integral = integral.copy()
        self.error = err
        self.rounding = rnd
        self.heap = [(-err, a, b)]
        self.cache = {(a, b): integral}

    def tol(self, epsrel: float) -> float:
        return max(_EPSABS, epsrel * float(np.max(np.abs(self.integral))))

    def pop_round(self, epsrel: float) -> list[tuple[float, float, float, np.ndarray]]:
        """The intervals to split this round: the largest errors first, at
        most _PARALLEL_COUNT, stopping once the popped errors cover all but
        tol/8 of the panel's error."""
        tol = self.tol(epsrel)
        popped = []
        err_sum = 0
        for j in range(_PARALLEL_COUNT):
            if not self.heap:
                break
            if j > 0 and err_sum > self.error - tol / 8:
                break
            neg_err, a, b = heapq.heappop(self.heap)
            popped.append((-neg_err, a, b, self.cache.pop((a, b))))
            err_sum += -neg_err
        return popped

    def running(self, epsrel: float) -> bool:
        """quad_vec's stops: tolerance, rounding error, non-finite error, and
        the interval cap."""
        if len(self.heap) >= 2:
            tol = self.tol(epsrel)
            if self.error < tol / 8 or self.error < self.rounding:
                return False
        if not (math.isfinite(self.error) and math.isfinite(self.rounding)):
            return False
        return 0 < len(self.heap) < _LIMIT


def _adaptive_gk21(integrand, cuts: list[float], epsrel: float) -> list[tuple[np.ndarray, float]]:
    """quad_vec(integrand, lo, hi, epsabs=1e-12, epsrel=epsrel, norm="max",
    limit=200, quadrature="gk21") on each panel [cuts[i], cuts[i+1]].

    Returns (integral, error + rounding error) per panel, bit-identical to
    quad_vec's. The panels advance in lockstep, each with its own state, and
    every round evaluates the nodes of all panels in one integrand call.
    """
    ig, err, rnd = _gk21(np.array(cuts[:-1]), np.array(cuts[1:]), integrand)
    panels = [_Panel(a, b, ig[i], err[i], rnd[i]) for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))]
    active = panels
    while active:
        rounds = [panel.pop_round(epsrel) for panel in active]
        halves = []
        for popped in rounds:
            for _, a, b, _ in popped:
                c = 0.5 * (a + b)
                halves += ((a, c), (c, b))
        lo, hi = np.array(halves).T
        s, err, rnd = _gk21(lo, hi, integrand)
        k = 0
        for panel, popped in zip(active, rounds):
            for old_err, _, _, old_int in popped:
                panel.integral += s[k] + s[k + 1] - old_int
                panel.error += err[k] + err[k + 1] - old_err
                panel.rounding += rnd[k] + rnd[k + 1]
                for j in (k, k + 1):
                    x1, x2 = halves[j]
                    panel.cache[(x1, x2)] = s[j]
                    heapq.heappush(panel.heap, (-err[j], x1, x2))
                k += 2
        active = [panel for panel in active if panel.running(epsrel)]
    return [(panel.integral, panel.error + panel.rounding) for panel in panels]


@functools.lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights, built once per order."""
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def mean_fg(geom: TrapGeometry, quad_spec: QuadratureSpec = DEFAULT_QUAD) -> DipoleExpectation:
    """Deterministic quadrature of f and g against the relative Gaussian.

    Angular moments m0(x) = <exp(-x^2 s(mu))> and m2(x) = <P2(mu) ...> are
    taken by Gauss-Legendre at each radius, then the radial integrals of
    x^2 (f_mono m0 + f_tensor m2) etc. run on adaptive Gauss-Kronrod panels
    split at 0.1*min(eta), the Gaussian scale radius, and kr = 10. The upper
    cutoff is 14 relative-coordinate sigmas of the *widest* axis (the wide
    axis dominates the tail for pancake geometries).
    """
    gauss = relative_distribution(geom)
    a, c_ax = gauss.sigma_perp, gauss.sigma_par

    # A strongly anisotropic Gaussian turns exp(-x^2 s(mu)) into a narrow
    # ridge in mu at the radii that carry the integral, which a fixed-order
    # rule misses: at 20:1 aspect the base order of 64 is off by 3e-3 in
    # <g>. The required order grows linearly with aspect; one base step per
    # factor of 5 restores ~1e-9 agreement with an adaptive-angle reference
    # while leaving mild geometries (aspect <= 5) on the base rule.
    aspect = max(a, c_ax) / min(a, c_ax)
    nodes, weights = _gauss_legendre(quad_spec.angular_order * max(1, math.ceil(aspect / 5.0)))
    wp2 = weights * legendre_p2(nodes)
    s_mu = (1.0 - nodes * nodes) / (2.0 * a * a) + nodes * nodes / (2.0 * c_ax * c_ax)

    count = 0

    def integrand(x: np.ndarray) -> np.ndarray:
        """x^2-weighted (f, g) angular averages at the radii x, shape (x.size, 2)."""
        nonlocal count
        count += x.size
        if count > quad_spec.eval_budget:
            raise ConvergenceError(f"evaluation budget {quad_spec.eval_budget} exhausted for {geom}")
        f_mono, f_tensor, g_mono, g_tensor = radial_parts(x)
        xx = x * x
        envelope = np.exp(-xx[:, None] * s_mu)
        # one dot per radius: a matrix-vector product would sum in another
        # order and move the last bits
        m0 = np.array([weights @ row for row in envelope])
        m2 = np.array([wp2 @ row for row in envelope])
        return np.stack((xx * (f_mono * m0 + f_tensor * m2), xx * (g_mono * m0 + g_tensor * m2)), axis=1)

    eta_min = min(geom.eta_perp, geom.eta_par)
    x_lo = 1e-4 * eta_min
    scale = math.sqrt(2.0 * a * a + c_ax * c_ax)
    x_hi = max(14.0 * max(a, c_ax), 2.0 * scale)
    interior = sorted({p for p in (0.1 * eta_min, scale, 10.0) if x_lo < p < x_hi})
    cuts = [x_lo, *interior, x_hi]

    total = np.zeros(2)
    err_sum = 0.0
    sum_abs = np.zeros(2)
    for value, err in _adaptive_gk21(integrand, cuts, quad_spec.rel_tol):
        total += value
        err_sum += err
        sum_abs += np.abs(value)
    # F(x) is linear in x at the origin (the angular average kills the
    # 1/x^3 and 1/x pieces), so the [0, x_lo] head is F(x_lo)*x_lo/2.
    head = integrand(np.array([x_lo]))[0] * (0.5 * x_lo)
    total += head
    sum_abs += np.abs(head)

    prefactor = 2.0 * math.pi * gauss.norm
    mean = prefactor * total
    err_abs = prefactor * err_sum
    result = DipoleExpectation(
        mean_f=float(mean[0]),
        mean_g=float(mean[1]),
        err_f=float(err_abs),
        err_g=float(err_abs),
        evaluations=count,
    )
    # achieved-error check; err_abs bounds the max-norm error of the (f, g)
    # vector, so it is compared against the larger component's
    # cancellation-aware scale. A silent bad value is worse than a loud
    # failure.
    tolerance = 10.0 * quad_spec.rel_tol * max(float(np.max(prefactor * sum_abs)), 1e-9)
    if err_abs > tolerance:
        raise ConvergenceError(
            f"quadrature error {err_abs:.3e} above tolerance for {geom} "
            f"after {count} evaluations",
            partial=result,
        )
    return result


def mc_oracle(geom: TrapGeometry, samples: int, seed: int) -> DipoleExpectation:
    """Monte Carlo estimate of <f>, <g> with honest standard errors.

    Draws the relative coordinate from its Gaussian directly. The raw sample
    mean of f has infinite variance (f ~ 3 P2/(kr)^3 near the origin against
    a finite density), so the exact tensor term is subtracted sample-wise
    and its average 3 <P2/(kr)^3> = 2 * kappa_approx added back from the
    closed form (which the tests check against direct nested quadrature);
    the residual is ~1/(kr) near the origin and has finite variance.
    Bit-identical for a fixed seed.
    """
    samples = int(samples)
    if samples < 10_000:
        raise ValueError("mc_oracle needs at least 10^4 samples")
    gauss = relative_distribution(geom)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((samples, 3))
    points[:, :2] *= gauss.sigma_perp
    points[:, 2] *= gauss.sigma_par
    radius = np.sqrt(np.sum(points * points, axis=1))
    radius = np.maximum(radius, 1e-300)
    mu = points[:, 2] / radius
    p2 = legendre_p2(mu)

    f_mono, f_tensor, g_mono, g_tensor = radial_parts(radius)
    f_values = f_mono + p2 * f_tensor
    g_values = g_mono + p2 * g_tensor

    control = 3.0 * p2 / radius**3
    residual = f_values - control
    root_n = math.sqrt(samples)
    mean_f = float(residual.mean()) + 2.0 * _kappa_approx_values(geom.eta_perp, geom.eta_par)
    err_f = float(residual.std(ddof=1)) / root_n
    mean_g = float(g_values.mean())
    err_g = float(g_values.std(ddof=1)) / root_n
    return DipoleExpectation(mean_f, mean_g, err_f, err_g, samples)


def kappa(geom: TrapGeometry, quad_spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Figure of merit -<f>/(1 + <g>); propagates non-convergence."""
    return mean_fg(geom, quad_spec).kappa


def _kappa_approx_values(eta_perp: float, eta_par: float) -> float:
    # closed form valid for any positive pair; domain checks live in the
    # public wrapper so the ratio optimizer can probe outside (0, 1]
    ratio = eta_par / eta_perp
    w = 1.0 - 1.0 / (ratio * ratio)
    if abs(w) < 0.02:
        # unified series around the isotropic point; both closed branches
        # cancel badly as ratio -> 1
        bracket = 0.0
        term = 1.0
        for m in range(1, 31):
            term *= w
            bracket += 6.0 * term / ((2 * m + 1) * (2 * m + 3))
    elif ratio < 1.0:
        u = ratio / math.sqrt(1.0 - ratio * ratio)
        bracket = -2.0 - 3.0 * u * u + 3.0 * (u**3 + u) * math.atan(1.0 / u)
    else:
        v = ratio / math.sqrt(ratio * ratio - 1.0)
        bracket = -2.0 + 3.0 * v * v - 3.0 * (v**3 - v) * math.atanh(1.0 / v)
    prefactor = 1.0 / (8.0 * math.sqrt(math.pi) * eta_perp**2 * eta_par)
    return prefactor * bracket


def kappa_approx(geom: TrapGeometry) -> float:
    """Retardation-free closed form for the figure of merit.

    Equals (3/2) <P2(cos theta)/(kr)^3> exactly: the pure near-field tensor
    average with the cooperative linewidth taken at full strength. Note the
    overall sign is opposite to kappa() at attractive-geometry points (e.g.
    +16.9 vs -19.3 at eta = (0.1, 0.2)); the closed form is kept exactly as
    conventionally printed and cross-checks compare magnitudes. Analytic
    continuation across the isotropic point: arctan branch for pancake
    (eta_par < eta_perp), artanh for cigar, a series where they meet; the
    isotropic value is exactly 0.
    """
    return _kappa_approx_values(geom.eta_perp, geom.eta_par)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_ratio(eta_perp: float, use_approx: bool = True) -> tuple[float, float]:
    """Maximize |kappa| over the aspect ratio eta_par/eta_perp in [1.01, 10].

    Golden-section search to relative tolerance 1e-4 on the ratio. In approx
    mode the closed form is used (the optimum ratio is then independent of
    eta_perp); otherwise the full quadrature kappa, in which case eta_perp
    should be small enough that ratio*eta_perp stays inside the geometry
    domain. Returns (ratio_star, kappa at the optimum, signed).
    """
    if not 0.0 < eta_perp <= 0.5:
        raise ValueError(f"eta_perp must lie in (0, 0.5], got {eta_perp!r}")

    def signed(ratio: float) -> float:
        if use_approx:
            return _kappa_approx_values(eta_perp, ratio * eta_perp)
        return kappa(TrapGeometry(eta_perp, ratio * eta_perp))

    lo, hi = 1.01, 10.0
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = abs(signed(x1)), abs(signed(x2))
    while hi - lo > 1e-4 * 0.5 * (hi + lo):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = abs(signed(x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = abs(signed(x1))
    ratio_star = 0.5 * (lo + hi)
    return ratio_star, signed(ratio_star)


def _map_cell(args: tuple[float, float, QuadratureSpec]) -> float:
    eta_perp, eta_par, quad_spec = args
    try:
        return kappa(TrapGeometry(eta_perp, eta_par), quad_spec)
    except ConvergenceError:
        return math.nan


def kappa_map(
    eta_perp_grid,
    eta_par_grid,
    quad_spec: QuadratureSpec = DEFAULT_QUAD,
    jobs: int = 1,
) -> np.ndarray:
    """kappa on the outer product of two ascending eta grids.

    Returns shape (len(eta_perp_grid), len(eta_par_grid)); rows scan
    eta_perp. Cells that fail to converge are nan, not fatal. With jobs > 1
    the cells fan out to a process pool; the output is independent of the
    worker count and scheduling because cells are independent and assembly
    order is fixed.
    """
    perp = np.asarray(eta_perp_grid, dtype=float)
    par = np.asarray(eta_par_grid, dtype=float)
    for name, grid in (("eta_perp_grid", perp), ("eta_par_grid", par)):
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"{name} must be a nonempty 1D grid")
        if np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
        if not np.all((grid > 0) & (grid <= 1.0)):
            raise ValueError(f"{name} must lie in (0, 1]")

    tasks = [(ep, el, quad_spec) for ep in perp for el in par]
    workers = min(jobs, len(tasks))
    if workers == 1:
        values = [_map_cell(task) for task in tasks]
    else:
        with Pool(processes=workers) as pool:
            values = pool.map(_map_cell, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    return np.array(values, dtype=float).reshape(perp.size, par.size)


def kappa_map_csv(eta_perp_grid, eta_par_grid, values: np.ndarray, fh) -> None:
    """Write a kappa map as CSV: header row of eta_par, first column eta_perp.

    Numbers carry 9 significant digits; non-converged cells spell "nan".
    """
    perp = np.asarray(eta_perp_grid, dtype=float)
    par = np.asarray(eta_par_grid, dtype=float)
    if values.shape != (perp.size, par.size):
        raise ValueError("values shape does not match the grids")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["eta_perp/eta_par"] + [f"{v:.9g}" for v in par])
    for eta_p, row in zip(perp, values):
        writer.writerow([f"{eta_p:.9g}"] + [f"{v:.9g}" for v in row])
