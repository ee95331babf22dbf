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
angular averaging at each radius) and exact in cos(theta) through erf and
Dawson's integral, adaptive Gauss-Kronrod panels in kr. The radial
integrator is a port of scipy.integrate.quad_vec
(scipy/integrate/_quad_vec.py, BSD-3-Clause; after QUADPACK, Piessens et al.
1983) for the GK21 rule and the max norm. It keeps quad_vec's every sum and
update in the same order, so its results are bit-identical to quad_vec's,
but it runs all radial panels of a batch of geometries (the cells of a map)
in lockstep and hands each round's nodes to the integrand as one array. An importance-sampled
Monte Carlo estimator with a near-field control variate provides an
independent cross-check, and the retardation-free closed form provides a
second one. The estimator draws each fixed-size chunk of samples from its
own seeded stream, so its bits do not depend on how many threads share the
chunks.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._threads import _available_cpus, _fan_out
from .atomics import _require, _require_int
from .dipole_kernel import radial_parts

__all__ = [
    "TrapGeometry",
    "QuadratureSpec",
    "DipoleExpectation",
    "ConvergenceError",
    "mean_fg",
    "mc_oracle",
    "kappa",
    "kappa_approx",
    "optimize_ratio",
    "kappa_map",
]


@dataclass(frozen=True)
class TrapGeometry:
    """Lamb-Dicke parameters of one well: eta = k * rms ground-state width.

    eta_perp applies to both transverse axes, eta_par to the axis along the
    dipole polarization. Both lie in [1e-98, 1], atomics._RANGES' eta row:
    the deep Lamb-Dicke regime this code assumes, down to where doubles run
    out: mean_fg's radial range starts at kr = 1e-4 * min(eta), and the
    kernel's 1/(kr)^3 overflows below kr ~ 1.8e-103.

    sigma_perp and sigma_par are the widths, in kr units, of the relative
    coordinate of two atoms in identical ground-state packets: the
    difference of two independent Gaussians doubles the variance, so
    sigma = sqrt(2) * eta per axis.
    """

    eta_perp: float
    eta_par: float

    def __post_init__(self) -> None:
        _require("eta", eta_perp=self.eta_perp, eta_par=self.eta_par)

    @property
    def sigma_perp(self) -> float:
        return math.sqrt(2.0) * self.eta_perp

    @property
    def sigma_par(self) -> float:
        return math.sqrt(2.0) * self.eta_par


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the deterministic averaging integrator.

    rel_tol is the target relative tolerance per radial panel, applied above
    a fixed absolute error floor of 1e-12 per panel, so tightening it past
    that floor adds no nodes (at eta = (0.1, 0.2), rel_tol = 1e-12, 1e-13 and
    1e-14 all take 274). The achieved-error check afterwards allows
    10 * rel_tol of the result's scale. eval_budget caps the radial kernel
    nodes evaluated before an explicit non-convergence report.
    """

    rel_tol: float = 1e-6
    eval_budget: int = 10_000_000

    def __post_init__(self) -> None:
        _require("rel_tol", rel_tol=self.rel_tol)
        _require_int(1, eval_budget=self.eval_budget)


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
        _require("finite", mean_f=self.mean_f, mean_g=self.mean_g)
        _require("nonnegative", err_f=self.err_f, err_g=self.err_g)
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


# Gauss-Kronrod 21-point rule on [-1, 1], symmetric about 0: the positive
# nodes from the outside in, their 10-point Gauss weights (on the odd-indexed
# nodes) and 21-point Kronrod weights, and the centre's Kronrod weight, copied
# from scipy/integrate/_quad_vec.py so that they parse to the same doubles.
_GK21_HALF_NODES = (
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
)
_GK21_HALF_GAUSS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK21_HALF_KRONROD = (
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
)
_GK21_NODES = np.array((*_GK21_HALF_NODES, 0.0, *(-x for x in reversed(_GK21_HALF_NODES))))
_GK21_GAUSS = np.array((*_GK21_HALF_GAUSS, *reversed(_GK21_HALF_GAUSS)))
_GK21_KRONROD = np.array((*_GK21_HALF_KRONROD, 0.149445554002916905664936468389821, *reversed(_GK21_HALF_KRONROD)))
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


def _gk21(lo: np.ndarray, hi: np.ndarray, cell: np.ndarray, integrand) -> tuple[np.ndarray, list, list]:
    """GK21 integral, error and rounding error on each interval [lo_i, hi_i].

    quad_vec's _quadrature_gk with the max norm, run over all intervals at
    once: one integrand call integrand(x, cell) takes every node with the
    index of its interval's cell, and each sum adds its terms node by node
    in quad_vec's order. The integral comes back with shape (intervals, 2);
    the errors are lists of Python floats.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _GK21_NODES
    fv = integrand(x.ravel(), np.repeat(cell, _GK21_NODES.size)).reshape(lo.size, _GK21_NODES.size, 2)

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
    """The state of one quad_vec call: the index of the cell it belongs to,
    running integral, error and rounding error, and the heap of intervals
    (-err, a, b, integral), whose distinct a keep the integrals uncompared."""

    def __init__(self, cell: int, a: float, b: float, integral: np.ndarray, err: float, rnd: float):
        self.cell = cell
        self.integral = integral.copy()
        self.error = err
        self.rounding = rnd
        self.heap = [(-err, a, b, integral)]

    def tol(self, epsrel: float) -> float:
        return max(_EPSABS, epsrel * float(np.abs(self.integral).max()))

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
            neg_err, a, b, integral = heapq.heappop(self.heap)
            popped.append((-neg_err, a, b, integral))
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


def _adaptive_gk21(integrand, cuts: list[list[float]], epsrel: float, budget: float) -> tuple[list, list]:
    """quad_vec(integrand, lo, hi, epsabs=1e-12, epsrel=epsrel, norm="max",
    limit=200, quadrature="gk21") on each panel [c[i], c[i+1]] of each
    cell's cuts c = cuts[cell].

    Returns each cell's node count and its (integral, error + rounding
    error) per panel, bit-identical to quad_vec's. A cell whose next round
    would take it past budget nodes drops out before those nodes are
    evaluated, and gets None in place of its panels. The panels of all cells
    advance in lockstep, each with its own state, and every round evaluates
    the nodes of all of them in one call integrand(x, cell), where cell[j]
    is the cell of node x[j].
    """
    count = [0] * len(cuts)
    spans = [(cell, a, b) for cell, c in enumerate(cuts) for a, b in zip(c[:-1], c[1:])]
    for cell, _, _ in spans:
        count[cell] += _GK21_NODES.size
    spans = [span for span in spans if count[span[0]] <= budget]
    panels = []
    if spans:
        owners, lo, hi = (np.array(column) for column in zip(*spans))
        ig, err, rnd = _gk21(lo, hi, owners, integrand)
        panels = [_Panel(cell, a, b, ig[i], err[i], rnd[i]) for i, (cell, a, b) in enumerate(spans)]
    active = panels
    while active:
        rounds = [(panel, panel.pop_round(epsrel)) for panel in active]
        for panel, popped in rounds:
            count[panel.cell] += 2 * _GK21_NODES.size * len(popped)
        rounds = [(panel, popped) for panel, popped in rounds if count[panel.cell] <= budget]
        if not rounds:
            break
        halves = []
        owners = []
        for panel, popped in rounds:
            for _, a, b, _ in popped:
                c = 0.5 * (a + b)
                halves += ((a, c), (c, b))
                owners += (panel.cell, panel.cell)
        lo, hi = np.array(halves).T
        s, err, rnd = _gk21(lo, hi, np.array(owners), integrand)
        k = 0
        for panel, popped in rounds:
            for old_err, _, _, old_int in popped:
                panel.integral += s[k] + s[k + 1] - old_int
                panel.error += err[k] + err[k + 1] - old_err
                panel.rounding += rnd[k] + rnd[k + 1]
                for j in (k, k + 1):
                    x1, x2 = halves[j]
                    heapq.heappush(panel.heap, (-err[j], x1, x2, s[j]))
                k += 2
        active = [panel for panel, _ in rounds if panel.running(epsrel)]
    results = [[] if n <= budget else None for n in count]
    for panel in panels:
        if results[panel.cell] is not None:
            results[panel.cell].append((panel.integral, panel.error + panel.rounding))
    return count, results


# The angular moments in closed form. With s(mu) = 1/(2a^2) + beta mu^2,
# beta = 1/(2c^2) - 1/(2a^2) and q = beta x^2, the moments are
# m0 = 2 e^{-x^2/(2a^2)} I0(q) and m2 = 2 e^{-x^2/(2a^2)} I2(q), where
# I0 = int_0^1 e^{-q mu^2} dmu and I2 = int_0^1 P2(mu) e^{-q mu^2} dmu
# (DLMF 7.2, 7.6, 7.12). Each band of q has its own form: the power series
# for |q| <= 3 and for cigars up to -q = 40, erf for pancakes, and Dawson's
# asymptotic series beyond, with e^{-q} folded into the envelope. Every sum
# has a fixed term count per band, so a node's value never depends on the
# other nodes of its batch.
_SERIES_Q = 3.0
_CIGAR_SERIES_Q = 40.0


def _power_series(terms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponents n and the coefficients of z^n in I0 and I2 at z = -q:
    1/(n! (2n+1)) and 2n/(n! (2n+1)(2n+3)); the latter vanishes at n = 0, so
    I2 does not cancel as q -> 0."""
    n = range(terms)
    i0 = np.array([1 / (math.factorial(k) * (2 * k + 1)) for k in n])
    i2 = np.array([2 * k / (math.factorial(k) * (2 * k + 1) * (2 * k + 3)) for k in n])
    return np.arange(terms), i0, i2


_SMALL_SERIES = _power_series(32)
_CIGAR_SERIES = _power_series(110)
# Dawson's integral F(y) ~ 1/(2y) sum (2k-1)!!/(2y^2)^k, so at p = -q = y^2,
# e^{-p} I0 = F(y)/y ~ sum (2k-1)!! t^(k+1) with t = 1/(2p). At p = 40 the
# 40th term is the smallest, 6e-18 of the first.
_DAWSON_POWERS = np.arange(1, 41)
_DAWSON_COEFFS = np.array([float(math.prod(range(1, 2 * k, 2))) for k in range(40)])


def _row_sums(z: np.ndarray, powers: np.ndarray, *coefficients: np.ndarray) -> list[np.ndarray]:
    """sum_n coefficients[n] z^n per node, one row of the power table each."""
    table = z[:, None] ** powers
    return [np.sum(table * row, axis=1) for row in coefficients]


def _angular_moments(x: np.ndarray, a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m0(x) and m2(x): the integrals over mu = cos(theta) in [-1, 1] of
    exp(-x^2 s(mu)) and P2(mu) exp(-x^2 s(mu)), where
    s(mu) = (1 - mu^2)/(2a^2) + mu^2/(2c^2) is the relative Gaussian's
    exponent per x^2, with each node's own a = sigma_perp and c = sigma_par
    (arrays shaped like x, or scalars)."""
    xx = x * x
    q = (0.5 / (c * c) - 0.5 / (a * a)) * xx
    i0 = np.empty_like(x)
    i2 = np.empty_like(x)
    small = np.abs(q) <= _SERIES_Q
    pancake = q > _SERIES_Q
    cigar = (q < -_SERIES_Q) & (q >= -_CIGAR_SERIES_Q)
    # the rest, nan included, so that a nan never reads unset memory
    far = ~(small | pancake | cigar)

    for band, series in ((small, _SMALL_SERIES), (cigar, _CIGAR_SERIES)):
        i0[band], i2[band] = _row_sums(-q[band], *series)

    qp = q[pancake]
    root = np.sqrt(qp)
    i0_p = (0.5 * math.sqrt(math.pi)) * np.array([math.erf(r) for r in root]) / root
    # int_0^1 mu^2 e^{-q mu^2} dmu = (I0 - e^{-q}) / (2q), by parts
    i0[pancake] = i0_p
    i2[pancake] = 0.75 * (i0_p - np.exp(-qp)) / qp - 0.5 * i0_p

    # here I0 and I2 carry the factor e^{-p}, which turns the envelope
    # e^{-x^2/(2a^2)} into e^{-x^2/(2c^2)}
    t = -0.5 / q[far]
    (i0_f,) = _row_sums(t, _DAWSON_POWERS, _DAWSON_COEFFS)
    i0[far] = i0_f
    i2[far] = 1.5 * t * (1.0 - i0_f) - 0.5 * i0_f

    envelope = np.exp(-xx / (2.0 * np.where(far, c * c, a * a)))
    return 2.0 * envelope * i0, 2.0 * envelope * i2


# nodes per integrand block: bounds the temporaries of a large batch. It is
# 195 GK21 intervals, so a block of the radial loop is never a single node;
# perfbench reads the single-node radial_parts calls as mean_fg's head term
_NODE_BLOCK = 195 * 21


# the widest panel [0.1 * min(eta), scale] left without decade cuts
_DECADE_CUTS_SPAN = 1e10


def _cuts(geom: TrapGeometry) -> list[float]:
    """The radial panel boundaries of mean_fg, from x_lo to the upper cutoff.

    Interior cuts sit at 0.1 * min(eta), the Gaussian scale radius and
    kr = 10. Decade rule: where the scale radius exceeds _DECADE_CUTS_SPAN
    times 0.1 * min(eta) (aspects past ~5e8 for a pancake, ~7e8 for a
    cigar), a cut is added at 10 * min(sigma) and at every decade above it
    below the scale radius. Without them the GK21 nodes of that one wide
    panel never reach kr ~ min(sigma), where the narrow axis puts its
    weight, and from aspect ~1e10 on its first pass accepts a value ~1000
    times too small. Narrower geometries keep their cuts and their bits.
    """
    a, c_ax = geom.sigma_perp, geom.sigma_par
    eta_min = min(geom.eta_perp, geom.eta_par)
    x_lo = 1e-4 * eta_min
    scale = math.sqrt(2.0 * a * a + c_ax * c_ax)
    x_hi = max(14.0 * max(a, c_ax), 2.0 * scale)
    points = {0.1 * eta_min, scale, 10.0}
    if scale / (0.1 * eta_min) > _DECADE_CUTS_SPAN:
        decade = 10.0 * min(a, c_ax)
        while decade < scale:
            points.add(decade)
            decade *= 10.0
    interior = sorted(p for p in points if x_lo < p < x_hi)
    return [x_lo, *interior, x_hi]


def _mean_fg_many(
    geoms: list[TrapGeometry], quad_spec: QuadratureSpec
) -> list[DipoleExpectation | ConvergenceError]:
    """mean_fg of each geometry, or the ConvergenceError it raises.

    The radial panels of all cells run in one _adaptive_gk21 lockstep, so
    each round's nodes from every cell go to one integrand call. Each cell
    keeps its own panels, node count, evaluation budget and checks; its head
    term is its last panel, one node that the lockstep's budget of
    eval_budget - 1 leaves room for. Every node's value depends on that node
    alone, so a cell's result is bit-identical to the one it gets alone.
    """
    sigma_perp = np.array([geom.sigma_perp for geom in geoms])
    sigma_par = np.array([geom.sigma_par for geom in geoms])
    cuts = [_cuts(geom) for geom in geoms]

    def integrand(x: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """x^2-weighted (f, g) angular averages at the radii x, shape (x.size, 2)."""
        values = np.empty((x.size, 2))
        for start in range(0, x.size, _NODE_BLOCK):
            block = slice(start, start + _NODE_BLOCK)
            xb, owner = x[block], cell[block]
            f_mono, f_tensor, g_mono, g_tensor = radial_parts(xb)
            m0, m2 = _angular_moments(xb, sigma_perp[owner], sigma_par[owner])
            xx = xb * xb
            values[block, 0] = xx * (f_mono * m0 + f_tensor * m2)
            values[block, 1] = xx * (g_mono * m0 + g_tensor * m2)
        return values

    # an overflowing kernel or density fails the non-finite check of
    # _expectation, which is the one report of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        counts, panel_sets = _adaptive_gk21(integrand, cuts, quad_spec.rel_tol, quad_spec.eval_budget - 1)
        # F(x) is linear in x at the origin (the angular average kills the
        # 1/x^3 and 1/x pieces), so the [0, x_lo] head is F(x_lo)*x_lo/2, one
        # node and a last panel with no error for each cell that finished
        done = [cell for cell, panels in enumerate(panel_sets) if panels is not None]
        x_lo = np.array([cuts[cell][0] for cell in done])
        for cell, head in zip(done, integrand(x_lo, np.array(done)) * (0.5 * x_lo)[:, None]):
            panel_sets[cell].append((head, 0.0))
        return [
            ConvergenceError(f"evaluation budget {quad_spec.eval_budget} exhausted for {geom}")
            if panels is None
            else _expectation(geom, panels, counts[cell] + 1, quad_spec)
            for cell, (geom, panels) in enumerate(zip(geoms, panel_sets))
        ]


def _expectation(
    geom: TrapGeometry,
    panels: list[tuple[np.ndarray, float]],
    count: int,
    quad_spec: QuadratureSpec,
) -> DipoleExpectation | ConvergenceError:
    """One cell's <f>, <g> from its panels, the head term last, or the
    ConvergenceError of its non-finite or achieved-error check."""
    total = np.zeros(2)
    err_sum = 0.0
    sum_abs = np.zeros(2)
    for value, err in panels:
        total += value
        err_sum += err
        sum_abs += np.abs(value)

    # the azimuth's 2 pi times the density prefactor (2 pi)^(-3/2) / (a^2 c)
    prefactor = 2.0 * math.pi * ((2.0 * math.pi) ** -1.5 / (geom.sigma_perp**2 * geom.sigma_par))
    mean = prefactor * total
    err_abs = prefactor * err_sum
    # a silent bad value is worse than a loud failure
    if not (np.all(np.isfinite(mean)) and math.isfinite(err_abs)):
        return ConvergenceError(f"non-finite quadrature result for {geom} after {count} evaluations")
    result = DipoleExpectation(
        mean_f=float(mean[0]),
        mean_g=float(mean[1]),
        err_f=float(err_abs),
        err_g=float(err_abs),
        evaluations=count,
    )
    # achieved-error check; err_abs bounds the max-norm error of the (f, g)
    # vector, so it is compared against the larger component's
    # cancellation-aware scale.
    tolerance = 10.0 * quad_spec.rel_tol * max(float(np.max(prefactor * sum_abs)), 1e-9)
    if err_abs > tolerance:
        return ConvergenceError(
            f"quadrature error {err_abs:.3e} above tolerance for {geom} "
            f"after {count} evaluations",
            partial=result,
        )
    return result


def mean_fg(geom: TrapGeometry, quad_spec: QuadratureSpec = QuadratureSpec()) -> DipoleExpectation:
    """Deterministic quadrature of f and g against the relative Gaussian.

    Angular moments m0(x) = <exp(-x^2 s(mu))> and m2(x) = <P2(mu) ...> are
    exact at each radius (_angular_moments), then the radial integrals of
    x^2 (f_mono m0 + f_tensor m2) etc. run on adaptive Gauss-Kronrod panels
    split at 0.1*min(eta), the Gaussian scale radius, and kr = 10, plus, past
    aspect ~5e8, every decade from 10*min(sigma) up to the scale radius (the
    decade rule of _cuts), so the narrow axis is resolved at any aspect. The
    upper cutoff is 14 relative-coordinate sigmas of the *widest* axis (the wide
    axis dominates the tail for pancake geometries). This is _mean_fg_many
    on a batch of one; a geometry gets the same bits alone or in a batch.
    """
    (result,) = _mean_fg_many([geom], quad_spec)
    if isinstance(result, ConvergenceError):
        raise result
    return result


# Monte Carlo samples per chunk, whatever the CPU count. 2^13 ran ~25% slower
# on 2 CPUs; a worker's scratch is ten arrays of a chunk, 1.3 MB at 2^14
_MC_CHUNK = 1 << 14
# chunks in flight at once: their scratch, ~2.6 MB in all, stays under the
# 4e6 B bound on a call's peak memory
_MC_WORKERS = 2
# a bound on the rounding of the control constant 2 * kappa_approx, in ulps
# of itself. Against 50-digit mpmath the closed form is off by at most 165
# ulps on cigars (aspects 1e3 to 1e8, where its bracket cancels) and 52 on
# pancakes past aspect 1.3. Within aspect 1.3 of isotropy it is off by up
# to 2e4 ulps, about 1e-12 of the constant, far below the sampling error
_CONTROL_ULPS = 256


def _chunk_moments(values: np.ndarray) -> tuple[int, float, float, float]:
    # (count, sum, sum of the deviations from the chunk's mean, sum of their
    # squares), with the deviations written over values
    total = np.add.reduce(values)
    np.subtract(values, total / values.size, out=values)
    deviation = np.add.reduce(values)
    np.multiply(values, values, out=values)
    return values.size, float(total), float(deviation), float(np.add.reduce(values))


def _pooled_mean_and_std(moments: list) -> tuple[float, float]:
    """The mean and std(ddof=1) of the values whose chunks have the
    _chunk_moments given, or nan where a moment or the pooling overflows.

    Corrected two-pass pooling (Chan, Golub & LeVeque, Am. Stat. 37, 242
    (1983)): with m the mean and m_k = sum_k / n_k, the squared deviations
    sum to the exact sum over chunks of M2_k + 2 (m_k - m) D_k + n_k (m_k -
    m)^2. D_k, the deviations' own sum, takes out the rounding of m_k, which
    without it costs ~1e5 ulps of the deviation at an offset of 1e8 sigma.
    Each sum is taken by math.fsum in chunk order.
    """
    count = sum(n for n, _, _, _ in moments)
    terms = []
    try:
        mean = math.fsum(total for _, total, _, _ in moments) / count
        for n, total, deviation, squares in moments:
            shift = total / n - mean
            terms += (squares, 2.0 * shift * deviation, n * shift * shift)
        return mean, math.sqrt(math.fsum(terms) / (count - 1))
    except (OverflowError, ValueError):  # fsum's overflow or inf - inf
        return math.nan, math.nan


def _evaluate_mc_chunk(rng, rho_scale, sigma_par, scratch) -> tuple[tuple, tuple]:
    # draws one chunk of samples from rng into the ten rows of scratch and
    # returns the _chunk_moments of their residuals and of their g values
    r, z, p = scratch[:3]
    rng.standard_exponential(out=r)
    rng.standard_normal(out=z)
    # r = sqrt(rho^2 + z^2) with rho^2 = x^2 + y^2 = 2 sigma_perp^2 E
    np.multiply(r, rho_scale, out=r)
    np.multiply(z, sigma_par, out=z)
    np.multiply(z, z, out=p)
    np.add(r, p, out=r)
    np.sqrt(r, out=r)
    np.maximum(r, 1e-300, out=r)
    # p2 = 0.5 * (3 mu^2 - 1) with mu = z / r, in that order of operations
    np.divide(z, r, out=z)
    np.multiply(z, 3.0, out=p)
    np.multiply(p, z, out=p)
    np.subtract(p, 1.0, out=p)
    np.multiply(p, 0.5, out=p)

    f_mono, f_tensor, g_mono, g_tensor = radial_parts(r, out=scratch[3:])
    # residual = (f_mono + p2 f_tensor) - 3 p2 / r^3
    np.multiply(p, f_tensor, out=f_tensor)
    np.add(f_mono, f_tensor, out=f_mono)
    np.power(r, 3, out=z)
    np.multiply(p, 3.0, out=f_tensor)
    np.divide(f_tensor, z, out=f_tensor)
    np.subtract(f_mono, f_tensor, out=f_mono)
    np.multiply(p, g_tensor, out=g_tensor)
    np.add(g_mono, g_tensor, out=g_mono)
    return _chunk_moments(f_mono), _chunk_moments(g_mono)


def mc_oracle(geom: TrapGeometry, samples: int, seed: int) -> DipoleExpectation:
    """Monte Carlo estimate of <f>, <g> with honest standard errors.

    Draws the relative coordinate from its Gaussian directly, with two
    variates per sample: rho^2 = x^2 + y^2 is 2 sigma_perp^2 times a
    standard exponential, and z is sigma_par times a standard normal. The
    raw sample mean of f has infinite variance (f ~ 3 P2/(kr)^3 near the
    origin against a finite density), so the near-field tensor term
    3 P2/(kr)^3 is subtracted sample-wise and its exact average,
    2 * kappa_approx (see kappa_approx), added back; the residual is ~1/(kr)
    near the origin and has finite variance.

    Chunk k holds the _MC_CHUNK = 2^14 samples from k * _MC_CHUNK on (the
    last chunk the rest) and draws them from default_rng([seed, k]): all its
    exponentials, then all its normals. _threads._fan_out deals the chunks
    to one thread per available CPU, at most _MC_WORKERS = 2 and no more
    than chunks. Each worker has one set of ten chunk-sized scratch arrays
    for the call, which the chunks it runs share, and radial_parts works in
    seven of them, so a call holds O(workers x chunk) memory and no chunk
    allocates its arrays. The
    scratch is there for speed, measured at 10^6 samples on a 2-CPU host:
    the same steps as plain numpy expressions, a fresh temporary each, kept
    every bit but ran slower in 8 of 8 alternating fresh-process pairs
    (57 -> 82 ms, median of the per-process medians); allocating each
    chunk's arrays, with radial_parts given no out=, kept every bit and
    took the tracemalloc peak from 3.15 to 2.85 MB, but ran slower in 6 of
    6 such pairs (48 -> 59 ms). A chunk reduces its
    residuals and its g values to _chunk_moments, and the calling thread
    pools them in chunk order (_pooled_mean_and_std). A chunk's samples
    depend on (seed, k) alone, every later step is elementwise or within
    the chunk, and the pooling runs in chunk order, so the result has the
    same bits for any number of threads. A chunk's exception stops the
    other threads between chunks and is re-raised.

    err_f is the standard error of the residual's mean combined in
    quadrature with the rounding of the control constant, bounded by
    _CONTROL_ULPS ulps of it; err_g is the standard error of g's mean. A
    non-finite mean or error (widths so small that the residual cancels
    beyond double precision) raises ConvergenceError.
    """
    _require_int(10_000, math.inf, "its standard errors need at least 10^4 samples", samples=samples)
    _require_int(0, seed=seed)
    rho_scale = 2.0 * geom.sigma_perp**2
    chunks = -(-samples // _MC_CHUNK)
    workers = min(_available_cpus(), _MC_WORKERS, chunks)
    scratch = [np.empty((10, min(_MC_CHUNK, samples))) for _ in range(workers)]

    def chunk(k: int, w: int) -> tuple[tuple, tuple]:
        size = min(_MC_CHUNK, samples - k * _MC_CHUNK)
        # numpy's error state is per thread. An overflow becomes a
        # non-finite estimate, reported below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _evaluate_mc_chunk(np.random.default_rng([seed, k]), rho_scale, geom.sigma_par,
                                      scratch[w][:, :size])

    moments = _fan_out(workers, chunks, chunk)
    root_n = math.sqrt(samples)
    control = 2.0 * _kappa_approx_values(geom.eta_perp, geom.eta_par)
    residual_mean, residual_std = _pooled_mean_and_std([f for f, _ in moments])
    mean_f = residual_mean + control
    err_f = math.hypot(residual_std / root_n, _CONTROL_ULPS * math.ulp(control))
    mean_g, g_std = _pooled_mean_and_std([g for _, g in moments])
    err_g = g_std / root_n
    if not all(map(math.isfinite, (mean_f, err_f, mean_g, err_g))):
        raise ConvergenceError(f"non-finite Monte Carlo estimate for {geom} from {samples} samples")
    return DipoleExpectation(mean_f, mean_g, err_f, err_g, int(samples))


def kappa(geom: TrapGeometry, quad_spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Figure of merit -<f>/(1 + <g>); propagates non-convergence."""
    return mean_fg(geom, quad_spec).kappa


def _kappa_approx_values(eta_perp: float, eta_par: float) -> float:
    # kappa_approx for any positive pair, so that the ratio optimizer can
    # probe eta_par beyond 1
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
        if v == 1.0:
            # past ratio ~ 6.7e7 v rounds to 1 and atanh(1/v) overflows; the
            # bracket's large-ratio expansion is exact to O(ln(ratio)/ratio^4)
            bracket = 1.0 + 3.0 * (1.0 - math.log(2.0 * ratio)) / (ratio * ratio)
        else:
            bracket = -2.0 + 3.0 * v * v - 3.0 * (v**3 - v) * math.atanh(1.0 / v)
    prefactor = 1.0 / (8.0 * math.sqrt(math.pi) * eta_perp**2 * eta_par)
    return prefactor * bracket


def kappa_approx(geom: TrapGeometry) -> float:
    """Retardation-free closed form for the figure of merit.

    Equals (3/2) <P2(cos theta)/(kr)^3> exactly: the pure near-field tensor
    average with the cooperative linewidth taken at full strength. Twice it
    is the average of f's near-field term 3 P2/(kr)^3, the control constant
    of mc_oracle; the tests check it against direct nested quadrature. Note
    the overall sign is opposite to kappa() at attractive-geometry points
    (e.g. +16.9 vs -19.3 at eta = (0.1, 0.2)); the closed form is kept
    exactly as conventionally printed and cross-checks compare magnitudes.
    Analytic continuation across the isotropic point: arctan branch for
    pancake (eta_par < eta_perp), artanh for cigar (its large-aspect
    expansion past aspect 6.7e7), a series where they meet; the isotropic
    value is exactly 0.
    """
    return _kappa_approx_values(geom.eta_perp, geom.eta_par)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_ratio(eta_perp: float) -> tuple[float, float]:
    """Maximize |kappa_approx| over the aspect ratio eta_par/eta_perp in [1.01, 10].

    Golden-section search to relative tolerance 1e-4 on the ratio, on the
    closed form, so the optimum ratio does not depend on eta_perp. Returns
    (ratio_star, kappa_approx at the optimum, signed). eta_perp lies in
    [1e-98, 0.5]; the lower end is TrapGeometry's, and below ~1e-103
    kappa_approx, which grows as eta_perp**-3, is no longer a finite double.
    """
    _require("optimize_ratio_eta", eta_perp=eta_perp)

    def signed(ratio: float) -> float:
        return _kappa_approx_values(eta_perp, ratio * eta_perp)

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


# map cells per _mean_fg_many batch: enough to fill the integrand's node
# blocks, few enough to keep a map's peak memory flat in its size
_MAP_CHUNK = 128


def kappa_map(
    eta_perp_grid,
    eta_par_grid,
    quad_spec: QuadratureSpec = QuadratureSpec(),
    jobs: int = 1,
) -> np.ndarray:
    """kappa on the outer product of two ascending eta grids.

    Returns shape (len(eta_perp_grid), len(eta_par_grid)); rows scan
    eta_perp. Cells that fail to converge are nan, not fatal. The cells run
    in contiguous chunks of at most _MAP_CHUNK, each chunk one lockstep
    quadrature (_mean_fg_many), which _threads._fan_out deals to at most
    jobs threads, no more than the available CPUs or the cells; the chunks
    are cut small enough that every thread gets one. jobs = 1 runs them on
    the calling thread. Every cell's TrapGeometry is built, and so checked,
    before any chunk runs. A cell's value is the bits kappa() gives it
    alone, so the output does not depend on the chunking, the thread count
    or the scheduling. A chunk's exception is re-raised here.
    """
    perp = np.asarray(eta_perp_grid, dtype=float)
    par = np.asarray(eta_par_grid, dtype=float)
    for name, grid in (("eta_perp_grid", perp), ("eta_par_grid", par)):
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError(f"{name} must be a nonempty 1D grid")
        if np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    cells = [TrapGeometry(ep, el) for ep in perp.tolist() for el in par.tolist()]
    _require_int(1, jobs=jobs)

    workers = min(jobs, _available_cpus(), len(cells))
    size = min(_MAP_CHUNK, math.ceil(len(cells) / workers))
    batches = [cells[i : i + size] for i in range(0, len(cells), size)]
    chunks = _fan_out(workers, len(batches), lambda k, _: _mean_fg_many(batches[k], quad_spec))
    values = [math.nan if isinstance(r, ConvergenceError) else r.kappa for chunk in chunks for r in chunk]
    return np.array(values, dtype=float).reshape(perp.size, par.size)
