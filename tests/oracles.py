"""Independent reference routes used by the tests.

Everything here deliberately avoids the production code paths: special
functions come from mpmath/scipy.special, angular-momentum algebra from
sympy, and averages from generic adaptive integration, so agreement is a
genuine cross-check rather than the same bug evaluated twice. Three
exceptions are not references: spherical_bessel_pair re-labels the
production radial pieces as (j_n, y_n) so the tests can hold them against
mp_spherical_pair; fg assembles the production pieces into the pointwise
(f, g) pair so the tests can hold it against kernel_f/kernel_g; and
quad_vec_mean_fg, whose subject is the radial integration loop only, feeds
the production radial pieces and angular moments (overlap._angular_moments),
one node per call, to scipy's quad_vec on the production panel cuts
(overlap._cuts). one_shot_fill draws every well of a lattice fill on its own,
the per-well law whose site counts ensemble.simulate_fill draws as one
multinomial, so the tests can hold the two against the same distribution.
one_shot_readout, whose subject is the arithmetic of the ensemble readout,
is that readout as ensemble.py computed it in numpy arrays throughout, the
same draws and the same operations; it is a bit reference for the Python
int and float path, not an independent one.
one_shot_mc_oracle, whose subject is the chunking and thread split of
mc_oracle, draws its samples on one thread, one stream per fixed-size chunk
of samples, and evaluates the production closed form on the full arrays. It
takes its radial pieces from frozen_radial_parts, a verbatim copy of the
production kernel from before it worked in place, so a change of the
kernel's bits fails its hex tests too.
Its means and deviations are pooled from each chunk's moments in chunk
order (pooled_mean_and_std), the arithmetic mc_oracle uses, so they are not
an independent reference; the tests hold that pooling, here and in
overlap, to numpy's full-array mean and std.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate
from scipy.constants import hbar
from scipy.linalg import expm
from scipy.special import spherical_jn, spherical_yn
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from latticegate.dipole_kernel import _SERIES_CROSSOVER, radial_parts
from latticegate.overlap import ConvergenceError, DipoleExpectation, _angular_moments, _cuts, kappa_approx

mpmath.mp.dps = 40


def mp_spherical_pair(n: int, x: float) -> tuple[float, float]:
    """(j_n, y_n) at 40 significant digits via half-integer cylinder Bessels."""
    xm = mpmath.mpf(x)
    factor = mpmath.sqrt(mpmath.pi / (2 * xm))
    j = factor * mpmath.besselj(n + mpmath.mpf("0.5"), xm)
    y = factor * mpmath.bessely(n + mpmath.mpf("0.5"), xm)
    return float(j), float(y)


def radial_parts_at(x: float) -> tuple[float, float, float, float]:
    """The production radial pieces at one radius, as floats."""
    return tuple(float(part[0]) for part in radial_parts(np.array([x])))


def spherical_bessel_pair(n: int, x: float) -> tuple[float, float]:
    """(j_n(x), y_n(x)) for n in {0, 1, 2}, x > 0, from the production kernel.

    n = 0 and n = 2 are the pieces of radial_parts; n = 1 has its own closed
    form, with frozen_j_series(1, x), the 12-term series, for j1 below the
    kernel's crossover x = 0.25 (y1, like every y_n form, has no small-x
    cancellation). Relative accuracy better than 1e-10 over x in [1e-6, 1e3].
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x!r}")
    if n not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1, or 2, got {n!r}")
    if n == 1:
        s, c = math.sin(x), math.cos(x)
        inv = 1.0 / x
        inv2 = inv * inv
        y1 = -c * inv2 - s * inv
        j1 = frozen_j_series(1, x) if x < _SERIES_CROSSOVER else s * inv2 - c * inv
        return j1, y1
    f_mono, f_tensor, g_mono, g_tensor = radial_parts_at(x)
    return (g_mono, -f_mono) if n == 0 else (g_tensor, -f_tensor)


def sympy_cg(f: float, m_f: float, q: int, f_prime: float) -> float:
    """<f m_f; 1 q | f' m_f+q> by symbolic evaluation."""
    val = CG(
        Rational(f).limit_denominator(2),
        Rational(m_f).limit_denominator(2),
        S(1),
        S(q),
        Rational(f_prime).limit_denominator(2),
        Rational(m_f + q).limit_denominator(2),
    ).doit()
    return float(val)


@dataclass(frozen=True)
class RelativePosition:
    """Dimensionless separation kr > 0 and cos of the angle to the dipole axis."""

    kr: float
    cos_theta: float

    def __post_init__(self) -> None:
        if not self.kr > 0:
            raise ValueError(f"kr must be positive, got {self.kr!r}")
        if abs(self.cos_theta) > 1.0:
            raise ValueError(f"|cos_theta| <= 1 required, got {self.cos_theta!r}")


def fg(pos: RelativePosition) -> tuple[float, float]:
    """(f, g) at one relative position, from the production radial pieces."""
    f_mono, f_tensor, g_mono, g_tensor = radial_parts_at(pos.kr)
    p2 = 0.5 * (3.0 * pos.cos_theta * pos.cos_theta - 1.0)
    return f_mono + p2 * f_tensor, g_mono + p2 * g_tensor


def kernel_f(x: float, mu: float) -> float:
    """Interaction functions straight from scipy.special."""
    p2 = 0.5 * (3.0 * mu * mu - 1.0)
    return -spherical_yn(0, x) - p2 * spherical_yn(2, x)


def kernel_g(x: float, mu: float) -> float:
    p2 = 0.5 * (3.0 * mu * mu - 1.0)
    return spherical_jn(0, x) + p2 * spherical_jn(2, x)


# fg_smallkr_asymptote is only meaningful where the 1/(kr)^3 term dominates
NEAR_FIELD_WINDOW = 0.05


def fg_smallkr_asymptote(pos: RelativePosition) -> tuple[float, float]:
    """Leading near-field pair (+3 P2/(kr)^3, 1) at a RelativePosition.

    Valid (and accepted) only for kr < 0.05 where the tensor term dominates
    f to within a few percent and g is unity to 1e-3.
    """
    if not pos.kr < NEAR_FIELD_WINDOW:
        raise ValueError(
            f"fg_smallkr_asymptote needs kr < {NEAR_FIELD_WINDOW}, got {pos.kr!r}"
        )
    p2 = 0.5 * (3.0 * pos.cos_theta**2 - 1.0)
    return 3.0 * p2 / pos.kr**3, 1.0


def iso_mean_fg_1d(eta: float) -> tuple[float, float]:
    """Isotropic-trap averages by plain 1D radial quadrature.

    With equal widths the angular moment of P2 vanishes, leaving radial
    integrals of the monopole terms against the relative Gaussian.
    """
    sigma = math.sqrt(2.0) * eta
    norm = (2.0 * math.pi) ** -1.5 / sigma**3

    def radial(which):
        def integrand(x):
            weight = 4.0 * math.pi * norm * x * x * math.exp(-(x * x) / (2.0 * sigma**2))
            return weight * which(x)

        value, _ = integrate.quad(integrand, 1e-8, 20.0 * sigma, limit=300,
                                  epsabs=1e-13, epsrel=1e-12)
        return value

    mean_f = radial(lambda x: -spherical_yn(0, x))
    mean_g = radial(lambda x: spherical_jn(0, x))
    return mean_f, mean_g


def static_tensor_mean_2d(eta_perp: float, eta_par: float) -> float:
    """<P2(cos theta) / x^3> by direct nested quadrature, no closed forms."""
    a = math.sqrt(2.0) * eta_perp
    c = math.sqrt(2.0) * eta_par
    norm = (2.0 * math.pi) ** -1.5 / (a * a * c)

    def angular_moment(x):
        def f(mu):
            p2 = 0.5 * (3.0 * mu * mu - 1.0)
            s = (1.0 - mu * mu) / (2.0 * a * a) + mu * mu / (2.0 * c * c)
            return p2 * math.exp(-(x * x) * s)

        value, _ = integrate.quad(f, -1.0, 1.0, limit=200, epsabs=1e-14, epsrel=1e-13)
        return value

    def radial(x):
        # P2/x^3 against x^2 * density: the angular moment supplies x^2
        # suppression at the origin, leaving an integrable 1/x head
        return 2.0 * math.pi * norm * angular_moment(x) / x

    upper = 12.0 * max(a, c)
    value, _ = integrate.quad(radial, 1e-10, upper, limit=400, epsabs=1e-13, epsrel=1e-11)
    return value


def mp_kappa_approx(eta_perp: float, eta_par: float) -> mpmath.mpf:
    """kappa_approx on the branches of overlap._kappa_approx_values, in
    mpmath at twice the working precision, which absorbs the closed forms'
    cancellation near the isotropic point and at large aspect (no expansion
    past aspect 6.7e7): the series in w = 1 - 1/ratio^2 for |w| < 0.02, else
    (-2 - 3 u^2 + 3 (u^3 + u) arctan(1/u)) / (8 sqrt(pi) eta_perp^2 eta_par)
    with u = ratio / sqrt(1 - ratio^2) for a pancake and
    (-2 + 3 v^2 - 3 (v^3 - v) artanh(1/v)) / (8 sqrt(pi) eta_perp^2 eta_par)
    with v = ratio / sqrt(ratio^2 - 1) for a cigar, ratio = eta_par / eta_perp."""
    with mpmath.workdps(2 * mpmath.mp.dps):
        a, c = mpmath.mpf(eta_perp), mpmath.mpf(eta_par)
        ratio = c / a
        w = 1 - 1 / (ratio * ratio)
        if abs(w) < mpmath.mpf("0.02"):
            bracket = mpmath.nsum(lambda m: 6 * w**m / ((2 * m + 1) * (2 * m + 3)), [1, mpmath.inf])
        elif ratio < 1:
            u = ratio / mpmath.sqrt(1 - ratio * ratio)
            bracket = -2 - 3 * u * u + 3 * (u**3 + u) * mpmath.atan(1 / u)
        else:
            v = ratio / mpmath.sqrt(ratio * ratio - 1)
            bracket = -2 + 3 * v * v - 3 * (v**3 - v) * mpmath.atanh(1 / v)
        return bracket / (8 * mpmath.sqrt(mpmath.pi) * a * a * c)


def retardation_coefficient(aspect: float) -> float:
    """C(aspect) = lim dev / eta_perp^2 as eta_perp -> 0 at fixed aspect =
    eta_par / eta_perp, where dev = |kappa| / |kappa_approx| - 1.

    The small-s expansion of mp_mean_fg's form: 1/(2 sqrt(s)) - F(sqrt(s))
    tends to 1/(2 sqrt(s)) and e^{-s} to 1 - s, so <f> = 2 kappa_a + P and
    1 + <g> = 2 - Q to the first order, with
    P = (3/sqrt(pi)) int_0^1 (1 - mu^2) / (2 sqrt(s)) dmu and
    Q = (3/2) int_0^1 (1 - mu^2) s dmu = (4 eta_perp^2 + eta_par^2) / 5, so
    C = [P / (2 kappa_a) + Q / 2] / eta_perp^2. Each term is eta_perp^2
    times a function of the aspect alone, so it is evaluated at eta_perp = 1.
    Not defined at the isotropic point, where kappa_a = 0.
    """
    a2, c2 = mpmath.mpf(2), 2 * mpmath.mpf(aspect) ** 2
    p = 3 / mpmath.sqrt(mpmath.pi) * mpmath.quad(
        lambda mu: (1 - mu * mu) / (2 * mpmath.sqrt((a2 * (1 - mu * mu) + c2 * mu * mu) / 2)),
        [0, mpmath.sqrt(a2 / (a2 + c2)), 1],
    )
    q = (4 + mpmath.mpf(aspect) ** 2) / 5
    return float(p / (2 * mp_kappa_approx(1.0, aspect)) + q / 2)


def mp_angular_moments(x: float, a: float, c: float) -> tuple[float, float]:
    """The two angular moments of overlap._angular_moments at 40 digits:
    2 e^{-x^2/(2a^2)} times int_0^1 e^{-q mu^2} dmu and int_0^1 P2(mu)
    e^{-q mu^2} dmu, q = (1/(2c^2) - 1/(2a^2)) x^2, from mpmath erf (q > 0)
    or erfi (q < 0) and int_0^1 mu^2 e^{-q mu^2} dmu = (I0 - e^{-q})/(2q)."""
    x, a, c = (mpmath.mpf(v) for v in (x, a, c))
    q = (1 / (2 * c * c) - 1 / (2 * a * a)) * x * x
    if q == 0:
        i0, j2 = mpmath.mpf(1), mpmath.mpf(1) / 3
    else:
        root = mpmath.sqrt(abs(q))
        i0 = mpmath.sqrt(mpmath.pi) * (mpmath.erf(root) if q > 0 else mpmath.erfi(root)) / (2 * root)
        j2 = (i0 - mpmath.exp(-q)) / (2 * q)
    envelope = 2 * mpmath.exp(-x * x / (2 * a * a))
    return float(envelope * i0), float(envelope * (3 * j2 - i0) / 2)


def quad_vec_panels(integrand, cuts: list[float], epsrel: float) -> list[tuple[np.ndarray, float]]:
    """(integral, error) of a scalar-argument integrand on each panel
    [cuts[i], cuts[i+1]], by scipy's quad_vec with mean_fg's settings."""
    return [
        integrate.quad_vec(integrand, lo, hi, epsabs=1e-12, epsrel=epsrel, norm="max",
                           limit=200, quadrature="gk21")
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def quad_vec_mean_fg(geom, quad_spec) -> DipoleExpectation:
    """overlap.mean_fg as it ran on scipy.integrate.quad_vec, one node per call.

    Same angular moments, panel cuts, small-kr head, budget and
    achieved-error checks as production; only the radial loop differs. The
    production port must reproduce every returned and raised value bit for
    bit.
    """
    a, c_ax = geom.sigma_perp, geom.sigma_par
    count = 0

    def integrand(x: float) -> np.ndarray:
        nonlocal count
        count += 1
        if count > quad_spec.eval_budget:
            raise ConvergenceError(f"evaluation budget {quad_spec.eval_budget} exhausted for {geom}")
        f_mono, f_tensor, g_mono, g_tensor = radial_parts_at(x)
        (m0,), (m2,) = _angular_moments(np.array([x]), a, c_ax)
        xx = x * x
        return np.array([xx * (f_mono * m0 + f_tensor * m2), xx * (g_mono * m0 + g_tensor * m2)])

    cuts = _cuts(geom)
    x_lo = cuts[0]

    total = np.zeros(2)
    err_sum = 0.0
    sum_abs = np.zeros(2)
    for value, err in quad_vec_panels(integrand, cuts, quad_spec.rel_tol):
        total += value
        err_sum += err
        sum_abs += np.abs(value)
    head = integrand(x_lo) * (0.5 * x_lo)
    total += head
    sum_abs += np.abs(head)

    prefactor = 2.0 * math.pi * ((2.0 * math.pi) ** -1.5 / (a**2 * c_ax))
    mean = prefactor * total
    err_abs = prefactor * err_sum
    if not (np.all(np.isfinite(mean)) and math.isfinite(err_abs)):
        raise ConvergenceError(f"non-finite quadrature result for {geom} after {count} evaluations")
    result = DipoleExpectation(float(mean[0]), float(mean[1]), float(err_abs), float(err_abs), count)
    tolerance = 10.0 * quad_spec.rel_tol * max(float(np.max(prefactor * sum_abs)), 1e-9)
    if err_abs > tolerance:
        raise ConvergenceError(
            f"quadrature error {err_abs:.3e} above tolerance for {geom} after {count} evaluations",
            partial=result,
        )
    return result


def one_shot_fill(n_sites: int, p: float, seed: int) -> np.ndarray:
    """An (n_sites, 2) occupancy of control and target wells, each well
    occupied where its own uniform draw is below p."""
    rng = np.random.default_rng(seed)
    return rng.random((n_sites, 2)) < p


def one_shot_readout(table, label: str, n_sites: int, p: float, seed: int):
    """The fill, the three stages in ensemble.STAGES order and the background
    subtraction of one prepared input, in numpy arrays. Returns the stages as
    (counts, leaked, fractions) and the corrected row as (probabilities and
    leaked, their errors, paired fraction), or None for the row when no site
    is paired."""
    labels = ("00", "01", "10", "11")
    q = 1.0 - p
    paired, control_only, target_only, _ = (
        int(k) for k in np.random.default_rng(seed).multinomial(n_sites, [p * p, p * q, q * p, q * q]))
    control, target = label

    def pvec(out: str) -> np.ndarray:
        v = np.append(table.row(out), table.leakage[labels.index(out)])
        return v / v.sum()

    def counts_of(n_control: int, n_target: int) -> np.ndarray:
        counts = np.zeros(4, dtype=np.int64)
        counts[labels.index(control + "0")] += n_control
        counts[labels.index("0" + target)] += n_target
        return counts

    def stage_rng(stage_index: int):
        return np.random.default_rng([seed, stage_index, labels.index(label)])

    n_single = control_only + target_only
    drawn = stage_rng(0).multinomial(paired, pvec(label))
    mixed = (counts_of(control_only, target_only) + drawn[:4], int(drawn[4]), paired + n_single)
    background = (counts_of(paired + control_only, paired + target_only), 0, 2 * paired + n_single)
    rng = stage_rng(2)
    first = rng.multinomial(paired, pvec(label))
    counts, leaked = counts_of(control_only, target_only), int(first[4])
    for j, out in enumerate(labels):
        n_out = int(first[j])
        if n_out == 0:
            continue
        if out[1] == "0":
            counts[labels.index(out[0] + "0")] += n_out
        else:
            second = rng.multinomial(n_out, pvec(out))
            counts += second[:4]
            leaked += int(second[4])
    double = (counts, leaked, paired + n_single)

    stages = [(c, k, np.zeros(5) if n == 0 else np.append(c, k) / n) for c, k, n in (mixed, background, double)]
    if paired == 0:
        return stages, None

    def se(fractions: np.ndarray, n: int) -> np.ndarray:
        return np.sqrt(np.clip(fractions * (1.0 - fractions), 0.0, None) / n)

    alpha = paired / mixed[2]
    m, u = stages[0][2], stages[1][2]
    m_err = se(m, mixed[2])
    u_err = se(u, background[2])
    corrected = (m - (1.0 - alpha) * u) / alpha
    err = np.sqrt(m_err**2 + ((1.0 - alpha) * u_err) ** 2) / alpha
    return stages, (corrected, err, alpha)


# The radial pieces as dipole_kernel.radial_parts computed them when
# mc_oracle's bits were frozen, in one expression per piece with fresh
# temporaries. Kept verbatim, so the hex tests of the production kernel and
# of mc_oracle catch any change of its bits.
FROZEN_SERIES_CROSSOVER = 0.25
FROZEN_SERIES_TERMS = 12


def frozen_j_series(n: int, x):
    # j_n(x) = x^n/(2n+1)!! * sum_k (-x^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1));
    # scalar or ndarray; no in-place ops so array arguments never alias
    double_fact = 1.0
    for m in range(1, 2 * n + 2, 2):
        double_fact *= m
    term = x**n / double_fact
    total = term
    half_x2 = -0.5 * x * x
    for k in range(1, FROZEN_SERIES_TERMS):
        term = term * (half_x2 / (k * (2 * n + 2 * k + 1)))
        total = total + term
    return total


def frozen_radial_parts(kr):
    """(f_mono, f_tensor, g_mono, g_tensor) at the ndarray kr, with the
    frozen bits of the production kernel."""
    x = np.asarray(kr, dtype=float)
    if np.any(x <= 0):
        raise ValueError("kr must be positive")

    s, c = np.sin(x), np.cos(x)
    inv = 1.0 / x
    inv2 = inv * inv
    inv3 = inv2 * inv

    j0 = s * inv
    y0 = -c * inv
    y2 = (-3.0 * inv3 + inv) * c - 3.0 * inv2 * s
    j2 = (3.0 * inv3 - inv) * s - 3.0 * inv2 * c
    small = x < FROZEN_SERIES_CROSSOVER
    if small.any():
        j2 = j2.copy()
        j2[small] = frozen_j_series(2, x[small])

    f_mono, f_tensor = -y0, -y2
    g_mono, g_tensor = j0, j2
    return f_mono, f_tensor, g_mono, g_tensor


# the samples per chunk of mc_oracle's draw, each chunk from its own stream,
# when its bits were frozen
FROZEN_MC_CHUNK = 2**14


def pooled_mean_and_std(values: np.ndarray, chunk: int) -> tuple[float, float]:
    """The mean and std(ddof=1) of values from the moments of each run of
    chunk values: its sum, and the sum of its deviations from its own mean
    and of their squares, pooled with math.fsum in chunk order by the
    corrected two-pass formula of Chan, Golub & LeVeque (1983)."""
    moments = []
    for start in range(0, values.size, chunk):
        part = values[start:start + chunk]
        total = part.sum()
        deviations = part - total / part.size
        moments.append((part.size, float(total), float(deviations.sum()), float((deviations * deviations).sum())))
    mean = math.fsum(total for _, total, _, _ in moments) / values.size
    terms = []
    for n, total, deviation, squares in moments:
        shift = total / n - mean
        terms += (squares, 2.0 * shift * deviation, n * shift * shift)
    return mean, math.sqrt(math.fsum(terms) / (values.size - 1))


def one_shot_mc_oracle(geom, samples: int, seed: int) -> DipoleExpectation:
    """overlap.mc_oracle with chunk k's samples drawn from
    default_rng([seed, k]), one exponential and one normal each, every
    sample evaluated at once on the frozen radial pieces, and the means and
    deviations pooled from each chunk's moments."""
    exponential, normal = [], []
    for k, start in enumerate(range(0, samples, FROZEN_MC_CHUNK)):
        rng = np.random.default_rng([seed, k])
        n = min(FROZEN_MC_CHUNK, samples - start)
        exponential.append(rng.standard_exponential(n))
        normal.append(rng.standard_normal(n))
    # x^2 + y^2 of two normals of width sigma_perp is 2 sigma_perp^2 Exp(1)
    rho2 = 2.0 * geom.sigma_perp**2 * np.concatenate(exponential)
    z = geom.sigma_par * np.concatenate(normal)
    radius = np.maximum(np.sqrt(rho2 + z * z), 1e-300)
    mu = z / radius
    p2 = 0.5 * (3.0 * mu * mu - 1.0)

    f_mono, f_tensor, g_mono, g_tensor = frozen_radial_parts(radius)
    f_values = f_mono + p2 * f_tensor
    g_values = g_mono + p2 * g_tensor

    control = 3.0 * p2 / radius**3
    residual = f_values - control
    root_n = math.sqrt(samples)
    residual_mean, residual_std = pooled_mean_and_std(residual, FROZEN_MC_CHUNK)
    mean_g, g_std = pooled_mean_and_std(g_values, FROZEN_MC_CHUNK)
    mean_f = residual_mean + 2.0 * kappa_approx(geom)
    return DipoleExpectation(mean_f, mean_g, residual_std / root_n, g_std / root_n, samples)


def rabi_flip_probability(rabi: float, detuning: float, duration: float) -> float:
    """Two-level flip probability for a square decay-free pulse."""
    w = math.hypot(rabi, detuning)
    return (rabi / w) ** 2 * math.sin(0.5 * w * duration) ** 2


def four_level_truth_table(env, pulse) -> tuple[np.ndarray, np.ndarray]:
    """(populations, leakage) from one 4x4 propagator over ("00", "01", "10", "11").

    No split into control sectors: the generator holds each level's
    rotating-frame energy and its decay (gamma_single per logical-1 atom,
    plus gamma_dd on "11"), and the Raman drive couples "00" <-> "01" and
    "10" <-> "11". Rows of populations are inputs, as in TruthTable.
    """
    delta = pulse.detuning_from_shifted
    energy = np.array([0.0, -delta - env.v_dd / hbar, 0.0, -delta])
    logical_ones = np.array([0, 1, 1, 2])
    decay = env.gamma_single * logical_ones + env.gamma_dd * (logical_ones == 2)
    generator = np.diag(energy - 0.5j * decay)
    for target0, target1 in ((0, 1), (2, 3)):
        generator[target0, target1] = generator[target1, target0] = 0.5 * pulse.rabi
    populations = np.abs(expm(-1j * generator * pulse.duration).T) ** 2
    return populations, 1.0 - populations.sum(axis=1)


def mp_four_level_leakage(env, pulse, dps: int = 50) -> list[float]:
    """Per-input leakage of four_level_truth_table's model, with the 4x4
    exponential taken by mpmath at dps digits, so the leaked population
    keeps its digits however small it is against 1."""
    with mpmath.workdps(dps):
        delta = mpmath.mpf(pulse.detuning_from_shifted)
        shift = mpmath.mpf(env.v_dd) / mpmath.mpf(hbar)
        energy = [0, -delta - shift, 0, -delta]
        logical_ones = [0, 1, 1, 2]
        generator = mpmath.zeros(4, 4)
        for i, ones in enumerate(logical_ones):
            decay = mpmath.mpf(env.gamma_single) * ones
            if ones == 2:
                decay += mpmath.mpf(env.gamma_dd)
            generator[i, i] = energy[i] - mpmath.mpc(0, 0.5) * decay
        for target0, target1 in ((0, 1), (2, 3)):
            generator[target0, target1] = generator[target1, target0] = mpmath.mpf(pulse.rabi) / 2
        propagator = mpmath.expm(mpmath.mpc(0, -1) * generator * mpmath.mpf(pulse.duration))
        return [float(1 - sum(abs(propagator[j, i]) ** 2 for j in range(4))) for i in range(4)]


def mp_mean_fg(eta_perp: float, eta_par: float, dps: int = 30) -> tuple[float, float]:
    """(<f>, <g>) from the one-dimensional momentum-space form, at dps digits.

    With a = sqrt(2) eta_perp, c = sqrt(2) eta_par and s(mu) = (a^2 (1 - mu^2)
    + c^2 mu^2) / 2:

        <g> = (3/2) int_0^1 (1 - mu^2) e^{-s} dmu,
        <f> = 2 kappa_approx + (3/sqrt(pi)) int_0^1 (1 - mu^2) [1/(2 sqrt(s)) - F(sqrt(s))] dmu,

    with Dawson's integral F(y) = (sqrt(pi)/2) e^{-y^2} erfi(y) (DLMF 7.5.1).
    The integrals are mpmath's tanh-sinh quadrature, split at
    mu0 = a / sqrt(a^2 + c^2), where the two terms of s are equal, so that a
    needle-thin cigar's peak of width ~mu0 at mu = 0 gets an interval of its
    own. Shares no code with the production integrator: no radial pieces,
    angular moments or panel cuts.
    """
    with mpmath.workdps(dps):
        a2, c2 = 2 * mpmath.mpf(eta_perp) ** 2, 2 * mpmath.mpf(eta_par) ** 2
        mus = [0, mpmath.sqrt(a2 / (a2 + c2)), 1]

        def s_of(mu):
            return (a2 * (1 - mu * mu) + c2 * mu * mu) / 2

        def f_part(mu):
            y = mpmath.sqrt(s_of(mu))
            dawson = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-y * y) * mpmath.erfi(y)
            return (1 - mu * mu) * (1 / (2 * y) - dawson)

        mean_g = mpmath.mpf(3) / 2 * mpmath.quad(lambda mu: (1 - mu * mu) * mpmath.exp(-s_of(mu)), mus)
        mean_f = 2 * mp_kappa_approx(eta_perp, eta_par) + 3 / mpmath.sqrt(mpmath.pi) * mpmath.quad(f_part, mus)
        return float(mean_f), float(mean_g)
