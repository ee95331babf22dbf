"""Radial pieces of the dipole-dipole coupling of pi-polarized induced dipoles.

A pair of driven dipoles aligned with z and separated by r at polar angle
theta_r exchanges photons through the retarded field. With the outgoing
spherical-wave convention the dispersive/reactive part f and the cooperative
radiative part g of that coupling are

    f + i g = i h0(kr) + P2(cos theta_r) * i h2(kr),      h_n = j_n + i y_n,

i.e.  f = -y0(kr) - P2 * y2(kr)  and  g = j0(kr) + P2 * j2(kr).

Near field: f -> +3 P2(cos theta_r)/(kr)^3 and g -> 1 (fully cooperative).
The level-shift matrix element multiplies this pair by an overall minus sign
(see gate.dd_matrix_element), so the head-to-tail (theta_r = 0) near-field
shift comes out attractive.

The pair is always computed together: one sin/cos evaluation feeds all four
radial pieces, and the averaging integrator calls this in its hot loop. The
pointwise (f, g) at one position is a test oracle (tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

__all__ = ["radial_parts"]

# Below this the trigonometric closed form for j2 loses digits to
# cancellation (~x^2/15 built from O(1/x^3) pieces), and radial_parts sums
# j2 = x^2/15 * sum_k (-x^2/2)^k / (k! 7*9*...*(2k+5)) (DLMF 10.53.1) instead.
# Six terms give every bit of the full series: with x^2/2 < 1/32, term k >= 6
# is below prod_{i<=6} (1/32)/(i(2i+5)) = 5.6e-19 of term 0, and the
# alternating sum stays above (1 - 1/224) of term 0, so half an ulp of it,
# at least 2^-54 of it, is above 5.5e-17 of term 0; a sum plus a term under
# half its ulp rounds back to the sum.
_SERIES_CROSSOVER = 0.25


def radial_parts(kr, out=None):
    """Radial factors (f_mono, f_tensor, g_mono, g_tensor) at kr.

    f(kr, mu) = f_mono + P2(mu) * f_tensor and likewise for g; the angular
    dependence is carried entirely by P2, so averaging integrators can take
    angular moments once and reuse these four numbers per radius.

    Takes an ndarray of radii of any shape, which it never writes; rejects a
    scalar or 0-d kr and any radius that is not positive and finite. Uses
    the closed trigonometric forms, built in place over seven arrays of kr's
    shape, with a six-term small-argument series for j2 below kr = 0.25 (the
    y-pieces are hierarchical at small kr and never cancel), built in place
    over four arrays of the small radii and scattered through indices taken
    once. With out=None those seven are allocated and the four results come
    back as new arrays. Otherwise out is seven arrays of kr's shape, none of
    them kr: the results are written into out[:4] and returned, out[4:] is
    scratch, and the call allocates only its mask, the indices and the
    series. Either way every bit is that of the one-expression forms in
    tests/oracles.py, whose series keeps 12 terms.
    """
    x = np.asarray(kr, dtype=float)
    if x.ndim == 0:
        raise ValueError("kr must be an array of radii, not a scalar")
    # two reductions and no temporary; NaN fails both comparisons
    if x.size and not (x.min() > 0.0 and x.max() < np.inf):
        raise ValueError("kr must be positive and finite")

    # the series first, apart from the closed forms' buffers; integer
    # indices gather and scatter several times faster than the mask
    small = np.nonzero(x < _SERIES_CROSSOVER)
    series = None
    if small[0].size:
        xs = x[small]  # a gathered copy; it holds each term's ratio once half_x2 is made
        series = xs**2
        series /= 15.0
        term = series.copy()
        half_x2 = -0.5 * xs
        half_x2 *= xs
        for k in range(1, 6):
            term *= np.divide(half_x2, k * (2 * k + 5), out=xs)
            series += term
        del xs, term, half_x2

    if out is None:
        out = [np.empty(x.shape) for _ in range(7)]
    c, f_tensor, s, j2, inv, inv2, product = out
    np.sin(x, out=s)
    np.cos(x, out=c)
    np.divide(1.0, x, out=inv)
    np.multiply(inv, inv, out=inv2)
    np.multiply(inv2, inv, out=j2)  # 1/x^3
    np.multiply(j2, -3.0, out=f_tensor)
    f_tensor += inv
    f_tensor *= c
    j2 *= 3.0
    j2 -= inv
    j2 *= s
    inv2 *= 3.0
    np.multiply(inv2, s, out=product)
    f_tensor -= product
    np.negative(f_tensor, out=f_tensor)  # subtract, then negate: the signs of zeros hold
    np.multiply(inv2, c, out=product)
    j2 -= product
    s *= inv  # g_mono
    c *= inv  # f_mono
    if series is not None:
        j2[small] = series
    return c, f_tensor, s, j2
