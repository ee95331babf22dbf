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

# Below this the trigonometric closed forms for j1, j2 lose digits to
# cancellation (the j2 form is ~x^2/15 built from O(1/x^3) pieces); the
# alternating series is exact to well under 1e-15 relative here.
_SERIES_CROSSOVER = 0.25
_SERIES_TERMS = 12


def _j_series(n: int, x):
    # j_n(x) = x^n/(2n+1)!! * sum_k (-x^2/2)^k / (k! (2n+3)(2n+5)...(2n+2k+1));
    # scalar or ndarray; no in-place ops so array arguments never alias
    double_fact = 1.0
    for m in range(1, 2 * n + 2, 2):
        double_fact *= m
    term = x**n / double_fact
    total = term
    half_x2 = -0.5 * x * x
    for k in range(1, _SERIES_TERMS):
        term = term * (half_x2 / (k * (2 * n + 2 * k + 1)))
        total = total + term
    return total


def radial_parts(kr, out=None):
    """Radial factors (f_mono, f_tensor, g_mono, g_tensor) at kr.

    f(kr, mu) = f_mono + P2(mu) * f_tensor and likewise for g; the angular
    dependence is carried entirely by P2, so averaging integrators can take
    angular moments once and reuse these four numbers per radius.

    Takes an ndarray of radii of any shape, which it never writes; rejects a
    scalar or 0-d kr and kr <= 0. Uses the closed trigonometric forms with
    the small-argument series branch for j2 (the y-pieces are hierarchical
    at small kr and never cancel), built in place over seven arrays of kr's
    shape, and the series. With out=None those seven are allocated and the
    four results come back as new arrays. Otherwise out is seven arrays of
    kr's shape, none of them kr: the results are written into out[:4] and
    returned, out[4:] is scratch, and the call allocates only its masks and
    the series. Either way every step is that of the one-expression forms in
    tests/oracles.py.
    """
    x = np.asarray(kr, dtype=float)
    if x.ndim == 0:
        raise ValueError("kr must be an array of radii, not a scalar")
    if np.any(x <= 0):
        raise ValueError("kr must be positive")

    small = x < _SERIES_CROSSOVER
    # the series first, apart from the closed forms' buffers; integer
    # indices gather and scatter several times faster than the mask
    series = _j_series(2, x[np.nonzero(small)]) if small.any() else None

    if out is None:
        out = [np.empty(x.shape) for _ in range(7)]
    c, f_tensor, s, j2, inv, inv2, product = out
    del out  # an allocated scratch array is freed with its name below
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
    del inv, inv2, product  # before the scatter's indices are made
    if series is not None:
        j2[np.nonzero(small)] = series
    return c, f_tensor, s, j2
