"""Sobolev reproducing kernels and the constants they contribute.

The spectral density throughout is p(omega) = 1 / (1 + ||omega||^2)^s on
R^d, which induces the Sobolev space of order s whenever s > d/2.  The
Fourier convention is the non-unitary one, g_hat(omega) =
integral g(x) exp(-i x.omega) dx, matching the change-of-variable
identities the bound factors rely on.

Nothing here imports scipy at module level.  `import scipy.special`
costs about a quarter of a second (its array-API shim clones numpy),
about half of a one-shot `koopbound bound` process, and the bound needs
only two log-gammas from it.  Those come from `_log_gamma`, a port of
cephes `lgam`, the routine `scipy.special.gammaln` evaluates for real
arguments, so B is bit-identical to the scipy-based value.  The Bessel
function K_nu of `sobolev_kernel` and the quadrature of
`gaussian_head_norm` are imported inside those functions.
"""

from __future__ import annotations

import math

import numpy as np


class KernelDivergenceError(Exception):
    """Raised when s <= d/2, where the space stops being an RKHS."""


# cephes lgam: Stirling correction series (A), and the rational
# approximation of log Gamma(2 + x) on [0, 1) (x B(x) / C(x), C monic)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _horner(x: float, lead: float, coeffs) -> float:
    acc = lead
    for c in coeffs:
        acc = acc * x + c
    return acc


def _log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, bit-identical to scipy.special.gammaln.

    A port of cephes `lgam` restricted to positive x: below 13, shift the
    argument into [2, 3) with the recurrence and apply the rational
    approximation; from 13 on, Stirling's formula with the A series, a
    two-term series from 1000 on and none above 1e8.
    """
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _horner(x, _LGAM_B[0], _LGAM_B[1:]) / _horner(x, 1.0, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _LGAM_A[0], _LGAM_A[1:]) / x


def _check_order(d: int, s: float) -> None:
    if s <= d / 2:
        raise KernelDivergenceError(
            f"Sobolev order s={s} must exceed d/2={d / 2} for dimension d={d}"
        )


def _log_diagonal(d: int, s: float) -> float:
    """log k(x, x) = log(pi^(d/2) * Gamma(s - d/2) / Gamma(s)), for s > d/2.

    k(x, x) = integral (1 + ||omega||^2)^(-s) d omega, in closed form
    through the radial reduction.
    """
    return (d / 2) * math.log(math.pi) + _log_gamma(s - d / 2) - _log_gamma(s)


def kernel_trace_bound(d: int, s: float) -> float:
    """B with k(x, x) = B^2: the diagonal of the Sobolev kernel on R^d."""
    _check_order(d, s)
    return math.exp(0.5 * _log_diagonal(d, s))


def sobolev_kernel(x, y, d: int, s: float) -> float:
    """k(x, y) for the order-s Sobolev space on R^d (Matern family).

    For r = ||x - y|| > 0 and nu = s - d/2:
        k(r) = 2^(1 - nu) * pi^(d/2) / Gamma(s) * r^nu * K_nu(r)
    with the r -> 0 limit pi^(d/2) * Gamma(nu) / Gamma(s), which equals
    kernel_trace_bound(d, s)^2.
    """
    from scipy import special  # loaded here: the bound path never needs K_nu

    _check_order(d, s)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape or xv.size != d:
        raise ValueError(f"points must both live in R^{d}")
    r = float(np.linalg.norm(xv - yv))
    nu = s - d / 2
    if r == 0.0:
        return math.exp(_log_diagonal(d, s))
    coeff = math.exp(
        (1 - nu) * math.log(2.0)
        + (d / 2) * math.log(math.pi)
        - _log_gamma(s)
    )
    return coeff * r ** nu * float(special.kv(nu, r))


def sobolev_gram(points: np.ndarray, s: float) -> np.ndarray:
    """Gram matrix of sobolev_kernel on an (n, d) point set."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = sobolev_kernel(pts[i], pts[j], d, s)
    return gram


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)


def gaussian_head_norm(d: int, s: float, c_gauss: float = 1.0) -> float:
    """Sobolev norm of g(x) = exp(-c ||x||^2) on R^d, by radial quadrature.

    g_hat(omega) = (pi/c)^(d/2) exp(-||omega||^2 / (4c)), so
    ||g||^2 = S_{d-1} * (pi/c)^d * int_0^inf r^(d-1) e^(-r^2/(2c)) (1+r^2)^s dr.
    """
    from scipy import integrate  # loaded here: softmax-head paths never need it

    _check_order(d, s)
    if c_gauss <= 0:
        raise ValueError(f"gaussian width c must be positive, got {c_gauss}")
    amp = (math.pi / c_gauss) ** d

    def integrand(r: float) -> float:
        return r ** (d - 1) * math.exp(-r * r / (2.0 * c_gauss)) * (1.0 + r * r) ** s

    val, _err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-10)
    return math.sqrt(_sphere_area(d) * amp * val)
