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
arguments, so B is bit-identical to the scipy-based value.
`gaussian_head_norm` needs only numpy and `math`; the Bessel function
K_nu of `sobolev_kernel` is imported inside that function.
"""

from __future__ import annotations

import math
import sys

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
_PI_ROUNDING = 3.8981718325193755e-17  # (pi - math.pi) / math.pi


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
    if not s > d / 2:  # a NaN order fails too
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
    coeff = math.exp((1 - nu) * math.log(2.0) + (d / 2) * math.log(math.pi) - _log_gamma(s))
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


def gaussian_head_norm(d: int, s: float, c_gauss: float = 1.0) -> float:
    """Sobolev norm of g(x) = exp(-c ||x||^2) on R^d, by a trapezoid rule in x = log r.

    g_hat(omega) = (pi/c)^(d/2) exp(-||omega||^2 / (4c)), so ||g||^2 = S_{d-1} (pi/c)^d
    int exp(phi(x)) dx, phi(x) = d x - e^(2x)/(2c) + s log1p(e^(2x)), whose one peak has
    t = e^(2x) solving t^2/c + (1/c - d - 2s) t = d.  The grid x* + j h, with h below the
    peak's width, runs until phi has fallen 45; phi is analytic near the real line, so the
    rule's error is far below float64's.  The factors are multiplied where each fits (1e-16
    relative) and added as logs elsewhere.  A norm beyond float64 raises OverflowError.
    """
    _check_order(d, s)
    if not 0 < c_gauss < math.inf:
        raise ValueError(f"gaussian width c must be positive and finite, got {c_gauss}")
    c = c_gauss
    b = 1.0 / c - d - 2.0 * s
    root = math.hypot(b, 2.0 * math.sqrt(d / c))  # b * b may overflow
    t_peak = 2.0 * d / (b + root) if b > 0 else 0.5 * c * (root - b)  # no cancellation
    u = t_peak / (1.0 + t_peak)
    h = min(1.0 / 32.0, 0.5 / math.sqrt(2.0 * d + 4.0 * s * u * u))  # -phi''(x*) = 2d + 4s u^2

    def rel(j):  # phi(x* + j h) - phi(x*)
        e = np.expm1(2.0 * h * j)
        return d * h * j - t_peak * e / (2.0 * c) + s * np.log1p(u * e)

    # log S_{d-1}, log (pi/c)^d, then phi(x*) term by term
    logs = (math.log(2.0) + (d / 2) * math.log(math.pi) - _log_gamma(d / 2),
            d * math.log(math.pi / c), (d / 2) * math.log(t_peak), -t_peak / (2.0 * c),
            s * math.log1p(t_peak))
    # phi' <= d + 2s, so the integral is at least exp(phi(x*) - 1) / (d + 2s)
    if not sum(logs) - 1.0 - math.log(d + 2.0 * s) <= 2.0 * math.log(sys.float_info.max):
        raise OverflowError(f"the Gaussian-head norm for d={d}, s={s}, c={c} exceeds float64")
    # the first multiples of 16 steps, either side, where phi has fallen 45 below its peak
    hi = next(j for j in range(16, 1 << 62, 16) if not rel(j) > -45.0)
    lo = next(j for j in range(-16, -1 << 62, -16) if not rel(j) > -45.0)
    total = h * math.fsum(np.exp(rel(np.arange(lo, hi + 1))))
    if max(map(abs, logs)) < 140.0:  # every factor and partial product is a normal float
        return math.sqrt(2.0 * math.pi ** (d / 2) / math.gamma(d / 2) * (math.pi / c) ** d
                         * t_peak ** (d / 2) * math.exp(-t_peak / (2.0 * c)) * (1.0 + t_peak) ** s
                         * total * (1.0 + 1.5 * d * _PI_ROUNDING))  # math.pi's rounding, undone
    return math.exp(0.5 * (sum(logs) + math.log(total)))
