"""Sobolev reproducing kernels and the constants they contribute.

The spectral density throughout is p(omega) = 1 / (1 + ||omega||^2)^s on
R^d, which induces the Sobolev space of order s whenever s > d/2.  The
Fourier convention is the non-unitary one, g_hat(omega) =
integral g(x) exp(-i x.omega) dx, matching the change-of-variable
identities the bound factors rely on.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


class KernelDivergenceError(Exception):
    """Raised when s <= d/2, where the space stops being an RKHS."""


def _check_order(d: int, s: float) -> None:
    if s <= d / 2:
        raise KernelDivergenceError(
            f"Sobolev order s={s} must exceed d/2={d / 2} for dimension d={d}"
        )


def kernel_trace_bound(d: int, s: float) -> float:
    """B with k(x, x) = B^2: the diagonal of the Sobolev kernel on R^d.

    k(x, x) = integral (1 + ||omega||^2)^(-s) d omega, evaluated in
    closed form through the radial reduction
    pi^(d/2) * Gamma(s - d/2) / Gamma(s).
    """
    _check_order(d, s)
    nu = s - d / 2
    log_val = (d / 2) * math.log(math.pi) + special.gammaln(nu) - special.gammaln(s)
    return math.exp(0.5 * log_val)


def sobolev_kernel(x, y, d: int, s: float) -> float:
    """k(x, y) for the order-s Sobolev space on R^d (Matern family).

    For r = ||x - y|| > 0 and nu = s - d/2:
        k(r) = 2^(1 - nu) * pi^(d/2) / Gamma(s) * r^nu * K_nu(r)
    with the r -> 0 limit pi^(d/2) * Gamma(nu) / Gamma(s), which equals
    kernel_trace_bound(d, s)^2.
    """
    _check_order(d, s)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if xv.shape != yv.shape or xv.size != d:
        raise ValueError(f"points must both live in R^{d}")
    r = float(np.linalg.norm(xv - yv))
    nu = s - d / 2
    if r == 0.0:
        return math.exp(
            (d / 2) * math.log(math.pi) + special.gammaln(nu) - special.gammaln(s)
        )
    coeff = math.exp(
        (1 - nu) * math.log(2.0)
        + (d / 2) * math.log(math.pi)
        - special.gammaln(s)
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
