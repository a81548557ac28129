"""Monte-Carlo lower estimates of empirical Rademacher complexity.

The estimator replaces the supremum over a weight-constrained function
class by a maximum over finitely many sampled members, which can only
shrink the value, so every estimate is a guaranteed lower bound on the
true complexity.  Dominance of the closed-form upper bounds over these
estimates is the headline end-to-end check of the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import kernel_trace_bound, sobolev_kernel
from .network import GaussianHead, SmoothLeakyRelu


class InfeasibleClassError(Exception):
    pass


@dataclass(frozen=True)
class FunctionClassSpec:
    """Networks with fixed architecture and spectrally constrained weights.

    constraint "inv": square W with ||W|| <= C and |det W| >= D.
    constraint "inj": d_out >= d_in with ||W|| <= C and det(W^T W)^(1/2) >= D.
    Biases are sampled uniformly in a ball of radius bias_bound; the
    bound itself does not depend on them.
    """

    widths: tuple[int, ...]
    constraint: str  # "inv" | "inj"
    C: float
    D: float
    bias_bound: float = 1.0
    head: GaussianHead = GaussianHead()
    activation: SmoothLeakyRelu = SmoothLeakyRelu()

    def __post_init__(self):
        if self.C <= 0 or self.D <= 0:
            raise InfeasibleClassError("C and D must be positive")
        if self.constraint not in ("inv", "inj"):
            raise InfeasibleClassError(f"unknown constraint {self.constraint!r}")
        min_dim = min(self.widths)
        if self.D > self.C ** min_dim:
            raise InfeasibleClassError(
                f"D={self.D} exceeds C^min_dim={self.C ** min_dim}: class is empty"
            )
        if self.constraint == "inv" and len(set(self.widths)) != 1:
            raise InfeasibleClassError("inv constraint needs equal widths")
        if self.constraint == "inj" and any(
            a > b for a, b in zip(self.widths, self.widths[1:])
        ):
            raise InfeasibleClassError("inj constraint needs non-decreasing widths")


REJECTION_CAP = 100_000


def _sample_weights(
    rng: np.random.Generator, rows: int, cols: int, C: float, D: float, count: int
) -> np.ndarray:
    """Rejection sampling: Gaussian, projected to the norm ball, det filtered."""
    accepted = []
    attempts = 0
    need = count
    while need > 0:
        batch = max(4 * need, 64)
        attempts += batch
        if attempts > REJECTION_CAP:
            raise InfeasibleClassError(
                f"constraint (C={C}, D={D}) rejected {REJECTION_CAP} samples"
            )
        ws = rng.standard_normal((batch, rows, cols))
        sigma1 = np.linalg.norm(ws, ord=2, axis=(1, 2))
        scale = np.minimum(1.0, C / sigma1)
        ws *= scale[:, None, None]
        if rows == cols:
            dets = np.abs(np.linalg.det(ws))
        else:
            grams = np.einsum("bij,bik->bjk", ws, ws)
            dets = np.sqrt(np.abs(np.linalg.det(grams)))
        good = ws[dets >= D]
        if good.shape[0] > 0:
            accepted.append(good[:need])
            need -= min(need, good.shape[0])
    return np.concatenate(accepted, axis=0)


def _sample_bias(rng: np.random.Generator, dim: int, radius: float, count: int):
    """Uniform in the radius ball (direction on the sphere, radius ~ r^(1/d))."""
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1.0 / dim)
    return g * r[:, None]


def sample_networks(
    spec: FunctionClassSpec, rng: np.random.Generator, count: int
):
    """count parameter draws: list over layers of (weights, biases) stacks."""
    params = []
    for j in range(len(spec.widths) - 1):
        cols, rows = spec.widths[j], spec.widths[j + 1]
        ws = _sample_weights(rng, rows, cols, spec.C, spec.D, count)
        bs = _sample_bias(rng, rows, spec.bias_bound, count)
        params.append((ws, bs))
    return params


def evaluate_networks(spec: FunctionClassSpec, params, points: np.ndarray):
    """Stacked forward pass: (count, n) matrix of head outputs."""
    x = np.asarray(points, dtype=float)
    z = np.broadcast_to(x, (params[0][0].shape[0],) + x.shape)
    L = len(params)
    for j, (ws, bs) in enumerate(params):
        z = np.einsum("mij,mnj->mni", ws, z) + bs[:, None, :]
        if j < L - 1:
            z = spec.activation.value(z)
    return np.exp(-spec.head.c * np.sum(z * z, axis=2))


def _draw_seed(seed: int, draw: int) -> np.random.Generator:
    # fixed splitting rule: results do not depend on chunking or threads
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(draw,)))


def empirical_rademacher_lower(
    points,
    spec: FunctionClassSpec,
    draws: int = 2000,
    candidates: int = 500,
    seed: int = 0,
) -> float:
    """Average over sign draws of the best candidate correlation.

    Per draw: a fresh sign vector and a fresh batch of candidate networks
    from the constrained class; the recorded value is
    max_f (1/n) sum_i s_i f(x_i).  Deterministic by seed through a fixed
    per-draw seed-splitting rule.
    """
    if draws < 1 or candidates < 1:
        raise ValueError("draws and candidates must be >= 1")
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = x.shape[0]
    total = 0.0
    for draw in range(draws):
        rng = _draw_seed(seed, draw)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        params = sample_networks(spec, rng, candidates)
        values = evaluate_networks(spec, params, x)  # (candidates, n)
        total += float(np.max(values @ signs) / n)
    return total / draws


def rademacher_lower_fixed(values, draws: int, seed: int = 0) -> float:
    """Monte-Carlo estimate for an explicit finite class given as (K, n) values."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n = v.shape[1]
    total = 0.0
    for draw in range(draws):
        rng = _draw_seed(seed, draw)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        total += float(np.max(v @ signs) / n)
    return total / draws


def rademacher_exact(values) -> float:
    """Exact complexity of a finite class by enumerating all 2^n sign vectors."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    n = v.shape[1]
    if n > 20:
        raise ValueError(f"2^{n} sign vectors is too many to enumerate")
    total = 0.0
    for mask in range(2 ** n):
        signs = np.array(
            [1.0 if mask & (1 << i) else -1.0 for i in range(n)]
        )
        total += float(np.max(v @ signs) / n)
    return total / 2 ** n


def rkhs_ball_rademacher(
    points, radius: float, d: int, s: float
) -> tuple[float, float]:
    """Complexity of the radius-ball of the Sobolev RKHS at given points.

    exact: (radius/n) * (sum_i k(x_i, x_i))^(1/2), the value after the
    Jensen step of the kernel-class argument.
    bound: radius * B / sqrt(n) with B the kernel diagonal bound.
    exact <= bound always.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError("points must be nonempty")
    trace = sum(sobolev_kernel(xi, xi, d, s) for xi in x)
    exact = radius / n * math.sqrt(trace)
    bound = radius * kernel_trace_bound(d, s) / math.sqrt(n)
    return exact, bound


def class_upper_bound(
    spec: FunctionClassSpec,
    n: int,
    s: float,
    B: float,
    g_norm: float,
    sigma_norm: float,
) -> float:
    """Closed-form complexity bound with sup-over-class constants.

    (B ||g|| / sqrt(n)) * prod_layers ||K_sigma|| max{1, C^s} / sqrt(D).
    """
    L = len(spec.widths) - 1
    per_layer = sigma_norm * max(1.0, spec.C ** s) / math.sqrt(spec.D)
    return B * g_norm / math.sqrt(n) * per_layer ** L
