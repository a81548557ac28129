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

from .network import GaussianHead, SmoothLeakyRelu


class InfeasibleClassError(Exception):
    pass


# the activation and head `verify.suite_dominance` computes the closed
# form's ||K_sigma|| and ||g|| for; the bound does not depend on the biases
ACTIVATION = SmoothLeakyRelu()
HEAD = GaussianHead()
BIAS_RADIUS = 1.0


@dataclass(frozen=True)
class FunctionClassSpec:
    """Networks with fixed architecture and spectrally constrained weights.

    constraint "inv": square W with ||W|| <= C and |det W| >= D.
    constraint "inj": d_out >= d_in with ||W|| <= C and det(W^T W)^(1/2) >= D.
    Every member has the module's ACTIVATION between layers, its HEAD,
    and biases uniform in the ball of radius BIAS_RADIUS.
    """

    widths: tuple[int, ...]
    constraint: str  # "inv" | "inj"
    C: float
    D: float

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


def _sigma1_and_volume(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_1 and the volume det(W^T W)^(1/2) of each matrix of a stack.

    The volume is |det W| for square W.  Needs rows >= cols.
    """
    if ws.shape[2] != 2:
        s = np.linalg.svd(ws, compute_uv=False)
        return s[:, 0], np.prod(s, axis=1)
    # Cauchy-Binet: vol^2 is the sum of the squared 2x2 minors, and
    # sigma_1^2 is the larger root of t^2 - ||W||_F^2 t + vol^2
    a, b = ws[:, :, 0], ws[:, :, 1]
    i, j = np.triu_indices(ws.shape[1], 1)
    vol_sq = np.sum((a[:, i] * b[:, j] - a[:, j] * b[:, i]) ** 2, axis=1)
    fro_sq = np.sum(a * a + b * b, axis=1)
    gap = np.sqrt(np.maximum(fro_sq * fro_sq - 4.0 * vol_sq, 0.0))
    return np.sqrt(0.5 * (fro_sq + gap)), np.sqrt(vol_sq)


def _sample_weights(
    rng: np.random.Generator, rows: int, cols: int, C: float, D: float, count: int
) -> np.ndarray:
    """Rejection sampling: Gaussian, projected to the norm ball, volume filtered.

    sigma_1 and the volume come from a closed form for two columns and
    from one batched SVD (sigma_1 = s_0, volume = prod s) otherwise.
    """
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
        sigma1, vol = _sigma1_and_volume(ws)
        scale = np.minimum(1.0, C / sigma1)
        ws *= scale[:, None, None]
        good = ws[vol * scale ** cols >= D]
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
        bs = _sample_bias(rng, rows, BIAS_RADIUS, count)
        params.append((ws, bs))
    return params


def evaluate_networks(params, points: np.ndarray):
    """Stacked forward pass: (count, n) matrix of head outputs.

    Activations are kept as (count, width, n).  Every member takes the
    same points, so the first layer is one GEMM over the whole stack;
    later layers are one batched matmul each.  The head's squared norm
    adds the output rows one at a time, which for widths below 8 is the
    order np.sum uses.
    """
    x = np.asarray(points, dtype=float)
    ws, bs = params[0]
    count, rows, cols = ws.shape
    z = (ws.reshape(count * rows, cols) @ x.T).reshape(count, rows, x.shape[0])
    z += bs[:, :, None]
    for ws, bs in params[1:]:
        z = ws @ ACTIVATION.value(z)
        z += bs[:, :, None]
    sq = z[:, 0] * z[:, 0]
    for k in range(1, z.shape[1]):
        sq += z[:, k] * z[:, k]
    return np.exp(-HEAD.c * sq)


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
        values = evaluate_networks(params, x)  # (candidates, n)
        total += float(np.max(values @ signs) / n)
    return total / draws


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
