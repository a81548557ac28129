"""Monte-Carlo lower estimates of empirical Rademacher complexity.

The estimator replaces the supremum over a weight-constrained function
class by a maximum over finitely many sampled members, which can only
shrink the value, so every estimate is a guaranteed lower bound on the
true complexity.  Dominance of `bound`'s invertible total for the class
(`class_upper_bound`) over these estimates is the headline end-to-end check.
The depth-l estimate can be read from the depth-L draw stream
(`empirical_rademacher_lower_by_depth`): a depth-l draw is, bit for bit,
the first l layers of the depth-L draw with the same seed and index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .network import GaussianHead, Identity, LayerSpec, NetworkSpec, SmoothLeakyRelu
from .network import _gaussian_head, _row_sum


class InfeasibleClassError(Exception):
    pass


# every member, `class_upper_bound`'s extremal one too, has ACTIVATION
# between layers (not after the last) and HEAD; no bound reads the biases
ACTIVATION = SmoothLeakyRelu()
HEAD = GaussianHead()
BIAS_RADIUS = 1.0


@dataclass(frozen=True)
class FunctionClassSpec:
    """Networks with fixed architecture and spectrally constrained weights.

    constraint "inv", the only one: at least two equal widths d, each
    layer a d x d W with ||W|| <= C and |det W| >= D.  Every member has
    the module's ACTIVATION between layers, its HEAD, and biases uniform
    in the ball of radius BIAS_RADIUS.
    """

    widths: tuple[int, ...]
    constraint: str  # "inv"
    C: float
    D: float

    def __post_init__(self):
        if not (0 < self.C < np.inf and 0 < self.D < np.inf):
            raise InfeasibleClassError("C and D must be positive and finite")
        if self.constraint != "inv":
            raise InfeasibleClassError(f"unknown constraint {self.constraint!r}")
        if len(self.widths) < 2 or any(type(w) is not int or w < 1 for w in self.widths):
            raise InfeasibleClassError(f"widths must be at least two positive ints: {self.widths}")
        if len(set(self.widths)) != 1:
            raise InfeasibleClassError("inv constraint needs equal widths")
        if self.D > self.C ** self.widths[0]:
            raise InfeasibleClassError(
                f"D={self.D} exceeds C^d={self.C ** self.widths[0]}: class is empty"
            )


REJECTION_CAP = 100_000


def _sigma1_and_volume(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_1 and the volume det(W^T W)^(1/2) of each matrix of a stack.

    The volume is |det W| for square W.  A 2 x 2 stack takes the closed
    form, any other shape one batched SVD.
    """
    if ws.shape[1:] != (2, 2):
        s = np.linalg.svd(ws, compute_uv=False)
        return s[:, 0], np.prod(s, axis=1)
    # columns a and b; sigma_1^2 is the larger root of t^2 - ||W||_F^2 t + det^2
    a0, a1, b0, b1 = ws[:, 0, 0], ws[:, 1, 0], ws[:, 0, 1], ws[:, 1, 1]
    det = a0 * b1 - a1 * b0
    vol_sq = det * det
    fro_sq = (a0 * a0 + b0 * b0) + (a1 * a1 + b1 * b1)
    gap = np.sqrt(np.maximum(fro_sq * fro_sq - 4.0 * vol_sq, 0.0))
    return np.sqrt(0.5 * (fro_sq + gap)), np.sqrt(vol_sq)


def _sample_weights(
    rng: np.random.Generator, d: int, C: float, D: float, count: int
) -> np.ndarray:
    """Rejection sampling: Gaussian d x d, projected to the norm ball, volume filtered.

    sigma_1 and |det W| come from `_sigma1_and_volume`.  The volume
    filter runs on the unscaled batch (the scaled volume is
    vol * scale^d), and only the first `need` survivors are scaled:
    each kept entry gets the same single multiply as when the whole
    batch was scaled first.
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
        ws = rng.standard_normal((batch, d, d))
        sigma1, vol = _sigma1_and_volume(ws)
        scale = np.minimum(1.0, C / sigma1)
        keep = np.flatnonzero(vol * scale ** d >= D)[:need]
        if keep.size > 0:
            good = ws[keep]
            good *= scale[keep, None, None]
            accepted.append(good)
            need -= keep.size
    return np.concatenate(accepted, axis=0)


def _sample_bias(rng: np.random.Generator, dim: int, radius: float, count: int):
    """Uniform in the radius ball (direction on the sphere, radius ~ r^(1/d)).

    The direction's norm is np.linalg.norm's, sqrt of np.sum over the
    squared row, bit for bit (`_row_sum`).
    """
    g = rng.standard_normal((count, dim))
    g /= np.sqrt(_row_sum(g * g))[:, None]
    g *= (radius * rng.random(count) ** (1.0 / dim))[:, None]
    return g


def sample_networks(
    spec: FunctionClassSpec, rng: np.random.Generator, count: int
):
    """count parameter draws: list over layers of (weights, biases) stacks."""
    params = []
    d = spec.widths[0]
    for _ in range(len(spec.widths) - 1):
        ws = _sample_weights(rng, d, spec.C, spec.D, count)
        bs = _sample_bias(rng, d, BIAS_RADIUS, count)
        params.append((ws, bs))
    return params


def evaluate_networks(params, points: np.ndarray):
    """Stacked forward pass: (count, n) matrix of head outputs.

    Activations are kept as (count, width, n).  Every member takes the
    same points, so the first layer is one GEMM over the whole stack;
    later layers are one batched matmul each.  The head is the trainer's
    kernel (`network._gaussian_head`), its squared norm taken over the
    width axis.
    """
    x = np.asarray(points, dtype=float)
    ws, bs = params[0]
    count, rows, cols = ws.shape
    z = (ws.reshape(count * rows, cols) @ x.T).reshape(count, rows, x.shape[0])
    z += bs[:, :, None]
    for ws, bs in params[1:]:
        z = ws @ ACTIVATION.value(z)
        z += bs[:, :, None]
    return _gaussian_head(HEAD.c, z)


def _draw_seed(seed: int, draw: int) -> np.random.Generator:
    # fixed splitting rule: results do not depend on chunking or threads
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(draw,)))


def _estimates(points, spec: FunctionClassSpec, draws: int, candidates: int,
               seed: int, depths) -> list[float]:
    """The one per-draw loop: an estimate for each prefix depth in
    `depths`, every depth reading the same signs and full-depth candidates."""
    if draws < 1 or candidates < 1:
        raise ValueError("draws and candidates must be >= 1")
    x = np.atleast_2d(np.asarray(points, dtype=float))
    d = spec.widths[0]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != d:
        raise ValueError(f"points of shape {x.shape}: need n >= 1 rows of the input width {d}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"points of shape {x.shape} (input width {d}) must be finite")
    n = x.shape[0]
    totals = [0.0] * len(depths)
    for draw in range(draws):
        rng = _draw_seed(seed, draw)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        params = sample_networks(spec, rng, candidates)
        for k, depth in enumerate(depths):
            values = evaluate_networks(params[:depth], x)  # (candidates, n)
            totals[k] += float(np.max(values @ signs) / n)
    return [total / draws for total in totals]


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
    return _estimates(points, spec, draws, candidates, seed, (len(spec.widths) - 1,))[0]


def empirical_rademacher_lower_by_depth(
    points,
    spec: FunctionClassSpec,
    draws: int = 2000,
    candidates: int = 500,
    seed: int = 0,
) -> list[float]:
    """`empirical_rademacher_lower` for each prefix depth 1..L from one draw
    stream: entry l-1 equals, bit for bit, the estimate for the depth-l
    class FunctionClassSpec(spec.widths[:l+1], ...) with the same arguments."""
    return _estimates(points, spec, draws, candidates, seed, range(1, len(spec.widths)))


def class_upper_bound(spec: FunctionClassSpec, n: int) -> float:
    """`bounds.full_report`'s invertible total, default constants, for the
    extremal member: every layer diag(C, r, ..., r), r^(d-1) = D/C, so
    ||W|| = C and |det W| = D maximize max{1, ||W||^s} / |det W|^(1/2).
    Width 1 raises: no 1 x 1 W has both unless C = D."""
    d, depth = spec.widths[0], len(spec.widths) - 1
    if d == 1:
        raise InfeasibleClassError("width 1 has no member with ||W|| = C and |det W| = D")
    w = np.diag([spec.C] + [(spec.D / spec.C) ** (1.0 / (d - 1))] * (d - 1))
    net = NetworkSpec(d, [
        LayerSpec(w, np.zeros(d), ACTIVATION if j < depth - 1 else Identity())
        for j in range(depth)
    ], HEAD)
    report = bounds.full_report(net, bounds.default_constants(net, n))
    if "invertible" not in report.totals:
        raise InfeasibleClassError(f"extremal member: {report.inapplicable['invertible']}")
    return report.totals["invertible"]
