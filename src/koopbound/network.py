"""Network description shared by the bound evaluator and the trainer.

`erf` is imported inside `_smooth_leaky_relu`, the one place that
evaluates it, rather than at module level: `import scipy.special` costs
about a quarter of a second, and `koopbound bound` and `inspect` never
evaluate an activation.  Once loaded, the import statement costs under a
microsecond per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import matcore


class ValidationError(Exception):
    """Raised with the full list of structural violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _smooth_leaky_relu(x, alpha: float, mu: float, with_derivative: bool):
    """(sigma(x), sigma'(x) or None), both from one erf(u), u = mu (1-a) x.

    Every step runs in place on fresh buffers (the erf buffer e and one
    work buffer w), in the order of the expressions
    sigma = 0.5 ((1+a) x + ((1-a) x) e) and
    sigma' = 0.5 ((1+a) + (1-a) (e + ((x beta) k) e^{-u u})), k = 2/sqrt(pi),
    so the bits are those of the allocating expressions.  x is never written.
    """
    from scipy.special import erf  # deferred; see the module docstring

    x = np.asarray(x, dtype=float)
    beta = mu * (1.0 - alpha)
    e, w = np.empty_like(x), np.empty_like(x)
    erf(np.multiply(beta, x, out=e), out=e)
    value = np.multiply(1.0 - alpha, x, out=np.empty_like(x))
    value *= e
    value += np.multiply(1.0 + alpha, x, out=w)
    value *= 0.5
    if not with_derivative:
        return value, None
    # u is formed again, not kept from the erf call: holding it through the
    # value expression doubled the value's time on the (500, 2, 20) MC stacks
    u = np.multiply(beta, x, out=w)
    # product rule, with (d/du) erf(u) = 2 e^{-u^2} / sqrt(pi)
    gauss = np.negative(u, out=np.empty_like(x))
    gauss *= u
    np.exp(gauss, out=gauss)
    w *= 2.0 / math.sqrt(math.pi)
    w *= gauss
    w += e
    w *= 1.0 - alpha
    w += 1.0 + alpha
    w *= 0.5
    return value, w


def _row_sum(t: np.ndarray) -> np.ndarray:
    """np.sum(t, axis=1), bit for bit.  Below 8 columns np.sum adds them in
    order, so this adds one column at a time, which is much faster on
    narrow rows than np.sum's per-row reduction; from 8 on it is np.sum."""
    if t.shape[1] >= 8:
        return np.sum(t, axis=1)
    s = t[:, 0].copy()
    for k in range(1, t.shape[1]):
        s += t[:, k]
    return s


def _gaussian_head(c: float, z: np.ndarray) -> np.ndarray:
    """The Gaussian head exp(-c ||z||^2), the norm taken over axis 1: (n, w)
    rows in the trainer, (count, w, n) stacks in the MC forward pass."""
    return np.exp(-c * _row_sum(z * z))


# sigma'(x) of the smooth leaky ReLU is extremal at x = +-1/(mu (1 - alpha)),
# where it equals ((1 + alpha) +- (1 - alpha) * _SLRELU_SWING) / 2, whatever mu.
_SLRELU_SWING = math.erf(1.0) + 2.0 / (math.e * math.sqrt(math.pi))


@dataclass(frozen=True)
class Identity:
    kind: str = field(default="identity", init=False)

    def value(self, x):
        return x

    def value_and_derivative(self, x):
        """(x, None): the derivative is 1, so a backward pass skips its multiply."""
        return x, None


@dataclass(frozen=True)
class SmoothLeakyRelu:
    """sigma(x) = ((1+a)x + (1-a) x erf(mu (1-a) x)) / 2."""

    alpha: float = 0.5
    mu: float = 0.5
    kind: str = field(default="smooth_leaky_relu", init=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (0 < self.mu < np.inf):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")

    def value(self, x):
        return _smooth_leaky_relu(x, self.alpha, self.mu, False)[0]

    def value_and_derivative(self, x):
        """(sigma(x), sigma'(x)) from one erf evaluation."""
        return _smooth_leaky_relu(x, self.alpha, self.mu, True)

    @property
    def derivative_inf(self) -> float:
        """inf of sigma', at x = -1/(mu (1-alpha)); below the slope alpha."""
        return 0.5 * ((1.0 + self.alpha) - (1.0 - self.alpha) * _SLRELU_SWING)

    @property
    def derivative_sup(self) -> float:
        """sup of sigma', at x = +1/(mu (1-alpha)); above the slope 1."""
        return 0.5 * ((1.0 + self.alpha) + (1.0 - self.alpha) * _SLRELU_SWING)


@dataclass(frozen=True)
class CustomActivation:
    """User-supplied activation described only by its aggregated sups."""

    name: str
    derivative_sup: float
    inverse_jacobian_sup: float
    kind: str = field(default="custom", init=False)

    def __post_init__(self):
        if not (0 < self.derivative_sup < np.inf):
            raise ValueError("derivative_sup must be positive and finite")
        if not (0 < self.inverse_jacobian_sup < np.inf):
            raise ValueError("inverse_jacobian_sup must be positive and finite")


Activation = Union[Identity, SmoothLeakyRelu, CustomActivation]


@dataclass(frozen=True)
class GaussianHead:
    """g(x) = exp(-c ||x||^2)."""

    c: float = 1.0
    kind: str = field(default="gaussian", init=False)

    def __post_init__(self):
        if not (0 < self.c < np.inf):
            raise ValueError(f"gaussian head needs finite c > 0, got {self.c}")


def _check_h_norm(h_norm) -> None:
    if not (0 < h_norm < np.inf):
        raise ValueError(f"head norm h_norm must be positive and finite, got {h_norm}")


@dataclass(frozen=True)
class SoftmaxHead:
    """Softmax output head; its Sobolev norm is user-supplied (h_norm)."""

    h_norm: float = 1.0
    kind: str = field(default="softmax", init=False)

    def __post_init__(self):
        _check_h_norm(self.h_norm)


@dataclass(frozen=True)
class CustomHead:
    name: str
    h_norm: float = 1.0
    kind: str = field(default="custom", init=False)

    def __post_init__(self):
        _check_h_norm(self.h_norm)


Head = Union[GaussianHead, SoftmaxHead, CustomHead]


def default_smoothness(dim: int) -> float:
    """Default Sobolev order for a width-dim layer output: (dim + 0.1) / 2."""
    return (dim + 0.1) / 2.0


@dataclass
class LayerSpec:
    """One dense layer: x -> activation(weight @ x + bias)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: Activation = Identity()
    s_out: float | None = None

    def __post_init__(self):
        self.weight = matcore.as_matrix(self.weight)
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.bias)):
            raise matcore.NotFiniteError("bias contains NaN or Inf entries")
        if self.s_out is None:
            self.s_out = default_smoothness(self.weight.shape[0])

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class NetworkSpec:
    """Ordered dense layers plus output head and input-space smoothness."""

    input_dim: int
    layers: list[LayerSpec]
    head: Head = GaussianHead()
    s_in: float | None = None

    def __post_init__(self):
        if self.s_in is None:
            self.s_in = default_smoothness(self.input_dim)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def widths(self) -> list[int]:
        return [self.input_dim] + [layer.out_dim for layer in self.layers]

    def smoothness_chain(self) -> list[float]:
        """s_0, s_1, ..., s_L."""
        return [self.s_in] + [layer.s_out for layer in self.layers]

    def violations(self) -> list[str]:
        # comparisons are written so that a NaN smoothness order fails them
        errs: list[str] = []
        if not self.layers:
            errs.append("network must have at least one layer")
            return errs
        if not self.input_dim / 2 < self.s_in < math.inf:
            errs.append(f"s_in={self.s_in} must exceed "
                        f"input_dim/2={self.input_dim / 2} and be finite")
        prev_dim = self.input_dim
        prev_s = self.s_in
        for j, layer in enumerate(self.layers, start=1):
            if layer.in_dim != prev_dim:
                errs.append(
                    f"layer {j}: expected input width {prev_dim}, "
                    f"weight has {layer.in_dim} columns"
                )
            if layer.bias.shape[0] != layer.out_dim:
                errs.append(
                    f"layer {j}: bias length {layer.bias.shape[0]} does not "
                    f"match {layer.out_dim} rows"
                )
            if not layer.out_dim / 2 < layer.s_out < math.inf:
                errs.append(f"layer {j}: s={layer.s_out} must exceed "
                            f"out_dim/2={layer.out_dim / 2} and be finite")
            if not layer.s_out >= prev_s:
                errs.append(
                    f"layer {j}: smoothness must be non-decreasing, "
                    f"got s={layer.s_out} after s={prev_s}"
                )
            prev_dim = layer.out_dim
            prev_s = layer.s_out
        return errs

    def validate(self) -> None:
        errs = self.violations()
        if errs:
            raise ValidationError(errs)
