"""Dense real linear algebra on weight matrices.

The bound variants, the diagnostics and the CLI read every per-layer
spectral quantity from one record, `LayerSpectrum`, so its conventions
are load bearing: each quantity comes from a matrix's singular values
alone, and determinants are always assembled from them in log space.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class MatCoreError(Exception):
    """Base class for linear-algebra failures in this module."""


class ShapeError(MatCoreError):
    pass


class InvalidParameterError(MatCoreError):
    pass


class NotFiniteError(MatCoreError):
    pass


class SvdConvergenceError(MatCoreError):
    pass


class RankDeficientError(MatCoreError):
    """Raised when an operation needs full column rank and does not have it.

    Carries the offending smallest singular value so callers can report it
    or fall back to the graph/weighted bound variants.
    """

    def __init__(self, message: str, sigma_min: float):
        super().__init__(message)
        self.sigma_min = sigma_min


def as_matrix(m) -> np.ndarray:
    """Validate and normalize input to a finite float64 2-D array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NotFiniteError("matrix contains NaN or Inf entries")
    return a


def singular_values(m) -> np.ndarray:
    """Singular values of m, descending; the module's one SVD entry point."""
    a = as_matrix(m)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD failed to converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc


def rank_tolerance(sigma_max: float, rows: int, cols: int) -> float:
    """Relative rank cutoff: 1e-8 * sigma_1 * max(rows, cols)."""
    return 1e-8 * sigma_max * max(rows, cols)


_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)  # above it x^2 overflows
_RESTRICTED_CUTOFF = 1e-8  # LayerSpectrum.restricted_*'s absolute cutoff


def log1p_square(x):
    """log(1 + x^2) for x >= 0: a float via `math`, an array elementwise via
    numpy (their log1p can differ in the last bit).  Above sqrt(float max),
    where x^2 overflows, it is 2 log x, equal to log(1 + x^2) in float64."""
    if isinstance(x, np.ndarray):
        big = x > _SQRT_FLOAT_MAX
        out = np.log1p(np.where(big, 0.0, x) ** 2)
        out[big] = 2.0 * np.log(x[big])
        return out
    return 2.0 * math.log(x) if x > _SQRT_FLOAT_MAX else math.log1p(x ** 2)


def pq_norm(m, p: float, q: float) -> float:
    """(p, q) matrix norm: outer q-norm over columns of inner p-norms.

    ||M||_{2,2} is the Frobenius norm under this convention.
    """
    if p < 1 or q < 1:
        raise InvalidParameterError(f"pq_norm needs p, q >= 1, got p={p}, q={q}")
    a = as_matrix(m)
    with np.errstate(over="ignore"):
        col_norms = np.sum(np.abs(a) ** p, axis=0) ** (1.0 / p)
        total = np.sum(col_norms ** q)
    if not sys.float_info.min <= total < math.inf and np.any(a):
        # |M|^p left float64's normal range: scale by the largest entry first
        top = float(np.max(np.abs(a)))
        return top * pq_norm(a / top, p, q)
    return float(total ** (1.0 / q))


@dataclass(frozen=True)
class LayerSpectrum:
    """A weight matrix's singular values and every quantity derived from them.

    Built by `LayerSpectrum.of` from one SVD, it is the one way to ask
    for a per-layer spectral fact: the bounds, the diagnostics and the CLI
    read their rank, log-determinants, norms, condition number and stable
    rank from it.  `restricted_logdet` is the log-determinant of W on the
    orthogonal complement of its kernel, 0 for the zero matrix.  The rank
    cutoff `tol` is the relative `rank_tolerance`; `restricted_*` keep the
    singular values above the absolute `_RESTRICTED_CUTOFF` instead.
    """

    rows: int
    cols: int
    sigma: np.ndarray  # min(rows, cols) singular values, descending, read-only
    tol: float
    rank: int  # singular values above tol
    gram_logdet: float | None  # log det(W^T W); None when wide or rank deficient
    lifted_logdet: float  # log det(I + W^T W)
    restricted_logdet: float  # log of the product of singular values above the cutoff
    restricted_rank: int
    op_norm: float
    fro_norm: float

    @classmethod
    def of(cls, w) -> "LayerSpectrum":
        a = as_matrix(w)
        rows, cols = a.shape
        s = singular_values(a)
        s.setflags(write=False)
        tol = rank_tolerance(float(s[0]), rows, cols)
        rank = int(np.sum(s > tol))
        kept = s[s > _RESTRICTED_CUTOFF]
        return cls(
            rows=rows,
            cols=cols,
            sigma=s,
            tol=tol,
            rank=rank,
            gram_logdet=float(2.0 * np.sum(np.log(s))) if rank == cols else None,
            lifted_logdet=float(np.sum(log1p_square(s))),
            restricted_logdet=float(np.sum(np.log(kept))),
            restricted_rank=int(kept.size),
            op_norm=float(s[0]),
            fro_norm=pq_norm(a, 2, 2),
        )

    @property
    def sigma_min(self) -> float:
        return float(self.sigma[-1])

    @property
    def condition_number(self) -> float:
        """sigma_1 / sigma_min, +inf for a singular matrix."""
        if self.sigma_min == 0.0:
            return math.inf
        return self.op_norm / self.sigma_min

    @property
    def stable_rank(self) -> float:
        """||W||_F^2 / ||W||^2 = sum sigma_i^2 / sigma_1^2; NaN for the zero matrix."""
        if self.op_norm == 0.0:
            return math.nan
        with np.errstate(over="ignore"):
            total = float(np.sum(self.sigma ** 2))
        top = self.op_norm * self.op_norm
        if top < sys.float_info.min or total == math.inf:  # scale before squaring
            return float(np.sum((self.sigma / self.op_norm) ** 2))
        return total / top

    def require_gram_logdet(self) -> float:
        """gram_logdet, or the ShapeError (wide) or RankDeficientError that says why not."""
        if self.gram_logdet is not None:
            return self.gram_logdet
        if self.cols > self.rows:
            raise ShapeError(f"gram_logdet needs cols <= rows, got {self.rows}x{self.cols}")
        raise RankDeficientError(
            f"matrix is numerically rank deficient (sigma_min={self.sigma_min:.3e}, "
            f"tolerance={self.tol:.3e})",
            sigma_min=self.sigma_min,
        )
