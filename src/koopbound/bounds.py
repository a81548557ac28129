"""Complexity-bound evaluation from weight matrices.

Every variant shares the prefactor B * ||g|| / sqrt(n) and differs in the
per-layer factor:

  invertible:  max{1, ||W||^s} * ||K_sigma||            / |det W|^(1/2)
  injective:   max{1, ||W||^s} * G * ||K_sigma||        / det(W^T W)^(1/4)
  graph:       (1 + ||W||^2)^(s/2) * G * ||K_sigma||    / det(W^T W + I)^(1/4)
  weighted:    max{1, ||W||^s} * G * ||K_sigma||        / |det W_r|^(1/2)

with s the smoothness of the layer's *input* space, G the isotropy factor
of the downstream function, and W_r the restriction of W to the
orthogonal complement of its kernel.  The combined bound splices a
Koopman prefix of length l with a Frobenius-product peeling tail
2^(L-l) * prod ||W_j||_F.  Table-style competitor bounds are implemented
verbatim for comparison.

Each of these factors depends on W only through its singular values, so
a layer's spectrum is computed once (`LayerSpectrum`) and every factor is
a function of it; a variant's total is the log prefactor plus the sum of
its per-layer log factors.  The activation constant ||K_sigma|| comes from
the closed-form extremes of the activation's derivative.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import matcore
from .kernels import gaussian_head_norm, kernel_trace_bound
from .matcore import (  # gram_logdet, operator_norm, restricted_det: re-exported
    InvalidParameterError,
    RankDeficientError,
    ShapeError,
    gram_logdet,
    operator_norm,
    pq_norm,
    restricted_det,
)
from .network import (
    CustomActivation,
    GaussianHead,
    Identity,
    LayerSpec,
    NetworkSpec,
    SmoothLeakyRelu,
)

KOOPMAN_VARIANTS = ("invertible", "injective", "graph", "weighted", "combined")
COMPETITOR_VARIANTS = ("neyshabur15", "neyshabur18", "golowich18", "bartlett17")
ALL_VARIANTS = KOOPMAN_VARIANTS + COMPETITOR_VARIANTS


class VariantInapplicable(Exception):
    """A bound variant's precondition fails for this network."""

    def __init__(self, reason: str, largest_feasible_l: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.largest_feasible_l = largest_feasible_l


class NotBiLipschitzError(Exception):
    pass


@dataclass(frozen=True)
class BoundConstants:
    """User-facing constants entering every Koopman-variant total."""

    n: int
    B: float
    g_norm: float
    sigma_norms: tuple[float, ...]
    g_factors: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"sample count n must be >= 1, got {self.n}")
        vals = [self.B, self.g_norm, *self.sigma_norms, *self.g_factors]
        if any(not (0 < v < math.inf) for v in vals):
            raise InvalidParameterError(
                "all bound constants must be positive and finite"
            )

    @property
    def prefactor(self) -> float:
        return self.B * self.g_norm / math.sqrt(self.n)


# ---------------------------------------------------------------------------
# one spectrum per layer


@dataclass(frozen=True)
class LayerSpectrum:
    """A weight matrix's singular values and the bound quantities derived from them.

    Built by `LayerSpectrum.of` from one SVD.  The rank cutoff `tol` is
    matcore's relative tolerance; `restricted_*` use the weighted bound's
    absolute tolerance, as matcore.restricted_det does.
    """

    rows: int
    cols: int
    sigma: np.ndarray  # min(rows, cols) singular values, descending, read-only
    tol: float
    rank: int  # singular values above tol
    gram_logdet: float | None  # log det(W^T W); None when wide or rank deficient
    lifted_logdet: float  # log det(I + W^T W)
    restricted_logdet: float  # log of the product of singular values above weighted_tol
    restricted_rank: int
    op_norm: float
    fro_norm: float

    @classmethod
    def of(cls, w, weighted_tol: float = 1e-8) -> "LayerSpectrum":
        if weighted_tol <= 0:
            raise InvalidParameterError(
                f"weighted bound needs tol > 0, got {weighted_tol}"
            )
        a = matcore.as_matrix(w)
        rows, cols = a.shape
        s = matcore.singular_values(a)
        s.setflags(write=False)
        tol = matcore.rank_tolerance(float(s[0]), rows, cols)
        rank = int(np.sum(s > tol))
        kept = s[s > weighted_tol]
        return cls(
            rows=rows,
            cols=cols,
            sigma=s,
            tol=tol,
            rank=rank,
            gram_logdet=float(2.0 * np.sum(np.log(s))) if rank == cols else None,
            lifted_logdet=float(np.sum(np.log1p(s ** 2))),
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
        """sigma_1 / sigma_min, +inf for a singular matrix (as matcore.condition_number)."""
        if self.sigma_min == 0.0:
            return math.inf
        return self.op_norm / self.sigma_min


def _spectrum(layer) -> LayerSpectrum:
    """The spectrum of a LayerSpectrum, a LayerSpec or a bare matrix."""
    if isinstance(layer, LayerSpectrum):
        return layer
    return LayerSpectrum.of(layer.weight if isinstance(layer, LayerSpec) else layer)


def _spectra(net: NetworkSpec, weighted_tol: float = 1e-8) -> list[LayerSpectrum]:
    return [LayerSpectrum.of(layer.weight, weighted_tol) for layer in net.layers]


# ---------------------------------------------------------------------------
# per-layer ingredients; `layer` is a LayerSpectrum, a LayerSpec or a weight matrix


def density_ratio_bound(layer, s_prev: float) -> float:
    """Closed-form bound on sup p(omega) / p(W^T omega): max{1, ||W||^(2s)}."""
    if s_prev <= 0:
        raise InvalidParameterError(f"s_prev must be positive, got {s_prev}")
    return max(1.0, _spectrum(layer).op_norm ** (2.0 * s_prev))


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for the density-ratio supremum over the range of W.

    Directions always include every left singular vector of the matrix;
    extra unit directions may be supplied and are projected onto the
    range.  Radii are log-spaced up to max_radius, with 0 included.
    """

    num_radii: int = 200
    min_radius: float = 1e-3
    max_radius: float = 1e6
    extra_directions: tuple[tuple[float, ...], ...] = ()

    def radii(self) -> np.ndarray:
        if self.num_radii < 1:
            raise InvalidParameterError("grid must contain at least one radius")
        r = np.geomspace(self.min_radius, self.max_radius, self.num_radii)
        return np.concatenate(([0.0], r))


def density_ratio_grid_sup(
    w, s_prev: float, s_cur: float, grid: GridSpec | None = None
) -> float:
    """Sampled sup over omega in R(W) of (1+||W^T omega||^2)^s_prev / (1+||omega||^2)^s_cur.

    Serves as the independent verification oracle showing the closed form
    of density_ratio_bound really is an upper bound.
    """
    if s_prev <= 0:
        raise InvalidParameterError(f"s_prev must be positive, got {s_prev}")
    if s_cur < s_prev:
        raise InvalidParameterError(
            f"grid supremum needs s_cur >= s_prev, got {s_cur} < {s_prev}"
        )
    if grid is None:
        grid = GridSpec()
    a = matcore.as_matrix(w)
    dec = matcore.svd(a)
    tol = matcore.rank_tolerance(
        float(dec.singular_values[0]) if dec.singular_values.size else 0.0, *a.shape
    )
    dirs = [
        dec.u[:, i]
        for i in range(len(dec.singular_values))
        if dec.singular_values[i] > tol
    ]
    if dirs:
        basis = np.stack(dirs, axis=1)
        for extra in grid.extra_directions:
            v = basis @ (basis.T @ np.asarray(extra, dtype=float))
            norm = np.linalg.norm(v)
            if norm > 0:
                dirs.append(v / norm)
    best = 1.0  # omega = 0 is always in the grid and gives ratio 1
    radii = grid.radii()
    for u in dirs:
        omegas = radii[:, None] * u[None, :]
        pulled = omegas @ a  # row i is W^T omega_i
        num = (1.0 + np.sum(pulled ** 2, axis=1)) ** s_prev
        den = (1.0 + radii ** 2) ** s_cur
        best = max(best, float(np.max(num / den)))
    return best


def koopman_layer_factor(layer, s_prev: float) -> float:
    """max{1, ||W||^s_prev} / det(W^T W)^(1/4); equals 1 for orthogonal W.

    Raises ShapeError for a wide layer and RankDeficientError for a
    rank-deficient one, as matcore.gram_logdet does.
    """
    spec = _spectrum(layer)
    if spec.gram_logdet is None:
        if spec.cols > spec.rows:
            raise ShapeError(
                f"gram_logdet needs cols <= rows, got {spec.rows}x{spec.cols}"
            )
        raise RankDeficientError(
            f"matrix is numerically rank deficient (sigma_min={spec.sigma_min:.3e}, "
            f"tolerance={spec.tol:.3e})",
            sigma_min=spec.sigma_min,
        )
    return math.sqrt(density_ratio_bound(spec, s_prev)) / math.exp(spec.gram_logdet / 4.0)


def _graph_layer_factor(spec: LayerSpectrum, s_prev: float) -> float:
    """(1 + ||W||^2)^(s/2) / det(W^T W + I)^(1/4)."""
    lift = max(1.0, (1.0 + spec.op_norm ** 2) ** (s_prev / 2.0))
    return lift / math.exp(spec.lifted_logdet / 4.0)


def _weighted_layer_factor(spec: LayerSpectrum, s_prev: float) -> float:
    """max{1, ||W||^s} / |det W_r|^(1/2)."""
    return max(1.0, spec.op_norm ** s_prev) / math.exp(spec.restricted_logdet / 2.0)


def g_factor_gaussian(w, c_gauss: float) -> float:
    """Isotropy factor (2c/pi)^(k/4) of a Gaussian exp(-c||x||^2) head.

    k is the codimension of the range of w, found via the relative rank
    tolerance.
    """
    if c_gauss <= 0:
        raise InvalidParameterError(f"c_gauss must be positive, got {c_gauss}")
    a = matcore.as_matrix(w)
    k = a.shape[0] - matcore.numeric_rank(a)
    return (2.0 * c_gauss / math.pi) ** (k / 4.0)


def activation_opnorm_bound(activation, d: int) -> float:
    """Bound on the composition-operator norm of an elementwise activation.

    For s = 1 and elementwise sigma this is
    (sup 1/sigma')^d * max{1, sup sigma'}.  For the smooth leaky ReLU the
    extremes of sigma' are exact closed forms (`derivative_inf`,
    `derivative_sup`).  Custom activations carry their sups pre-aggregated.
    """
    if isinstance(activation, Identity):
        return 1.0
    if isinstance(activation, CustomActivation):
        return activation.inverse_jacobian_sup * max(1.0, activation.derivative_sup)
    if isinstance(activation, SmoothLeakyRelu):
        inf_deriv = activation.derivative_inf
        if inf_deriv <= 0:
            raise NotBiLipschitzError(
                "activation derivative is not bounded away from zero; "
                "the composition operator is unbounded"
            )
        return (1.0 / inf_deriv) ** d * max(1.0, activation.derivative_sup)
    raise TypeError(f"unknown activation {activation!r}")


@dataclass(frozen=True)
class VariantChoice:
    tag: str
    reason: str
    alternate: str | None = None


def choose_variant(layer, prev_dim: int) -> VariantChoice:
    """Route a layer (LayerSpec, LayerSpectrum or matrix) to the tightest applicable variant."""
    spec = _spectrum(layer)
    rows, cols = spec.rows, spec.cols
    full_col_rank = spec.rank == cols
    if rows == cols and full_col_rank:
        return VariantChoice("invertible", "square with sigma_min above tolerance")
    if rows > cols and full_col_rank:
        return VariantChoice("injective", "tall with full column rank")
    if rows < cols:
        return VariantChoice(
            "graph",
            f"wide layer ({rows}x{cols}) cannot be injective",
            alternate="weighted",
        )
    return VariantChoice(
        "graph",
        f"rank deficient (sigma_min={spec.sigma_min:.3e} <= tolerance {spec.tol:.3e})",
        alternate="weighted",
    )


# ---------------------------------------------------------------------------
# whole-network bound variants


def _check_constants(net: NetworkSpec, c: BoundConstants) -> None:
    if len(c.sigma_norms) != net.depth or len(c.g_factors) != net.depth:
        raise InvalidParameterError(
            "sigma_norms and g_factors must have one entry per layer"
        )


def _factor_table(
    spectra: list[LayerSpectrum], net: NetworkSpec, c: BoundConstants
) -> list[dict[str, float | None]]:
    """Per layer, each per-layer Koopman variant's factor, constants included.

    None marks a variant whose precondition the layer fails: the
    determinant variants need full column rank, invertible also a square
    matrix.
    """
    s_chain = net.smoothness_chain()
    table = []
    for spec, s, g, sig in zip(spectra, s_chain, c.g_factors, c.sigma_norms):
        koop = None if spec.gram_logdet is None else koopman_layer_factor(spec, s) * sig
        table.append({
            "invertible": koop if spec.rows == spec.cols else None,
            "injective": None if koop is None else koop * g,
            "graph": _graph_layer_factor(spec, s) * g * sig,
            "weighted": _weighted_layer_factor(spec, s) * g * sig,
        })
    return table


def _total(c: BoundConstants, layer_factors) -> float:
    """prefactor * prod(layer_factors), accumulated in log space."""
    log_total = math.log(c.prefactor)
    for f in layer_factors:
        log_total += math.log(f)
    return math.exp(log_total)


def _variant_total(variant: str, spectra, table, c: BoundConstants) -> float:
    for j, (spec, row) in enumerate(zip(spectra, table), start=1):
        if row[variant] is not None:
            continue
        smin = f"(sigma_min={spec.sigma_min:.3e})"
        if variant == "invertible":
            if spec.rows != spec.cols:
                raise VariantInapplicable(f"layer {j} is {spec.rows}x{spec.cols}, not square")
            raise VariantInapplicable(f"layer {j} is numerically singular {smin}")
        if spec.rows < spec.cols:
            raise VariantInapplicable(
                f"layer {j} is {spec.rows}x{spec.cols} (wide), not injective"
            )
        raise VariantInapplicable(f"layer {j} lacks full column rank {smin}")
    return _total(c, [row[variant] for row in table])


def _koopman_bound(
    variant: str, net: NetworkSpec, c: BoundConstants, weighted_tol: float = 1e-8
) -> float:
    _check_constants(net, c)
    spectra = _spectra(net, weighted_tol)
    return _variant_total(variant, spectra, _factor_table(spectra, net, c), c)


def bound_invertible(net: NetworkSpec, c: BoundConstants) -> float:
    """Theorem-style bound for square invertible layers."""
    return _koopman_bound("invertible", net, c)


def bound_injective(net: NetworkSpec, c: BoundConstants) -> float:
    """Bound for tall full-column-rank layers, with isotropy factors G_j."""
    return _koopman_bound("injective", net, c)


def bound_graph(net: NetworkSpec, c: BoundConstants) -> float:
    """Graph-lift bound, finite for any W (rank-deficient included).

    The norm of the lifted head is not computable from the weights; the
    caller's g_norm is used and the total is flagged "modulo psi-norm"
    in reports.
    """
    return _koopman_bound("graph", net, c)


def bound_weighted(
    net: NetworkSpec, c: BoundConstants, tol: float = 1e-8
) -> float:
    """Weighted-composition bound using determinants restricted to ker(W)^perp."""
    return _koopman_bound("weighted", net, c, tol)


def _feasible_prefix_length(spectra: list[LayerSpectrum]) -> int:
    """Longest l such that layers 1..l all satisfy the injective preconditions."""
    return next(
        (j for j, spec in enumerate(spectra) if spec.gram_logdet is None), len(spectra)
    )


def _combined(spectra, table, c: BoundConstants, l: int) -> float:
    feasible = _feasible_prefix_length(spectra)
    if l > feasible:
        raise VariantInapplicable(
            f"Koopman prefix of length {l} infeasible; "
            f"largest feasible prefix is {feasible}",
            largest_feasible_l=feasible,
        )
    tail = [spec.fro_norm for spec in spectra[l:]]
    if 0.0 in tail:
        return 0.0  # a zero layer collapses the Frobenius tail
    return _total(c, [row["injective"] for row in table[:l]] + [2.0 * f for f in tail])


def bound_combined(net: NetworkSpec, c: BoundConstants, l: int) -> float:
    """Koopman prefix of length l spliced with a Frobenius peeling tail.

    value = 2^(L-l) * prod_{j>l} ||W_j||_F * B * ||g|| / sqrt(n)
            * prod_{j<=l} G_j ||K_sigma_j|| max{1, ||W_j||^s} / det(W^T W)^(1/4).

    l = L recovers bound_injective exactly; l = 0 recovers the pure
    Frobenius-product endpoint.
    """
    _check_constants(net, c)
    if not (0 <= l <= net.depth):
        raise InvalidParameterError(f"l must be in [0, {net.depth}], got {l}")
    spectra = _spectra(net)
    return _combined(spectra, _factor_table(spectra, net, c), c, l)


def _combined_best(spectra, table, c: BoundConstants):
    feasible = _feasible_prefix_length(spectra)
    per_l = [
        (l, _combined(spectra, table, c, l) if l <= feasible else None)
        for l in range(len(spectra) + 1)
    ]
    best_l, best_val = min(per_l[: feasible + 1], key=lambda lv: lv[1])
    return best_l, best_val, per_l


def bound_combined_best(
    net: NetworkSpec, c: BoundConstants
) -> tuple[int, float, list[tuple[int, float | None]]]:
    """Minimize the combined bound over the split point l; ties go to smaller l."""
    _check_constants(net, c)
    spectra = _spectra(net)
    return _combined_best(spectra, _factor_table(spectra, net, c), c)


# ---------------------------------------------------------------------------
# competitor bounds (norm-based rates, implemented verbatim)


def bound_neyshabur15(net: NetworkSpec, n: int) -> float:
    prod = math.prod(pq_norm(layer.weight, 2, 2) for layer in net.layers)
    return 2.0 ** net.depth * prod / math.sqrt(n)


def _neyshabur18(spectra: list[LayerSpectrum], n: int) -> float:
    if any(spec.op_norm == 0.0 for spec in spectra):
        raise VariantInapplicable(
            "zero operator norm makes the stable-rank sum undefined"
        )
    max_width = max(spec.rows for spec in spectra)
    prod = math.prod(spec.op_norm for spec in spectra)
    ratio_sum = sum((spec.fro_norm / spec.op_norm) ** 2 for spec in spectra)
    return len(spectra) * max_width * prod * math.sqrt(ratio_sum) / math.sqrt(n)


def bound_neyshabur18(net: NetworkSpec, n: int) -> float:
    return _neyshabur18(_spectra(net), n)


def bound_golowich18(net: NetworkSpec, n: int) -> float:
    L = net.depth
    prod = math.prod(pq_norm(layer.weight, 2, 2) for layer in net.layers)
    return prod * min(n ** -0.25, math.sqrt(L / n))


def _bartlett17(net: NetworkSpec, spectra, n: int, refs) -> float:
    if refs is None:
        refs = [np.zeros_like(l.weight) for l in net.layers]
    if len(refs) != net.depth:
        raise InvalidParameterError("need one reference matrix per layer")
    if any(spec.op_norm == 0.0 for spec in spectra):
        raise VariantInapplicable(
            "zero operator norm makes the discrepancy ratio undefined"
        )
    disc_sum = 0.0
    for layer, spec, a in zip(net.layers, spectra, refs):
        disc = pq_norm(layer.weight.T - np.asarray(a, dtype=float).T, 2, 1)
        disc_sum += disc ** (2.0 / 3.0) / spec.op_norm ** (2.0 / 3.0)
    prod = math.prod(spec.op_norm for spec in spectra)
    return prod / math.sqrt(n) * disc_sum ** 1.5


def bound_bartlett17(
    net: NetworkSpec, n: int, refs: list[np.ndarray] | None = None
) -> float:
    """Spectral product times the (2,1)-discrepancy sum from reference matrices."""
    return _bartlett17(net, _spectra(net), n, refs)


# ---------------------------------------------------------------------------
# constants defaults and the full report


def default_constants(
    net: NetworkSpec,
    n: int,
    B: float | None = None,
    g_norm: float | None = None,
    sigma_norms: list[float] | None = None,
    g_factors: list[float] | None = None,
) -> BoundConstants:
    """Fill unspecified constants from the network description.

    B comes from the kernel diagonal of the input space; g_norm from the
    Gaussian-head quadrature when the head is Gaussian (otherwise the
    head's user-supplied norm); activation norms from the elementwise
    s=1 formula.  G_j defaults to 1 for full-rank square layers and to
    the Gaussian-head value for the last layer of a Gaussian-head net;
    other layers get 1 with a "G unnormalized" note.
    """
    notes: list[str] = []
    if B is None:
        B = kernel_trace_bound(net.input_dim, net.s_in)
    if g_norm is None:
        if isinstance(net.head, GaussianHead):
            g_norm = gaussian_head_norm(
                net.layers[-1].out_dim, net.layers[-1].s_out, net.head.c
            )
        else:
            g_norm = net.head.h_norm
            notes.append("g_norm taken from user-supplied head norm")
    if sigma_norms is None:
        sigma_norms = [
            activation_opnorm_bound(layer.activation, layer.out_dim)
            for layer in net.layers
        ]
    if g_factors is None:
        g_factors = []
        for j, layer in enumerate(net.layers):
            w = layer.weight
            square_full_rank = (
                w.shape[0] == w.shape[1]
                and matcore.numeric_rank(w) == w.shape[1]
            )
            if square_full_rank:
                g_factors.append(1.0)
            elif j == net.depth - 1 and isinstance(net.head, GaussianHead):
                g_factors.append(g_factor_gaussian(w, net.head.c))
            else:
                g_factors.append(1.0)
                notes.append(f"layer {j + 1}: G unnormalized")
    return BoundConstants(
        n=n,
        B=float(B),
        g_norm=float(g_norm),
        sigma_norms=tuple(float(v) for v in sigma_norms),
        g_factors=tuple(float(v) for v in g_factors),
        notes=tuple(notes),
    )


@dataclass
class LayerRecord:
    index: int
    rows: int
    cols: int
    singular_values: list[float]
    condition_number: float
    density_ratio_bound: float
    det_factor: float | None  # det(W^T W)^(1/4), None if rank deficient
    numeric_rank: int
    variant_choice: str
    factors: dict[str, float | None]  # per-variant layer factor


@dataclass
class BoundReport:
    """Per-layer factor breakdown plus totals for every variant."""

    layers: list[LayerRecord]
    totals: dict[str, float]
    inapplicable: dict[str, str]
    combined_l_star: int | None
    combined_per_l: list[tuple[int, float | None]]
    matrix_factor: float  # constants-free product of Koopman layer factors
    metadata: dict
    # per-layer spectra the report was computed from; not serialized
    spectra: list[LayerSpectrum] = field(default_factory=list, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        doc["layers"] = [
            dict(vars(r), condition_number=(
                "inf" if math.isinf(r.condition_number) else r.condition_number
            ))
            for r in self.layers
        ]
        doc["combined_per_l"] = [[l, v] for l, v in self.combined_per_l]
        return {"version": 1, **doc}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BoundReport":
        kwargs = {f.name: doc[f.name] for f in fields(cls) if f.compare}
        kwargs["layers"] = [
            LayerRecord(**dict(r, condition_number=(
                math.inf if r["condition_number"] == "inf" else r["condition_number"]
            )))
            for r in doc["layers"]
        ]
        kwargs["combined_per_l"] = [tuple(x) for x in doc["combined_per_l"]]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "BoundReport":
        return cls.from_json_dict(json.loads(text))

    def to_csv(self) -> str:
        """Flat CSV, one row per (layer, variant) factor plus total rows."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["layer", "variant", "factor", "sigma_max", "sigma_min", "cond",
             "numeric_rank"]
        )
        for r in self.layers:
            for variant, factor in sorted(r.factors.items()):
                writer.writerow(
                    [
                        r.index,
                        variant,
                        "" if factor is None else repr(factor),
                        repr(r.singular_values[0]),
                        repr(r.singular_values[-1]),
                        "inf" if math.isinf(r.condition_number)
                        else repr(r.condition_number),
                        r.numeric_rank,
                    ]
                )
        for variant in sorted(self.totals):
            writer.writerow(["total", variant, repr(self.totals[variant]), "", "", "", ""])
        for variant in sorted(self.inapplicable):
            writer.writerow(
                ["total", variant, f"inapplicable: {self.inapplicable[variant]}",
                 "", "", "", ""]
            )
        return buf.getvalue()


def _matrix_factor(spectra, s_chain) -> float:
    log_total = 0.0
    for spec, s in zip(spectra, s_chain[1:]):
        if spec.sigma_min == 0.0:
            return math.inf
        log_total += s * math.log(spec.op_norm) - 0.5 * float(np.sum(np.log(spec.sigma)))
    return math.exp(log_total)


def matrix_factor_product(net: NetworkSpec) -> float:
    """Constants-free spectral product prod_j ||W_j||^s / det(W^T W)^(1/4).

    This is the quantity tracked against the generalization error in the
    training experiments; s is the layer's own smoothness exponent.
    Returns +inf when a layer is rank deficient.
    """
    return _matrix_factor(_spectra(net), net.smoothness_chain())


def full_report(
    net: NetworkSpec,
    c: BoundConstants,
    weighted_tol: float = 1e-8,
    bartlett_refs: list[np.ndarray] | None = None,
) -> BoundReport:
    """Evaluate every variant and competitor; inapplicable ones become markers.

    One SVD per layer: every quantity below is read from the layers'
    spectra, which the report keeps in `spectra`.
    """
    net.validate()
    _check_constants(net, c)
    s_chain = net.smoothness_chain()
    spectra = _spectra(net, weighted_tol)
    table = _factor_table(spectra, net, c)
    totals: dict[str, float] = {}
    inapplicable: dict[str, str] = {}

    def attempt(name, fn, *args):
        try:
            totals[name] = fn(*args)
        except VariantInapplicable as exc:
            inapplicable[name] = exc.reason

    for variant in ("invertible", "injective", "graph", "weighted"):
        attempt(variant, _variant_total, variant, spectra, table, c)
    l_star, totals["combined"], per_l = _combined_best(spectra, table, c)
    attempt("neyshabur15", bound_neyshabur15, net, c.n)
    attempt("neyshabur18", _neyshabur18, spectra, c.n)
    attempt("golowich18", bound_golowich18, net, c.n)
    attempt("bartlett17", _bartlett17, net, spectra, c.n, bartlett_refs)

    layers = [
        LayerRecord(
            index=j + 1,
            rows=spec.rows,
            cols=spec.cols,
            singular_values=[float(x) for x in spec.sigma],
            condition_number=spec.condition_number,
            density_ratio_bound=density_ratio_bound(spec, s_chain[j]),
            det_factor=(
                None if spec.gram_logdet is None else math.exp(spec.gram_logdet / 4.0)
            ),
            numeric_rank=spec.restricted_rank,
            variant_choice=choose_variant(spec, net.widths[j]).tag,
            factors=factors,
        )
        for j, (spec, factors) in enumerate(zip(spectra, table))
    ]
    flags = list(c.notes)
    flags.append("graph total is modulo the lifted-head psi-norm")
    return BoundReport(
        layers=layers,
        totals=totals,
        inapplicable=inapplicable,
        combined_l_star=l_star,
        combined_per_l=per_l,
        matrix_factor=_matrix_factor(spectra, s_chain),
        metadata={
            "n": c.n,
            "B": c.B,
            "g_norm": c.g_norm,
            "sigma_norms": list(c.sigma_norms),
            "g_factors": list(c.g_factors),
            "smoothness_chain": s_chain,
            "flags": flags,
        },
        spectra=spectra,
    )
