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
2^(L-l) * prod ||W_j||_F.  The norm-based competitor bounds are
implemented verbatim for comparison, bartlett17 with zero references.

`full_report(net, c)` is the one way to ask for a bound.  The constants
B, ||g|| and ||K_sigma|| depend on the architecture only
(`default_constants`, no SVD); G depends on the weights, so the report
takes each layer's default G from its spectrum.

Each of these factors depends on W only through its singular values, so
a layer's spectrum is computed once (`matcore.LayerSpectrum`) and every
factor, G, and every competitor but bartlett17's (2,1)-norm, reads it.
`_factor_table` is the one definition of the four per-layer factors and
of the constants-free spectral product (`matrix_factor`), and it holds
their natural logs, read from the spectrum's log-determinants:
||W||^s and det(W^T W)^(1/4) each grow like sigma^width, and only their
ratio is formed, so a (scaled-)orthogonal layer contributes log 1 = 0
whatever its width.  A variant's total is exp(log prefactor + sum of its
per-layer logs), exponentiated once; each report row is built in the same
loop as the logs it exponentiates.  A None entry marks a layer that
fails the variant's precondition, and `full_report` reads every decision
from these entries: a per-layer variant is inapplicable at its first
failing layer, whose reason (`_why_inapplicable`) names that layer, and
the combined bound's Koopman prefix ends there in the injective column.
`_COMPETITORS` is the one list of competitor bounds; `ALL_VARIANTS` is
built from it.  A report row also holds the layer's stable rank and its
constants-free injective factor (`koopman_factor`), which the training
spectrum log and `inspect` print.
The activation constant ||K_sigma|| comes from the closed-form extremes
of the activation's derivative.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .kernels import gaussian_head_norm, kernel_trace_bound
from .matcore import (  # LayerSpectrum: re-exported
    InvalidParameterError,
    LayerSpectrum,
    log1p_square,
    pq_norm,
)
from .network import (
    CustomActivation,
    GaussianHead,
    Identity,
    NetworkSpec,
    SmoothLeakyRelu,
)

KOOPMAN_VARIANTS = ("invertible", "injective", "graph", "weighted", "combined")


class VariantInapplicable(Exception):
    """A bound variant's precondition fails for this network."""


class NotBiLipschitzError(Exception):
    pass


@dataclass(frozen=True)
class BoundConstants:
    """User-facing constants entering every Koopman-variant total."""

    n: int
    B: float
    g_norm: float
    sigma_norms: tuple[float, ...]
    g_factors: tuple[float, ...] | None  # None: full_report takes each layer's default G
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError(f"sample count n must be >= 1, got {self.n}")
        if self.n > sys.float_info.max:  # sqrt(n) enters the prefactor
            raise InvalidParameterError(
                f"sample count n exceeds float64's range ({sys.float_info.max:.6g})"
            )
        vals = [self.B, self.g_norm, *self.sigma_norms, *(self.g_factors or ())]
        if any(not (0 < v < math.inf) for v in vals):
            raise InvalidParameterError(
                "all bound constants must be positive and finite"
            )
        if self.prefactor == 0.0:  # its log enters every total
            raise InvalidParameterError(f"B * g_norm / sqrt(n) = {self.prefactor!r} underflows")

    @property
    def prefactor(self) -> float:
        return self.B * self.g_norm / math.sqrt(self.n)


# ---------------------------------------------------------------------------
# per-layer ingredients


def _log_norm_power(spec: LayerSpectrum, s_prev: float) -> float:
    """log max{1, ||W||^s_prev}, for s_prev > 0."""
    if s_prev <= 0:
        raise InvalidParameterError(f"s_prev must be positive, got {s_prev}")
    return s_prev * math.log(spec.op_norm) if spec.op_norm > 1.0 else 0.0


def _exp_or_inf(x: float) -> float:
    """exp(x), or +inf beyond float64: for report fields that enter no total."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def density_ratio_bound(w, s_prev: float) -> float:
    """Closed-form max{1, ||W||^(2s)} >= sup p(omega) / p(W^T omega); +inf beyond float64."""
    return _exp_or_inf(2.0 * _log_norm_power(LayerSpectrum.of(w), s_prev))


def koopman_layer_factor(w, s_prev: float) -> float:
    """max{1, ||W||^s_prev} / det(W^T W)^(1/4); equals 1 for orthogonal W.

    The constants-free part of `_factor_table`'s injective entry, equal to
    a `full_report` row's `koopman_factor`; public for the gates.  Raises
    ShapeError for a wide layer and RankDeficientError for a
    rank-deficient one (LayerSpectrum.require_gram_logdet), and
    OverflowError when the factor exceeds float64.
    """
    spec = LayerSpectrum.of(w)
    return math.exp(_log_norm_power(spec, s_prev) - spec.require_gram_logdet() / 4.0)


def g_factor_gaussian(spec: LayerSpectrum, c_gauss: float) -> float:
    """Isotropy factor (2c/pi)^(k/4) of a Gaussian exp(-c||x||^2) head.

    k is the codimension of the layer's range, found via the relative
    rank tolerance.
    """
    if c_gauss <= 0:
        raise InvalidParameterError(f"c_gauss must be positive, got {c_gauss}")
    k = spec.rows - spec.rank
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


def _why_inapplicable(spec: LayerSpectrum, variant: str) -> str | None:
    """Why the layer fails the variant's full-rank precondition; None if it meets it.

    invertible needs a square matrix with full column rank, injective
    full column rank; every layer meets graph's and weighted's.
    """
    if variant == "invertible" and spec.rows != spec.cols:
        return f"is {spec.rows}x{spec.cols}, not square"
    if variant not in ("invertible", "injective") or spec.gram_logdet is not None:
        return None
    if variant == "invertible":
        return f"is numerically singular (sigma_min={spec.sigma_min:.3e})"
    if spec.rows < spec.cols:
        return f"is {spec.rows}x{spec.cols} (wide), not injective"
    return f"lacks full column rank (sigma_min={spec.sigma_min:.3e})"


# ---------------------------------------------------------------------------
# whole-network bound variants


def _factor_table(spectra: list[LayerSpectrum], s_chain, c: BoundConstants, g_factors):
    """Per layer, the natural log of each per-layer Koopman variant's factor;
    per layer, the report row (`LayerRecord`) read from those logs; and the
    natural log of the constants-free spectral product.

    s_chain is the smoothness chain: s_chain[j] is the smoothness of layer
    j's input space, s_chain[j + 1] of its output.  The factors include the
    layer's isotropy factor G (`g_factors`) and activation norm ||K_sigma||
    from `c`.  None marks a variant whose precondition the layer fails
    (`_why_inapplicable`).  A row's `koopman_factor` is the constants-free
    injective factor, None where the injective precondition fails.  The
    spectral product is prod_j ||W_j||^s_(j+1) / (prod of W_j's singular
    values)^(1/2), with each layer's own smoothness and no max{1, .}; its
    log is None when a layer is numerically rank deficient (rank below
    min(rows, cols)).
    """
    table, layers = [], []
    log_matrix = 0.0
    for j, (spec, s, s_out, g, sig) in enumerate(zip(
        spectra, s_chain, s_chain[1:], g_factors, c.sigma_norms
    )):
        log_g, log_sig = math.log(g), math.log(sig)
        log_lift = _log_norm_power(spec, s)  # log max{1, ||W||^s}
        # the constants-free Koopman factor; not None wherever invertible applies
        koop = None if spec.gram_logdet is None else log_lift - spec.gram_logdet / 4.0
        row = {
            "invertible": None if _why_inapplicable(spec, "invertible") else koop + log_sig,
            "injective": None if koop is None else koop + log_sig + log_g,
            "graph": (
                s / 2.0 * log1p_square(spec.op_norm) - spec.lifted_logdet / 4.0
                + log_g + log_sig
            ),
            "weighted": log_lift - spec.restricted_logdet / 2.0 + log_g + log_sig,
        }
        table.append(row)
        layers.append(LayerRecord(
            index=j + 1,
            rows=spec.rows,
            cols=spec.cols,
            singular_values=spec.sigma.tolist(),
            condition_number=spec.condition_number,
            density_ratio_bound=_exp_or_inf(2.0 * log_lift),
            det_factor=None if koop is None else _exp_or_inf(spec.gram_logdet / 4.0),
            numeric_rank=spec.restricted_rank,
            # the tightest variant the layer meets; graph (like weighted) always applies
            variant_choice=next(
                (tag for tag in ("invertible", "injective") if row[tag] is not None), "graph"
            ),
            factors={k: None if v is None else math.exp(v) for k, v in row.items()},
            stable_rank=None if spec.op_norm == 0.0 else spec.stable_rank,
            koopman_factor=None if koop is None else _exp_or_inf(koop),
        ))
        if log_matrix is None:
            continue
        if spec.rank < min(spec.rows, spec.cols):
            log_matrix = None
        else:
            log_sigma_sum = float(np.log(spec.sigma).sum())
            log_matrix += s_out * math.log(spec.op_norm) - 0.5 * log_sigma_sum
    return table, layers, log_matrix


def _total(c: BoundConstants, log_factors) -> float:
    """prefactor * prod(exp(log_factors)), exponentiated once."""
    return math.exp(sum(log_factors, math.log(c.prefactor)))


# ---------------------------------------------------------------------------
# competitor bounds (norm-based rates, implemented verbatim), each f(net, spectra, n)


def _neyshabur15(net: NetworkSpec, spectra, n: int) -> float:
    prod = math.prod(spec.fro_norm for spec in spectra)
    return 2.0 ** len(spectra) * prod / math.sqrt(n)


def _neyshabur18(net: NetworkSpec, spectra, n: int) -> float:
    if any(spec.op_norm == 0.0 for spec in spectra):
        raise VariantInapplicable(
            "zero operator norm makes the stable-rank sum undefined"
        )
    max_width = max(spec.rows for spec in spectra)
    prod = math.prod(spec.op_norm for spec in spectra)
    ratio_sum = sum(spec.stable_rank for spec in spectra)
    return len(spectra) * max_width * prod * math.sqrt(ratio_sum) / math.sqrt(n)


def _golowich18(net: NetworkSpec, spectra, n: int) -> float:
    prod = math.prod(spec.fro_norm for spec in spectra)
    return prod * min(n ** -0.25, math.sqrt(len(spectra) / n))


def _bartlett17(net: NetworkSpec, spectra, n: int) -> float:
    """Spectral product times the (2,1)-norm sum, from zero reference matrices."""
    if any(spec.op_norm == 0.0 for spec in spectra):
        raise VariantInapplicable(
            "zero operator norm makes the discrepancy ratio undefined"
        )
    disc_sum = 0.0
    for layer, spec in zip(net.layers, spectra):
        disc = pq_norm(layer.weight.T, 2, 1)
        disc_sum += disc ** (2.0 / 3.0) / spec.op_norm ** (2.0 / 3.0)
    prod = math.prod(spec.op_norm for spec in spectra)
    return prod / math.sqrt(n) * disc_sum ** 1.5


_COMPETITORS = {
    "neyshabur15": _neyshabur15,
    "neyshabur18": _neyshabur18,
    "golowich18": _golowich18,
    "bartlett17": _bartlett17,
}
ALL_VARIANTS = KOOPMAN_VARIANTS + tuple(_COMPETITORS)


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
    """Fill unspecified constants from the architecture; runs no SVD.

    B comes from the kernel diagonal of the input space; g_norm from
    `gaussian_head_norm` when the head is Gaussian (otherwise the
    head's user-supplied norm); activation norms from the elementwise
    s=1 formula.  The G_j depend on the weights: unless given, they stay
    None and `full_report` takes each layer's default from its spectrum
    (`_g_factors`).
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
    return BoundConstants(
        n=n,
        B=float(B),
        g_norm=float(g_norm),
        sigma_norms=tuple(float(v) for v in sigma_norms),
        g_factors=None if g_factors is None else tuple(float(v) for v in g_factors),
        notes=tuple(notes),
    )


def _g_factors(net: NetworkSpec, spectra, c: BoundConstants):
    """The G_j of `c`, else each layer's default, and the notes it adds.

    G_j defaults to 1 for full-rank square layers and to the Gaussian-head
    value for the last layer of a Gaussian-head net; other layers get 1
    with a "G unnormalized" note.
    """
    if c.g_factors is not None:
        return c.g_factors, []
    g_factors, notes = [], []
    for j, spec in enumerate(spectra):
        if not _why_inapplicable(spec, "invertible"):
            g_factors.append(1.0)
        elif j == net.depth - 1 and isinstance(net.head, GaussianHead):
            g_factors.append(g_factor_gaussian(spec, net.head.c))
        else:
            g_factors.append(1.0)
            notes.append(f"layer {j + 1}: G unnormalized")
    return g_factors, notes


@dataclass
class LayerRecord:
    index: int
    rows: int
    cols: int
    singular_values: list[float]
    condition_number: float
    density_ratio_bound: float  # +inf beyond float64
    det_factor: float | None  # det(W^T W)^(1/4), None if rank deficient, +inf beyond float64
    numeric_rank: int
    variant_choice: str
    factors: dict[str, float | None]  # per-variant layer factor, exp of a _factor_table entry
    stable_rank: float | None  # None for an all-zero layer
    koopman_factor: float | None  # as koopman_layer_factor; None as det_factor, +inf beyond float64


def _map_leaves(x, fn):
    """x with fn applied to every value that is not a dict, list or tuple."""
    if isinstance(x, dict):
        return {k: _map_leaves(v, fn) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_map_leaves(v, fn) for v in x]
    return fn(x)


@dataclass
class BoundReport:
    """Per-layer factor breakdown plus totals for every variant."""

    layers: list[LayerRecord]
    totals: dict[str, float]
    inapplicable: dict[str, str]
    combined_l_star: int | None
    combined_per_l: list[tuple[int, float | None]]
    matrix_factor: float  # constants-free spectral product; +inf if rank deficient or past float64
    metadata: dict

    def to_json_dict(self) -> dict:
        """The report as plain JSON values; every +inf float is written "inf"."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["layers"] = [vars(r) for r in self.layers]
        return _map_leaves({"version": 1, **doc}, lambda v: "inf" if v == math.inf else v)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BoundReport":
        doc = _map_leaves(doc, lambda v: math.inf if v == "inf" else v)
        kwargs = {f.name: doc[f.name] for f in fields(cls)}
        kwargs["layers"] = [LayerRecord(**r) for r in doc["layers"]]
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
                        repr(r.condition_number),  # repr(inf) is "inf"
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


def full_report(net: NetworkSpec, c: BoundConstants) -> BoundReport:
    """Evaluate every variant and competitor; inapplicable ones become markers.

    `combined_per_l[l][1]` is the combined bound with a Koopman prefix of
    length l (None past the feasible prefix; l = L is the injective total
    bit for bit), and `combined_l_star` the smallest minimizing l.

    One SVD per layer: every quantity below, the default G_j among them,
    is read from the layers' spectra.
    """
    net.validate()
    s_chain = net.smoothness_chain()
    spectra = [LayerSpectrum.of(layer.weight) for layer in net.layers]
    g_factors, g_notes = _g_factors(net, spectra, c)
    if len(c.sigma_norms) != net.depth or len(g_factors) != net.depth:
        raise InvalidParameterError(
            "sigma_norms and g_factors must have one entry per layer"
        )
    table, layers, log_matrix = _factor_table(spectra, s_chain, c, g_factors)
    totals: dict[str, float] = {}
    inapplicable: dict[str, str] = {}
    # per per-layer variant (a table column): its first layer with a None entry, else the depth
    gap = {
        v: next((j for j, row in enumerate(table) if row[v] is None), net.depth)
        for v in table[0]
    }
    for variant, j in gap.items():
        if j < net.depth:
            inapplicable[variant] = f"layer {j + 1} {_why_inapplicable(spectra[j], variant)}"
        else:
            totals[variant] = _total(c, [row[variant] for row in table])
    # combined: the injective factors of layers 1..l, then 2 ||W_j||_F for each later
    # layer; a zero layer (None below) collapses that Frobenius tail to 0
    feasible = gap["injective"]
    log_tail = [math.log(2.0 * spec.fro_norm) if spec.fro_norm else None for spec in spectra]
    per_l = [
        (l, None if l > feasible else 0.0 if None in log_tail[l:]
         else _total(c, [row["injective"] for row in table[:l]] + log_tail[l:]))
        for l in range(net.depth + 1)
    ]
    l_star, totals["combined"] = min(per_l[: feasible + 1], key=lambda lv: lv[1])
    for name, competitor in _COMPETITORS.items():
        try:
            totals[name] = competitor(net, spectra, c.n)
        except VariantInapplicable as exc:
            inapplicable[name] = str(exc)
    flags = [*c.notes, *g_notes, "graph total is modulo the lifted-head psi-norm"]
    return BoundReport(
        layers=layers,
        totals=totals,
        inapplicable=inapplicable,
        combined_l_star=l_star,
        combined_per_l=per_l,
        matrix_factor=math.inf if log_matrix is None else _exp_or_inf(log_matrix),
        metadata={
            "n": c.n,
            "B": c.B,
            "g_norm": c.g_norm,
            "sigma_norms": list(c.sigma_norms),
            "g_factors": list(g_factors),
            "smoothness_chain": s_chain,
            "flags": flags,
        },
    )
