"""Per-layer spectral time series logged during training.

Only scalar summaries are kept per epoch (singular values, condition
number, stable rank, bound factor, alignment), never the matrices
themselves, so a long run stays cheap to hold and serialize.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .bounds import koopman_layer_factor
from .matcore import LayerSpectrum, RankDeficientError, ShapeError
from .network import NetworkSpec


class DiagnosticsError(Exception):
    pass


class EmptySubspaceError(DiagnosticsError):
    pass


class UndefinedAngleError(DiagnosticsError):
    pass


def layer_spectrum(w) -> np.ndarray:
    """Singular values of w, descending."""
    return matcore.singular_values(w)


def stable_rank(w) -> float:
    """||W||_F^2 / ||W||^2, a soft rank proxy in [1, min(rows, cols)].

    w is a matrix or its matcore.LayerSpectrum.
    """
    s = w.sigma if isinstance(w, LayerSpectrum) else matcore.singular_values(w)
    top = float(s[0])
    if top == 0.0:
        raise DiagnosticsError("stable rank is undefined for the zero matrix")
    return float(np.sum(s ** 2)) / top ** 2


def alignment_angle(activations, w_next, sv_threshold: float = 0.1) -> float:
    """|cos| of the worst angle between a batch and a dominant singular subspace.

    The subspace is spanned by the right singular vectors of w_next whose
    singular values exceed sv_threshold.  Each activation's angle to its
    orthogonal projection is computed; the maximum angle over the batch
    is taken, then |cos|.  Zero-norm activations are skipped.
    """
    acts = np.atleast_2d(np.asarray(activations, dtype=float))
    dec = matcore.svd(w_next)
    keep = dec.singular_values > sv_threshold
    if not np.any(keep):
        raise EmptySubspaceError(
            f"no singular values exceed threshold {sv_threshold}"
        )
    basis = dec.v[:, : len(dec.singular_values)][:, keep]  # orthonormal columns
    if acts.shape[1] != basis.shape[0]:
        raise ShapeError(
            f"activation dimension {acts.shape[1]} does not match "
            f"{basis.shape[0]} columns of the next weight matrix"
        )
    worst = None
    for a in acts:
        norm = np.linalg.norm(a)
        if norm == 0.0:
            continue
        cos = float(np.linalg.norm(basis.T @ a) / norm)
        angle = math.acos(min(1.0, max(-1.0, cos)))
        worst = angle if worst is None else max(worst, angle)
    if worst is None:
        raise UndefinedAngleError("all activations have zero norm")
    return abs(math.cos(worst))


@dataclass
class LayerSnapshot:
    singular_values: list[float]
    condition_number: float
    stable_rank: float
    layer_factor: float | None  # None marks rank-deficient / wide layers


@dataclass
class EpochRecord:
    epoch: int
    layers: list[LayerSnapshot]
    alignment: float | None = None
    test_metric: float | None = None


@dataclass
class SpectrumLog:
    epochs: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        if self.epochs and record.epoch <= self.epochs[-1].epoch:
            raise DiagnosticsError(
                f"epochs must be strictly increasing, got {record.epoch} "
                f"after {self.epochs[-1].epoch}"
            )
        self.epochs.append(record)

    def to_csv(self) -> str:
        """One row per (epoch, layer); infinities become the string 'inf'."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["epoch", "layer", "sigma_max", "sigma_min", "cond", "stable_rank",
             "koopman_factor", "alignment", "test_metric"]
        )
        for rec in self.epochs:
            for j, snap in enumerate(rec.layers, start=1):
                writer.writerow(
                    [
                        rec.epoch,
                        j,
                        repr(snap.singular_values[0]),
                        repr(snap.singular_values[-1]),
                        "inf" if math.isinf(snap.condition_number)
                        else repr(snap.condition_number),
                        repr(snap.stable_rank),
                        "nan" if snap.layer_factor is None
                        else repr(snap.layer_factor),
                        "" if rec.alignment is None else repr(rec.alignment),
                        "" if rec.test_metric is None else repr(rec.test_metric),
                    ]
                )
        return buf.getvalue()


def snapshot(
    net: NetworkSpec,
    epoch: int,
    alignment: float | None = None,
    test_metric: float | None = None,
    spectra: list[LayerSpectrum] | None = None,
) -> EpochRecord:
    """Summarize the current weights into one epoch record.

    spectra, one per layer of the current weights (as kept by
    bounds.full_report), saves recomputing them.
    """
    s_chain = net.smoothness_chain()
    if spectra is None:
        spectra = [LayerSpectrum.of(layer.weight) for layer in net.layers]
    snaps = []
    for j, spec in enumerate(spectra):
        try:
            factor = koopman_layer_factor(spec, s_chain[j])
        except (RankDeficientError, ShapeError):
            factor = None
        try:
            srank = stable_rank(spec)
        except DiagnosticsError:
            srank = float("nan")
        snaps.append(
            LayerSnapshot(
                singular_values=[float(x) for x in spec.sigma],
                condition_number=spec.condition_number,
                stable_rank=srank,
                layer_factor=factor,
            )
        )
    return EpochRecord(
        epoch=epoch, layers=snaps, alignment=alignment, test_metric=test_metric
    )
