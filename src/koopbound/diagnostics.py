"""Per-layer spectral time series logged during training.

Only scalar summaries are kept per epoch (singular values, condition
number, stable rank, Koopman layer factor), never the matrices
themselves, so a long run stays cheap to hold and serialize.  Each
record is a projection of the epoch's bound report.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .bounds import BoundReport, koopman_layer_factor


class DiagnosticsError(Exception):
    pass


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
             "koopman_factor", "test_metric"]
        )
        for rec in self.epochs:
            for j, snap in enumerate(rec.layers, start=1):
                writer.writerow(
                    [
                        rec.epoch,
                        j,
                        repr(snap.singular_values[0]),
                        repr(snap.singular_values[-1]),
                        repr(snap.condition_number),  # repr(inf) is "inf"
                        repr(snap.stable_rank),
                        "nan" if snap.layer_factor is None
                        else repr(snap.layer_factor),
                        "" if rec.test_metric is None else repr(rec.test_metric),
                    ]
                )
        return buf.getvalue()


def snapshot(report: BoundReport, epoch: int, test_metric: float | None = None) -> EpochRecord:
    """Project a bound report of the current weights onto one epoch record.

    Reads the report's layer rows, its smoothness chain and the spectra it
    was computed from; runs no SVD.  A report read back from JSON has no
    spectra, and gives a ValueError.
    """
    s_chain = report.metadata["smoothness_chain"][:-1]  # each layer's input space
    snaps = [
        LayerSnapshot(
            singular_values=list(row.singular_values),
            condition_number=row.condition_number,
            stable_rank=spec.stable_rank,
            layer_factor=(
                None if row.variant_choice == "graph" else koopman_layer_factor(spec, s)
            ),
        )
        for row, spec, s in zip(report.layers, report.spectra, s_chain, strict=True)
    ]
    return EpochRecord(epoch=epoch, layers=snaps, test_metric=test_metric)
