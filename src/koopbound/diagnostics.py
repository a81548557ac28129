"""Per-layer spectral time series logged during training.

Each epoch keeps the layer rows of its bound report (singular values,
condition number, stable rank, constants-free Koopman factor), never the
matrices themselves, so a long run stays cheap to hold and serialize.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .bounds import BoundReport, LayerRecord


@dataclass
class EpochRecord:
    epoch: int
    layers: list[LayerRecord]
    test_metric: float | None = None


@dataclass
class SpectrumLog:
    epochs: list[EpochRecord] = field(default_factory=list)  # in epoch order

    def to_csv(self) -> str:
        """One row per (epoch, layer); infinities become the string 'inf',
        a missing stable rank or Koopman factor 'nan'."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["epoch", "layer", "sigma_max", "sigma_min", "cond", "stable_rank",
             "koopman_factor", "test_metric"]
        )
        for rec in self.epochs:
            for row in rec.layers:
                writer.writerow(
                    [
                        rec.epoch,
                        row.index,
                        repr(row.singular_values[0]),
                        repr(row.singular_values[-1]),
                        repr(row.condition_number),  # repr(inf) is "inf"
                        "nan" if row.stable_rank is None else repr(row.stable_rank),
                        "nan" if row.koopman_factor is None else repr(row.koopman_factor),
                        "" if rec.test_metric is None else repr(rec.test_metric),
                    ]
                )
        return buf.getvalue()


def snapshot(report: BoundReport, epoch: int, test_metric: float | None = None) -> EpochRecord:
    """The epoch record of a bound report of the current weights: its layer rows.

    Runs no SVD and reads no spectra, so a report read back from JSON
    serves too.  Raises OverflowError when a layer's constants-free
    Koopman factor exceeds float64 (the row holds +inf).
    """
    for row in report.layers:
        if row.koopman_factor == math.inf:
            raise OverflowError(f"layer {row.index}: the Koopman factor exceeds float64")
    return EpochRecord(epoch=epoch, layers=list(report.layers), test_metric=test_metric)
