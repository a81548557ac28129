"""Spectral summaries and the per-epoch training log."""

import math
import warnings

import numpy as np
import pytest

from koopbound.bounds import (
    BoundReport,
    LayerRecord,
    default_constants,
    full_report,
)
from koopbound.diagnostics import (
    EpochRecord,
    SpectrumLog,
    snapshot,
)
from koopbound.matcore import LayerSpectrum, singular_values
from koopbound.network import GaussianHead, SoftmaxHead
from koopbound.trainer import build_network


def _stable_rank(w) -> float:
    return LayerSpectrum.of(w).stable_rank


class TestStableRank:
    def test_identity(self):
        assert _stable_rank(np.eye(4)) == pytest.approx(4.0)

    def test_rank_one(self):
        assert _stable_rank(np.outer([1, 2], [3, 4])) == pytest.approx(1.0)

    def test_hand_value(self):
        # singular values 3 and 1: (9 + 1) / 9
        assert _stable_rank(np.diag([3.0, 1.0])) == pytest.approx(10 / 9)

    def test_zero_matrix_undefined(self):
        assert math.isnan(_stable_rank(np.zeros((3, 3))))

    def test_reads_layer_spectrum(self):
        # the report row carries the spectrum's value, the Frobenius-norm ratio
        net = build_network([3, 3, 6], GaussianHead(), seed=5)
        spectra = [LayerSpectrum.of(layer.weight) for layer in net.layers]
        for row, spec in zip(snapshot(_report(net), 1).layers, spectra):
            assert row.stable_rank == spec.stable_rank
            assert spec.stable_rank == pytest.approx(spec.fro_norm ** 2 / spec.op_norm ** 2)

    def test_underflowing_sigma_max_squared(self):
        # sigma_1^2 = 9e-400 is below float64's range; sigma_1 = 3e-200 is not
        assert _stable_rank(1e-200 * np.diag([3.0, 1.0])) == pytest.approx(10 / 9)

    def test_overflowing_squares(self):
        # sigma_1^2 = 9e320 is beyond float64's range; so is 2e308, the sum
        # of the squares of two singular values 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _stable_rank(1e160 * np.diag([3.0, 1.0])) == pytest.approx(10 / 9)
            assert _stable_rank(np.diag([1e154, 1e154])) == pytest.approx(2.0)


def _report(net):
    return full_report(net, default_constants(net, 10))


class TestSnapshot:
    def test_layer_fields(self):
        nets = [
            build_network([3, 3, 6], GaussianHead(), seed=5),
            # tall 128x64, square 128x128 and wide 10x128 layers
            build_network(
                [64, 128, 128, 10], SoftmaxHead(), seed=0,
                init=["orthogonal", "orthogonal", "truncated_normal"],
            ),
        ]
        for net in nets:
            report = _report(net)
            rec = snapshot(report, epoch=3, test_metric=0.5)
            assert rec.epoch == 3 and rec.test_metric == 0.5
            assert rec.layers == report.layers
            for row, layer in zip(rec.layers, net.layers):
                w = layer.weight
                assert row.singular_values == singular_values(w).tolist()
                spec = LayerSpectrum.of(w)
                assert row.condition_number == spec.condition_number
                assert row.stable_rank == spec.stable_rank
                assert (row.koopman_factor is None) == (w.shape[0] < w.shape[1])

    def test_runs_no_svd(self, monkeypatch):
        report = _report(build_network([3, 3, 6], GaussianHead(), seed=5))
        expected = snapshot(report, 2)

        def fail(*args, **kwargs):
            raise AssertionError("snapshot ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert snapshot(report, 2) == expected

    def test_reads_a_report_from_json(self):
        report = _report(build_network([3, 3, 6], GaussianHead(), seed=5))
        assert snapshot(BoundReport.from_json(report.to_json()), 2) == snapshot(report, 2)

    def test_rank_deficient_layer_marked_none(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=5)
        net.layers[0].weight = np.zeros((3, 3))
        rec = snapshot(_report(net), epoch=1)
        assert rec.layers[0].koopman_factor is None
        assert rec.layers[0].stable_rank is None
        assert math.isinf(rec.layers[0].condition_number)
        assert SpectrumLog([rec]).to_csv().splitlines()[1].split(",")[5:7] == ["nan", "nan"]

    def test_infinite_koopman_factor_overflows(self):
        report = _report(build_network([3, 3, 6], GaussianHead(), seed=5))
        report.layers[1].koopman_factor = math.inf
        with pytest.raises(OverflowError, match="layer 2"):
            snapshot(report, 1)


def _row(singular_values, condition_number, stable_rank, koopman_factor):
    """A report row with the fields the spectrum log reads."""
    return LayerRecord(
        index=1, rows=2, cols=2, singular_values=singular_values,
        condition_number=condition_number, density_ratio_bound=1.0, det_factor=None,
        numeric_rank=2, variant_choice="graph", factors={},
        stable_rank=stable_rank, koopman_factor=koopman_factor,
    )


class TestSpectrumLog:
    def _record(self, epoch):
        return EpochRecord(epoch=epoch, layers=[_row([2.0, 1.0], 2.0, 1.25, 1.5)])

    def test_csv_shape_and_roundtrip_floats(self):
        log = SpectrumLog(epochs=[self._record(1)])
        lines = log.to_csv().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["epoch", "layer", "sigma_max", "sigma_min", "cond"]
        row = lines[1].split(",")
        assert float(row[2]) == 2.0 and float(row[3]) == 1.0

    def test_csv_marks_infinities_and_missing(self):
        rec = EpochRecord(epoch=1, layers=[_row([1.0, 0.0], math.inf, 1.0, None)])
        log = SpectrumLog(epochs=[rec])
        row = log.to_csv().splitlines()[1].split(",")
        assert len(row) == 8
        assert row[4] == "inf"
        assert row[6] == "nan"
        assert row[7] == ""
