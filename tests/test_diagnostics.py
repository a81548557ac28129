"""Spectral summaries and the per-epoch training log."""

import math

import numpy as np
import pytest

from koopbound.bounds import default_constants, full_report, koopman_layer_factor
from koopbound.diagnostics import (
    DiagnosticsError,
    EmptySubspaceError,
    EpochRecord,
    LayerSnapshot,
    SpectrumLog,
    UndefinedAngleError,
    alignment_angle,
    layer_spectrum,
    snapshot,
    stable_rank,
)
from koopbound.matcore import ShapeError
from koopbound.network import GaussianHead
from koopbound.trainer import build_network


class TestStableRank:
    def test_identity(self):
        assert stable_rank(np.eye(4)) == pytest.approx(4.0)

    def test_rank_one(self):
        assert stable_rank(np.outer([1, 2], [3, 4])) == pytest.approx(1.0)

    def test_hand_value(self):
        # singular values 3 and 1: (9 + 1) / 9
        assert stable_rank(np.diag([3.0, 1.0])) == pytest.approx(10 / 9)

    def test_zero_matrix_undefined(self):
        with pytest.raises(DiagnosticsError):
            stable_rank(np.zeros((3, 3)))


class TestAlignmentAngle:
    def test_fully_aligned(self):
        # activations already in the dominant right-singular subspace
        w = np.diag([2.0, 0.01])
        acts = np.array([[1.0, 0.0], [3.0, 0.0]])
        assert alignment_angle(acts, w) == pytest.approx(1.0)

    def test_orthogonal_batch(self):
        w = np.diag([2.0, 0.01])
        acts = np.array([[0.0, 1.0]])
        assert alignment_angle(acts, w) == pytest.approx(0.0, abs=1e-12)

    def test_worst_sample_governs(self):
        w = np.diag([2.0, 0.01])
        acts = np.array([[1.0, 0.0], [1.0, 1.0]])
        # the 45-degree sample is the worst: |cos| = 1/sqrt(2)
        assert alignment_angle(acts, w) == pytest.approx(1 / math.sqrt(2))

    def test_zero_rows_skipped(self):
        w = np.diag([2.0, 0.01])
        acts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert alignment_angle(acts, w) == pytest.approx(1.0)

    def test_all_zero_batch(self):
        with pytest.raises(UndefinedAngleError):
            alignment_angle(np.zeros((3, 2)), np.diag([2.0, 0.01]))

    def test_empty_subspace(self):
        with pytest.raises(EmptySubspaceError):
            alignment_angle(np.ones((1, 2)), np.diag([0.05, 0.01]))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            alignment_angle(np.ones((1, 3)), np.diag([2.0, 0.01]))


class TestSnapshot:
    def test_layer_fields(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=5)
        rec = snapshot(net, epoch=3, test_metric=0.5)
        assert rec.epoch == 3 and rec.test_metric == 0.5
        assert len(rec.layers) == 2
        s_chain = net.smoothness_chain()
        for j, (snap, layer) in enumerate(zip(rec.layers, net.layers)):
            assert snap.singular_values == pytest.approx(
                sorted(layer_spectrum(layer.weight), reverse=True)
            )
            assert snap.layer_factor == pytest.approx(
                koopman_layer_factor(layer.weight, s_chain[j])
            )

    def test_report_spectra_give_the_same_record(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=5)
        report = full_report(net, default_constants(net, 10))
        assert snapshot(net, 2, spectra=report.spectra) == snapshot(net, 2)

    def test_rank_deficient_layer_marked_none(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=5)
        net.layers[0].weight = np.zeros((3, 3))
        rec = snapshot(net, epoch=1)
        assert rec.layers[0].layer_factor is None
        assert math.isnan(rec.layers[0].stable_rank)
        assert math.isinf(rec.layers[0].condition_number)


class TestSpectrumLog:
    def _record(self, epoch):
        snap = LayerSnapshot(
            singular_values=[2.0, 1.0],
            condition_number=2.0,
            stable_rank=1.25,
            layer_factor=1.5,
        )
        return EpochRecord(epoch=epoch, layers=[snap])

    def test_epochs_must_increase(self):
        log = SpectrumLog()
        log.append(self._record(1))
        log.append(self._record(2))
        with pytest.raises(DiagnosticsError, match="strictly increasing"):
            log.append(self._record(2))

    def test_csv_shape_and_roundtrip_floats(self):
        log = SpectrumLog()
        log.append(self._record(1))
        lines = log.to_csv().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["epoch", "layer", "sigma_max", "sigma_min", "cond"]
        row = lines[1].split(",")
        assert float(row[2]) == 2.0 and float(row[3]) == 1.0

    def test_csv_marks_infinities_and_missing(self):
        log = SpectrumLog()
        snap = LayerSnapshot(
            singular_values=[1.0, 0.0],
            condition_number=float("inf"),
            stable_rank=1.0,
            layer_factor=None,
        )
        log.append(EpochRecord(epoch=1, layers=[snap]))
        row = log.to_csv().splitlines()[1].split(",")
        assert row[4] == "inf"
        assert row[6] == "nan"
        assert row[7] == "" and row[8] == ""
