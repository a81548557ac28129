import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import bounds as bm
from koopbound import cli, diagnostics, matcore, rademacher, trainer, weightio
from koopbound.bounds import (
    BoundConstants,
    BoundReport,
    LayerSpectrum,
    NotBiLipschitzError,
    activation_opnorm_bound,
    default_constants,
    density_ratio_bound,
    full_report,
    g_factor_gaussian,
    koopman_layer_factor,
)
from koopbound.matcore import InvalidParameterError, RankDeficientError
from koopbound.network import (
    GaussianHead,
    Identity,
    CustomActivation,
    LayerSpec,
    NetworkSpec,
    SmoothLeakyRelu,
    SoftmaxHead,
)

import oracles


def simple_net(weights, head=None, s_in=None, activation=None):
    layers = []
    for w in weights:
        w = np.asarray(w, dtype=float)
        layers.append(
            LayerSpec(
                weight=w,
                bias=np.zeros(w.shape[0]),
                activation=activation or Identity(),
            )
        )
    return NetworkSpec(
        input_dim=layers[0].in_dim,
        layers=layers,
        head=head or GaussianHead(),
        s_in=s_in,
    )


def constants_for(net, n=100):
    return BoundConstants(
        n=n,
        B=1.0,
        g_norm=1.0,
        sigma_norms=tuple([1.0] * net.depth),
        g_factors=tuple([1.0] * net.depth),
    )


class TestDensityRatio:
    def test_contraction_gives_one(self):
        assert density_ratio_bound(0.5 * np.eye(2), 1.05) == 1.0

    def test_expansion(self):
        w = np.diag([2.0, 0.5])
        assert density_ratio_bound(w, 1.05) == pytest.approx(2.0 ** 2.1)

    def test_invalid_s(self):
        with pytest.raises(InvalidParameterError):
            density_ratio_bound(np.eye(2), 0.0)


class TestKoopmanLayerFactor:
    def test_spec_example(self):
        w = np.diag([2.0, 0.5])
        assert koopman_layer_factor(w, 1.05) == pytest.approx(2.0 ** 1.05, rel=1e-12)

    def test_orthogonal_is_one(self):
        rng = np.random.default_rng(2)
        for d in range(2, 6):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            assert koopman_layer_factor(q, d / 2 + 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            koopman_layer_factor(np.diag([1.0, 0.0]), 1.05)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance_structure(self, seed):
        # shrinking a contraction further only moves the det part
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        w = 0.5 * q
        s = 1.55
        expected = 1.0 / np.linalg.det(w.T @ w) ** 0.25
        assert koopman_layer_factor(w, s) == pytest.approx(expected)

    def test_equals_report_row(self):
        # tall, square and wide layers: the report row holds the same
        # expressions as koopman_layer_factor and density_ratio_bound, bit for
        # bit, and None for a wide layer
        for net in (trainer.build_network([3, 3, 6], GaussianHead(), seed=5), _digits_shape_net()):
            report = full_report(net, default_constants(net, 10))
            s_chain = net.smoothness_chain()
            for j, (row, layer) in enumerate(zip(report.layers, net.layers)):
                w = layer.weight
                spec = LayerSpectrum.of(w)
                assert row.density_ratio_bound == density_ratio_bound(w, s_chain[j])
                if w.shape[0] < w.shape[1]:
                    assert row.koopman_factor is None
                    assert row.det_factor is None
                else:
                    assert row.koopman_factor == koopman_layer_factor(w, s_chain[j])
                    assert row.det_factor == math.exp(spec.gram_logdet / 4.0)

    def test_report_row_beyond_float64_is_inf(self):
        # 1e-150 * I: 1 / det(W^T W)^(1/4) = e^1036; the activation norm
        # 1e-200 keeps the layer's variant factors finite
        tiny = CustomActivation("tiny", derivative_sup=1.0, inverse_jacobian_sup=1e-200)
        net = NetworkSpec(6, [
            LayerSpec(1e-150 * np.eye(6), np.zeros(6), tiny, s_out=3.05),
            LayerSpec(np.eye(6), np.zeros(6), s_out=3.05),
        ], GaussianHead(), s_in=3.05)
        report = full_report(net, default_constants(net, 10))
        assert report.layers[0].koopman_factor == math.inf
        assert report.layers[1].koopman_factor == pytest.approx(1.0)
        assert BoundReport.from_json(report.to_json()).layers == report.layers


class TestGFactor:
    def test_full_rank_square_is_one(self):
        assert g_factor_gaussian(LayerSpectrum.of(np.eye(3)), 1.0) == 1.0

    def test_codimension_three(self):
        w = np.zeros((6, 3))
        w[:3, :3] = np.eye(3)
        assert g_factor_gaussian(LayerSpectrum.of(w), 1.0) == pytest.approx((2.0 / math.pi) ** 0.75)

    def test_invalid_width(self):
        with pytest.raises(InvalidParameterError):
            g_factor_gaussian(LayerSpectrum.of(np.eye(2)), -1.0)


class TestActivationBound:
    def test_identity(self):
        assert activation_opnorm_bound(Identity(), 5) == 1.0

    def test_smooth_leaky_relu_default(self):
        # the derivative dips below alpha = 0.5 and peaks above 1, so the
        # bound must exceed (1/0.5)^2 = 4 but stays of that order
        val = activation_opnorm_bound(SmoothLeakyRelu(alpha=0.5, mu=0.5), 2)
        assert val >= 4.0
        assert val < 10.0

    def test_monotone_in_dimension(self):
        act = SmoothLeakyRelu()
        assert activation_opnorm_bound(act, 4) > activation_opnorm_bound(act, 2)

    def test_custom_pre_aggregated(self):
        act = CustomActivation(name="aff", derivative_sup=2.0, inverse_jacobian_sup=3.0)
        assert activation_opnorm_bound(act, 7) == pytest.approx(6.0)

    def test_extremes_beyond_the_old_grid(self):
        # sigma' peaks at x = 1/(mu (1 - alpha)) = 200, outside the
        # [-100, 100] grid that gave 1.234567901234568 here
        swing = math.erf(1.0) + 2.0 / (math.e * math.sqrt(math.pi))
        sup, inf = 0.5 * (1.9 + 0.1 * swing), 0.5 * (1.9 - 0.1 * swing)
        val = activation_opnorm_bound(SmoothLeakyRelu(alpha=0.9, mu=0.05), 2)
        assert val == pytest.approx((1.0 / inf) ** 2 * sup, rel=1e-12)
        assert val > 1.234567901234568

    @pytest.mark.parametrize("alpha,mu", [(0.9, 0.05), (0.5, 0.5), (0.3, 2.0), (0.2, 1e-3)])
    def test_bound_from_sampled_derivative(self, alpha, mu):
        # oracle: the derivative sampled densely around its extremes
        x = np.linspace(-3.0, 3.0, 600_001) / (mu * (1.0 - alpha))
        _, deriv = SmoothLeakyRelu(alpha=alpha, mu=mu).value_and_derivative(x)
        sampled = (1.0 / deriv.min()) ** 3 * max(1.0, deriv.max())
        val = activation_opnorm_bound(SmoothLeakyRelu(alpha=alpha, mu=mu), 3)
        assert val >= sampled * (1 - 1e-12)
        assert val == pytest.approx(sampled, rel=1e-9)

    def test_not_bi_lipschitz(self):
        # sigma' dips below zero near x = -1/(mu (1 - alpha)) once alpha < 0.114
        with pytest.raises(NotBiLipschitzError):
            activation_opnorm_bound(SmoothLeakyRelu(alpha=0.1, mu=0.001), 2)

    @pytest.mark.parametrize(
        "d,recorded", [(2, 5.6111801090104425), (128, 1.700295189156868e+46)]
    )
    def test_default_activation_unchanged(self, d, recorded):
        # values the earlier 400 001-point grid gave for the default activation
        val = activation_opnorm_bound(SmoothLeakyRelu(), d)
        assert val == pytest.approx(recorded, rel=1e-12)


class TestLayerSpectrum:
    MATRICES = [
        np.diag([3.0, 2.0, 0.5]),
        np.arange(12.0).reshape(4, 3),  # tall, rank 2
        np.outer([1.0, 2.0], [1.0, 0.0, 1.0]),  # wide, rank 1
        np.zeros((3, 2)),
        np.random.default_rng(8).standard_normal((6, 4)),
    ]

    @pytest.mark.parametrize("w", MATRICES)
    def test_fields_match_matcore(self, w):
        # each field against numpy: its SVD, rank, determinants and products
        spec = LayerSpectrum.of(w)
        sv = np.linalg.svd(w, compute_uv=False)
        assert spec.op_norm == sv[0]
        assert spec.fro_norm == matcore.pq_norm(w, 2, 2)
        rank = np.linalg.matrix_rank(w, tol=matcore.rank_tolerance(sv[0], *w.shape))
        assert spec.rank == rank
        assert spec.condition_number == (math.inf if sv[-1] == 0.0 else sv[0] / sv[-1])
        kept = sv[sv > 1e-8]
        assert spec.restricted_rank == kept.size
        assert math.exp(spec.restricted_logdet) == pytest.approx(np.prod(kept), rel=1e-12)
        assert spec.lifted_logdet == pytest.approx(
            math.log(np.linalg.det(np.eye(w.shape[1]) + w.T @ w)), abs=1e-12
        )
        if rank < w.shape[1]:
            assert spec.gram_logdet is None
        else:
            assert spec.gram_logdet == pytest.approx(math.log(np.linalg.det(w.T @ w)), abs=1e-12)

    def test_factors_raise_like_matcore(self):
        with pytest.raises(matcore.ShapeError):
            koopman_layer_factor(np.ones((2, 3)), 1.05)
        with pytest.raises(RankDeficientError) as err:
            koopman_layer_factor(np.diag([1.0, 0.0]), 1.05)
        assert err.value.sigma_min == 0.0

    def test_sigma_is_read_only(self):
        with pytest.raises(ValueError):
            LayerSpectrum.of(np.eye(2)).sigma[0] = 5.0


@pytest.fixture
def svd_calls(monkeypatch):
    """Count every numpy SVD, also those reached through numpy's private module."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    for owner in (np.linalg, getattr(np.linalg, "_linalg", np.linalg)):
        monkeypatch.setattr(owner, "svd", counted)
    for module in (bm, matcore, diagnostics):
        for name, value in vars(module).items():
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _digits_shape_net(seed=0):
    return trainer.build_network(
        [64, 128, 128, 10], SoftmaxHead(), seed=seed,
        init=["orthogonal", "orthogonal", "truncated_normal"],
    )


class TestSvdCount:
    def test_full_report_one_svd_per_layer(self, svd_calls):
        net = _digits_shape_net()
        c = default_constants(net, 1500)
        svd_calls.clear()
        full_report(net, c)
        assert len(svd_calls) <= 3

    def test_training_epoch_report_and_snapshot(self, svd_calls):
        rng = np.random.default_rng(0)
        data = trainer.Dataset(
            inputs=rng.random((40, 64)), targets=rng.integers(0, 10, 40),
            held_inputs=rng.random((20, 64)), held_targets=rng.integers(0, 10, 20),
        )
        counts = []
        for epochs in (1, 2):
            config = trainer.TrainConfig(
                epochs=epochs, regularizer="none", optimizer="adam",
                learning_rate=1e-3,
            )
            svd_calls.clear()
            run = trainer.train(config, data, _digits_shape_net(), classification=True)
            assert not run.diverged
            counts.append(len(svd_calls))
        # the second epoch adds only its report and snapshot
        assert counts[1] - counts[0] <= 3

    def test_bound_command_three_svds(self, svd_calls, tmp_path, capsys):
        path = tmp_path / "net.json"
        weightio.save_weights(_digits_shape_net(), path)
        svd_calls.clear()
        assert cli.main(["bound", str(path), "--n", "1500"]) == 0
        capsys.readouterr()
        assert svd_calls == [(128, 64), (128, 128), (10, 128)]

    def test_default_constants_runs_no_svd(self, svd_calls):
        default_constants(_digits_shape_net(), 1500)
        assert svd_calls == []

    def test_one_digits_epoch_three_svds(self, svd_calls):
        # the epoch's report; the snapshot reads it, and the constants need none
        config = dataclasses.replace(
            cli.default_train_config("digits", 0), epochs=1, regularizer="none"
        )
        data, net = trainer.load_digits(), _digits_shape_net()
        svd_calls.clear()
        assert not trainer.train(config, data, net, classification=True).diverged
        assert svd_calls == [(128, 64), (128, 128), (10, 128)]

    @pytest.mark.parametrize("depth", [1, 2])
    def test_class_upper_bound_one_svd_per_layer(self, svd_calls, depth):
        spec = rademacher.FunctionClassSpec(
            widths=(2,) * (depth + 1), constraint="inv", C=1.5, D=0.5
        )
        rademacher.class_upper_bound(spec, 20)
        assert svd_calls == [(2, 2)] * depth


class TestDefaultG:
    def _nets(self):
        full = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
        rank2 = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
        rank2.layers[1].weight[:, 2] = rank2.layers[1].weight[:, 1]
        return full, rank2

    def test_constants_depend_on_the_architecture_only(self):
        full, rank2 = self._nets()
        assert default_constants(full, 100) == default_constants(rank2, 100)

    def test_report_reads_g_from_each_net_spectrum(self):
        gs = []
        for net in self._nets():
            report = full_report(net, default_constants(net, 100))
            want = g_factor_gaussian(LayerSpectrum.of(net.layers[1].weight), net.head.c)
            assert report.metadata["g_factors"][-1] == want
            gs.append(want)
        assert gs[0] > gs[1]  # codimension 3 against 4, and 2c/pi < 1


def _variant_choice(layer: LayerSpec) -> str:
    """The report row's `variant_choice` for a one-layer net."""
    net = NetworkSpec(input_dim=layer.in_dim, layers=[layer])
    return full_report(net, constants_for(net)).layers[0].variant_choice


class TestChooseVariant:
    def test_square_full_rank(self):
        layer = LayerSpec(weight=np.eye(3), bias=np.zeros(3))
        assert _variant_choice(layer) == "invertible"

    def test_tall(self):
        layer = LayerSpec(weight=np.ones((4, 2)) + np.eye(4, 2), bias=np.zeros(4))
        assert _variant_choice(layer) == "injective"

    def test_wide_routes_to_graph(self):
        layer = LayerSpec(weight=np.ones((2, 4)), bias=np.zeros(2), s_out=2.2)
        assert _variant_choice(layer) == "graph"

    def test_rank_deficient_routes_to_graph(self):
        layer = LayerSpec(weight=np.diag([1.0, 0.0]), bias=np.zeros(2))
        assert _variant_choice(layer) == "graph"


class TestVariants:
    def test_invertible_identity_layers(self):
        net = simple_net([np.eye(2), np.eye(2)], s_in=1.05)
        c = constants_for(net, n=16)
        # every layer factor is 1, so the total is the prefactor
        assert full_report(net, c).totals["invertible"] == pytest.approx(1.0 / 4.0)

    def test_invertible_rejects_tall(self):
        net = simple_net([np.vstack([np.eye(2), np.zeros((1, 2))])])
        report = full_report(net, constants_for(net))
        assert "invertible" not in report.totals
        assert report.inapplicable["invertible"] == "layer 1 is 3x2, not square"

    def test_injective_equals_invertible_for_square(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 3))
        net = simple_net([w])
        c = constants_for(net)
        report = full_report(net, c)
        assert report.totals["injective"] == pytest.approx(report.totals["invertible"])

    def test_graph_identity_spec_value(self):
        net = simple_net([np.eye(2)], s_in=1.55)
        net.layers[0].s_out = 1.55
        c = constants_for(net, n=1)
        assert full_report(net, c).totals["graph"] == pytest.approx(
            2.0 ** 0.275, rel=1e-12
        )

    def test_graph_finite_for_rank_deficient(self):
        net = simple_net([np.diag([1.0, 0.0])])
        val = full_report(net, constants_for(net)).totals["graph"]
        assert 0.0 < val < math.inf

    def test_weighted_spec_value(self):
        net = simple_net([np.diag([3.0, 0.0])], s_in=1.05)
        c = constants_for(net, n=1)
        assert full_report(net, c).totals["weighted"] == pytest.approx(
            3.0 ** 1.05 / math.sqrt(3.0), rel=1e-12
        )

    def test_weighted_zero_matrix_factor_one(self):
        net = simple_net([np.zeros((2, 2))], s_in=1.05)
        c = constants_for(net, n=1)
        assert full_report(net, c).totals["weighted"] == pytest.approx(1.0)


class TestCombined:
    def _net(self, seed=4):
        rng = np.random.default_rng(seed)
        return simple_net([rng.standard_normal((3, 3)), rng.standard_normal((6, 3))])

    def test_endpoint_full_prefix_is_injective(self):
        net = self._net()
        c = constants_for(net)
        report = full_report(net, c)
        assert report.combined_per_l[net.depth][1] == pytest.approx(
            report.totals["injective"], rel=1e-12
        )

    def test_endpoint_zero_is_frobenius_product(self):
        net = self._net()
        c = constants_for(net, n=25)
        expected = (
            4.0
            * np.linalg.norm(net.layers[0].weight, "fro")
            * np.linalg.norm(net.layers[1].weight, "fro")
            / 5.0
        )
        assert full_report(net, c).combined_per_l[0][1] == pytest.approx(expected, rel=1e-12)

    def test_full_prefix_equals_injective_exactly(self):
        for seed in range(5):
            net = self._net(seed)
            c = constants_for(net)
            report = full_report(net, c)
            assert report.combined_per_l[net.depth][1] == report.totals["injective"]

    def test_best_no_worse_than_endpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = simple_net(
                [rng.standard_normal((3, 3)), rng.standard_normal((5, 3))]
            )
            c = constants_for(net)
            report = full_report(net, c)
            per_l, best = report.combined_per_l, report.totals["combined"]
            assert best <= per_l[0][1] + 1e-12
            assert best <= per_l[net.depth][1] + 1e-12
            assert per_l[report.combined_l_star][1] == best

    def test_infeasible_prefix_reports_largest_l(self):
        net = simple_net([np.diag([1.0, 0.0]), np.ones((3, 2))])
        report = full_report(net, constants_for(net))
        assert report.combined_per_l[1][1] is None
        assert report.combined_l_star == 0
        assert report.inapplicable["injective"].startswith("layer 1")

    def test_reasons_and_prefix_name_the_first_failing_layer(self):
        # layer 1 is tall with full rank, layer 2 square and singular
        tall = np.random.default_rng(6).standard_normal((4, 3))
        net = simple_net([tall, np.diag([2.0, 1.0, 0.5, 0.0])])
        report = full_report(net, constants_for(net))
        assert report.inapplicable["invertible"] == "layer 1 is 4x3, not square"
        assert report.inapplicable["injective"].startswith("layer 2 lacks full column rank")
        assert report.combined_per_l[2][1] is None
        assert report.combined_l_star <= 1
        assert tuple(r.variant_choice for r in report.layers) == ("injective", "graph")

    def test_zero_layer_tail_is_zero_beside_an_overflowing_frobenius_norm(self):
        # 2 ||W_1||_F overflows float64; the zero layer 2 still makes every
        # feasible split's tail, and so the combined total, exactly 0
        net = simple_net([np.eye(3) * 1e308, np.zeros((6, 3))])
        report = full_report(net, constants_for(net))
        assert report.combined_per_l == [(0, 0.0), (1, 0.0), (2, None)]
        assert report.totals["combined"] == 0.0 and report.combined_l_star == 0


class TestCompetitors:
    @staticmethod
    def _report(net, n):
        return full_report(net, constants_for(net, n=n))

    def test_golowich_identity_example(self):
        net = simple_net([np.eye(2), np.eye(2)], s_in=1.05)
        # Frobenius product 2, min(4^{-1/4}, sqrt(2/4)) both 0.7071
        assert self._report(net, 4).totals["golowich18"] == pytest.approx(math.sqrt(2.0))

    def test_neyshabur15_identity(self):
        net = simple_net([np.eye(2), np.eye(2)], s_in=1.05)
        assert self._report(net, 4).totals["neyshabur15"] == pytest.approx(4.0 * 2.0 / 2.0)

    def test_neyshabur18_formula(self):
        w = np.diag([2.0, 1.0])
        net = simple_net([w])
        frob_sq = 5.0
        expected = 1 * 2 * 2.0 * math.sqrt(frob_sq / 4.0) / math.sqrt(9.0)
        assert self._report(net, 9).totals["neyshabur18"] == pytest.approx(expected)

    def test_bartlett_zero_reference_default(self):
        w = np.diag([2.0, 1.0])
        net = simple_net([w])
        disc = bm.pq_norm(w.T, 2, 1)
        expected = 2.0 / math.sqrt(4.0) * (disc ** (2 / 3) / 2.0 ** (2 / 3)) ** 1.5
        assert self._report(net, 4).totals["bartlett17"] == pytest.approx(expected)

    def test_zero_matrix_markers(self):
        net = simple_net([np.zeros((2, 2))])
        report = self._report(net, 4)
        assert "neyshabur18" in report.inapplicable
        assert "bartlett17" in report.inapplicable
        assert report.totals["neyshabur15"] == 0.0
        assert report.totals["golowich18"] == 0.0


class TestMatrixFactorProduct:
    def test_hand_computed_product(self):
        rng = np.random.default_rng(6)
        net = simple_net([rng.standard_normal((3, 3)), rng.standard_normal((6, 3))])
        expected = 1.0
        for j, layer in enumerate(net.layers):
            sv = np.linalg.svd(layer.weight, compute_uv=False)
            s = net.smoothness_chain()[j + 1]
            det = abs(oracles.cofactor_det(layer.weight.T @ layer.weight))
            expected *= sv[0] ** s / det ** 0.25
        report = full_report(net, constants_for(net))
        assert report.matrix_factor == pytest.approx(expected, rel=1e-10)

    def test_rank_deficient_is_inf(self):
        # exactly, and numerically: 1e-12 is below the rank tolerance 2e-8
        for w in (np.diag([1.0, 0.0]), np.diag([1.0, 1e-12])):
            net = simple_net([w])
            assert full_report(net, constants_for(net)).matrix_factor == math.inf

    def test_wide_full_row_rank_is_finite(self):
        # rank 2 = min(rows, cols): the product runs over both singular values
        w = np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        net = NetworkSpec(input_dim=3, layers=[LayerSpec(w, np.zeros(2), s_out=1.6)])
        expected = 2.0 ** 1.6 / (2.0 * 0.5) ** 0.5
        assert full_report(net, constants_for(net)).matrix_factor == pytest.approx(expected)


class TestFullReport:
    def _report(self):
        rng = np.random.default_rng(7)
        net = simple_net(
            [rng.standard_normal((3, 3)), rng.standard_normal((6, 3))],
            activation=SmoothLeakyRelu(),
        )
        c = default_constants(net, 64)
        return full_report(net, c)

    def test_totals_match_direct_calls(self):
        # hand formulas: sigma_1 from the characteristic polynomial, the
        # determinants by cofactor expansion
        rng = np.random.default_rng(7)
        net = simple_net(
            [rng.standard_normal((3, 3)), rng.standard_normal((6, 3))],
            activation=SmoothLeakyRelu(),
        )
        c = default_constants(net, 64)
        report = full_report(net, c)
        g_factors = report.metadata["g_factors"]
        injective = graph = c.prefactor
        frob = 1.0
        for j, layer in enumerate(net.layers):
            w, s = layer.weight, net.smoothness_chain()[j]
            sigma_1 = oracles.singular_values_via_charpoly(w)[0]
            per_layer = g_factors[j] * c.sigma_norms[j]
            gram = w.T @ w
            injective *= per_layer * max(1.0, sigma_1 ** s) / oracles.cofactor_det(gram) ** 0.25
            graph *= (
                per_layer * (1.0 + sigma_1 ** 2) ** (s / 2.0)
                / oracles.cofactor_det(gram + np.eye(3)) ** 0.25
            )
            frob *= math.sqrt(float(np.sum(w * w)))
        assert report.totals["injective"] == pytest.approx(injective, rel=1e-9)
        assert report.totals["graph"] == pytest.approx(graph, rel=1e-9)
        # full column rank: |det W_r|^(1/2) = det(W^T W)^(1/4), so weighted = injective
        assert report.totals["weighted"] == pytest.approx(injective, rel=1e-9)
        assert report.totals["neyshabur15"] == pytest.approx(4.0 * frob / 8.0, rel=1e-12)
        assert "invertible" in report.inapplicable  # layer 2 is tall

    def test_json_round_trip(self):
        report = self._report()
        clone = BoundReport.from_json(report.to_json())
        assert clone.totals == report.totals
        assert clone.inapplicable == report.inapplicable
        assert clone.layers[0].singular_values == report.layers[0].singular_values

    def test_csv_has_total_rows(self):
        report = self._report()
        text = report.to_csv()
        assert "total,injective" in text
        assert 'total,invertible,"inapplicable' in text

    def test_graph_total_flagged_modulo_psi_norm(self):
        report = self._report()
        assert any("psi-norm" in f for f in report.metadata["flags"])

    def test_rank_deficient_fixture_routing(self):
        net = simple_net([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        c = constants_for(net)
        report = full_report(net, c)
        assert "invertible" in report.inapplicable
        assert "injective" in report.inapplicable
        assert 0.0 < report.totals["graph"] < math.inf
        assert 0.0 < report.totals["weighted"] < math.inf
