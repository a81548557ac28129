import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import bounds as bm
from koopbound import diagnostics, matcore, network, trainer
from koopbound.bounds import (
    BoundConstants,
    BoundReport,
    GridSpec,
    LayerSpectrum,
    NotBiLipschitzError,
    VariantInapplicable,
    activation_opnorm_bound,
    bound_bartlett17,
    bound_combined,
    bound_combined_best,
    bound_golowich18,
    bound_graph,
    bound_injective,
    bound_invertible,
    bound_neyshabur15,
    bound_neyshabur18,
    bound_weighted,
    choose_variant,
    default_constants,
    density_ratio_bound,
    density_ratio_grid_sup,
    full_report,
    g_factor_gaussian,
    koopman_layer_factor,
    matrix_factor_product,
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

    def test_grid_sup_never_exceeds_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            w = rng.standard_normal((d, d))
            s = (d + 0.1) / 2.0
            assert density_ratio_grid_sup(w, s, s) <= density_ratio_bound(w, s) + 1e-9

    def test_grid_sup_tight_for_expanding_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = rng.standard_normal((3, 3))
            w *= 3.0 / bm.operator_norm(w)
            s = 1.55
            assert density_ratio_grid_sup(w, s, s) >= 0.99 * density_ratio_bound(w, s)

    def test_grid_requires_compatible_orders(self):
        with pytest.raises(InvalidParameterError):
            density_ratio_grid_sup(np.eye(2), 2.0, 1.5)

    def test_grid_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(num_radii=0).radii()


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
        expected = 1.0 / math.exp(bm.gram_logdet(w) / 4.0)
        assert koopman_layer_factor(w, s) == pytest.approx(expected)


class TestGFactor:
    def test_full_rank_square_is_one(self):
        assert g_factor_gaussian(np.eye(3), 1.0) == 1.0

    def test_codimension_three(self):
        w = np.zeros((6, 3))
        w[:3, :3] = np.eye(3)
        assert g_factor_gaussian(w, 1.0) == pytest.approx((2.0 / math.pi) ** 0.75)

    def test_invalid_width(self):
        with pytest.raises(InvalidParameterError):
            g_factor_gaussian(np.eye(2), -1.0)


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
        deriv = network.smooth_leaky_relu_derivative(x, alpha, mu)
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
        spec = LayerSpectrum.of(w)
        assert spec.op_norm == matcore.operator_norm(w)
        assert spec.fro_norm == matcore.pq_norm(w, 2, 2)
        assert spec.rank == matcore.numeric_rank(w)
        assert spec.condition_number == matcore.condition_number(w)
        rdet, rrank = matcore.restricted_det(w, 1e-8)
        assert spec.restricted_rank == rrank
        assert math.exp(spec.restricted_logdet) == pytest.approx(rdet, rel=1e-12)
        assert spec.lifted_logdet == pytest.approx(
            math.log(np.linalg.det(np.eye(w.shape[1]) + w.T @ w)), abs=1e-12
        )
        try:
            expected = matcore.gram_logdet(w)
        except (RankDeficientError, matcore.ShapeError):
            expected = None
        assert spec.gram_logdet == expected

    def test_factors_raise_like_matcore(self):
        with pytest.raises(matcore.ShapeError):
            koopman_layer_factor(LayerSpectrum.of(np.ones((2, 3))), 1.05)
        with pytest.raises(RankDeficientError) as err:
            koopman_layer_factor(LayerSpectrum.of(np.diag([1.0, 0.0])), 1.05)
        assert err.value.sigma_min == 0.0

    def test_sigma_is_read_only(self):
        with pytest.raises(ValueError):
            LayerSpectrum.of(np.eye(2)).sigma[0] = 5.0

    def test_invalid_weighted_tol(self):
        with pytest.raises(InvalidParameterError):
            LayerSpectrum.of(np.eye(2), weighted_tol=0.0)


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
                learning_rate=1e-3, head_loss="cross_entropy",
            )
            svd_calls.clear()
            run = trainer.train(config, data, _digits_shape_net(), classification=True)
            assert not run.diverged
            counts.append(len(svd_calls))
        # the second epoch adds only its report and snapshot
        assert counts[1] - counts[0] <= 3


class TestChooseVariant:
    def test_square_full_rank(self):
        layer = LayerSpec(weight=np.eye(3), bias=np.zeros(3))
        assert choose_variant(layer, 3).tag == "invertible"

    def test_tall(self):
        layer = LayerSpec(weight=np.ones((4, 2)) + np.eye(4, 2), bias=np.zeros(4))
        assert choose_variant(layer, 2).tag == "injective"

    def test_wide_routes_to_graph(self):
        layer = LayerSpec(weight=np.ones((2, 4)), bias=np.zeros(2), s_out=2.2)
        choice = choose_variant(layer, 4)
        assert choice.tag == "graph"
        assert choice.alternate == "weighted"

    def test_rank_deficient_routes_to_graph(self):
        layer = LayerSpec(weight=np.diag([1.0, 0.0]), bias=np.zeros(2))
        assert choose_variant(layer, 2).tag == "graph"


class TestVariants:
    def test_invertible_identity_layers(self):
        net = simple_net([np.eye(2), np.eye(2)], s_in=1.05)
        c = constants_for(net, n=16)
        # every layer factor is 1, so the total is the prefactor
        assert bound_invertible(net, c) == pytest.approx(1.0 / 4.0)

    def test_invertible_rejects_tall(self):
        net = simple_net([np.vstack([np.eye(2), np.zeros((1, 2))])])
        with pytest.raises(VariantInapplicable):
            bound_invertible(net, constants_for(net))

    def test_injective_equals_invertible_for_square(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 3))
        net = simple_net([w])
        c = constants_for(net)
        assert bound_injective(net, c) == pytest.approx(bound_invertible(net, c))

    def test_graph_identity_spec_value(self):
        net = simple_net([np.eye(2)], s_in=1.55)
        net.layers[0].s_out = 1.55
        c = constants_for(net, n=1)
        assert bound_graph(net, c) == pytest.approx(2.0 ** 0.275, rel=1e-12)

    def test_graph_finite_for_rank_deficient(self):
        net = simple_net([np.diag([1.0, 0.0])])
        val = bound_graph(net, constants_for(net))
        assert 0.0 < val < math.inf

    def test_weighted_spec_value(self):
        net = simple_net([np.diag([3.0, 0.0])], s_in=1.05)
        c = constants_for(net, n=1)
        assert bound_weighted(net, c) == pytest.approx(
            3.0 ** 1.05 / math.sqrt(3.0), rel=1e-12
        )

    def test_weighted_zero_matrix_factor_one(self):
        net = simple_net([np.zeros((2, 2))], s_in=1.05)
        c = constants_for(net, n=1)
        assert bound_weighted(net, c) == pytest.approx(1.0)

    def test_weighted_invalid_tol(self):
        net = simple_net([np.eye(2)])
        with pytest.raises(InvalidParameterError):
            bound_weighted(net, constants_for(net), tol=0.0)


class TestCombined:
    def _net(self, seed=4):
        rng = np.random.default_rng(seed)
        return simple_net([rng.standard_normal((3, 3)), rng.standard_normal((6, 3))])

    def test_endpoint_full_prefix_is_injective(self):
        net = self._net()
        c = constants_for(net)
        assert bound_combined(net, c, net.depth) == pytest.approx(
            bound_injective(net, c), rel=1e-12
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
        assert bound_combined(net, c, 0) == pytest.approx(expected, rel=1e-12)

    def test_full_prefix_equals_injective_exactly(self):
        for seed in range(5):
            net = self._net(seed)
            c = constants_for(net)
            _, _, per_l = bound_combined_best(net, c)
            assert per_l[net.depth][1] == bound_injective(net, c)

    def test_best_no_worse_than_endpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = simple_net(
                [rng.standard_normal((3, 3)), rng.standard_normal((5, 3))]
            )
            c = constants_for(net)
            l_star, best, per_l = bound_combined_best(net, c)
            assert best <= bound_combined(net, c, 0) + 1e-12
            assert best <= bound_combined(net, c, net.depth) + 1e-12
            assert per_l[l_star][1] == best

    def test_infeasible_prefix_reports_largest_l(self):
        net = simple_net([np.diag([1.0, 0.0]), np.ones((3, 2))])
        c = constants_for(net)
        with pytest.raises(VariantInapplicable) as err:
            bound_combined(net, c, 1)
        assert err.value.largest_feasible_l == 0

    def test_l_out_of_range(self):
        net = self._net()
        with pytest.raises(InvalidParameterError):
            bound_combined(net, constants_for(net), 3)


class TestCompetitors:
    def test_golowich_identity_example(self):
        net = simple_net([np.eye(2), np.eye(2)], s_in=1.05)
        # Frobenius product 2, min(4^{-1/4}, sqrt(2/4)) both 0.7071
        assert bound_golowich18(net, 4) == pytest.approx(math.sqrt(2.0))

    def test_neyshabur15_identity(self):
        net = simple_net([np.eye(2), np.eye(2)], s_in=1.05)
        assert bound_neyshabur15(net, 4) == pytest.approx(4.0 * 2.0 / 2.0)

    def test_neyshabur18_formula(self):
        w = np.diag([2.0, 1.0])
        net = simple_net([w])
        frob_sq = 5.0
        expected = 1 * 2 * 2.0 * math.sqrt(frob_sq / 4.0) / math.sqrt(9.0)
        assert bound_neyshabur18(net, 9) == pytest.approx(expected)

    def test_bartlett_zero_reference_default(self):
        w = np.diag([2.0, 1.0])
        net = simple_net([w])
        disc = bm.pq_norm(w.T, 2, 1)
        expected = 2.0 / math.sqrt(4.0) * (disc ** (2 / 3) / 2.0 ** (2 / 3)) ** 1.5
        assert bound_bartlett17(net, 4) == pytest.approx(expected)

    def test_bartlett_exact_reference_gives_zero(self):
        w = np.diag([2.0, 1.0])
        net = simple_net([w])
        assert bound_bartlett17(net, 4, refs=[w]) == pytest.approx(0.0)

    def test_zero_matrix_markers(self):
        net = simple_net([np.zeros((2, 2))])
        with pytest.raises(VariantInapplicable):
            bound_neyshabur18(net, 4)
        with pytest.raises(VariantInapplicable):
            bound_bartlett17(net, 4)
        assert bound_neyshabur15(net, 4) == 0.0
        assert bound_golowich18(net, 4) == 0.0


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
        assert matrix_factor_product(net) == pytest.approx(expected, rel=1e-10)

    def test_rank_deficient_is_inf(self):
        net = simple_net([np.diag([1.0, 0.0])])
        assert matrix_factor_product(net) == math.inf


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
        rng = np.random.default_rng(7)
        net = simple_net(
            [rng.standard_normal((3, 3)), rng.standard_normal((6, 3))],
            activation=SmoothLeakyRelu(),
        )
        c = default_constants(net, 64)
        report = full_report(net, c)
        assert report.totals["injective"] == pytest.approx(bound_injective(net, c))
        assert report.totals["graph"] == pytest.approx(bound_graph(net, c))
        assert report.totals["weighted"] == pytest.approx(bound_weighted(net, c))
        assert report.totals["neyshabur15"] == pytest.approx(bound_neyshabur15(net, 64))
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
