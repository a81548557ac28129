"""Training loop, gradients, regularizers, datasets, and initialization."""

import math

import numpy as np
import pytest

import oracles
from koopbound import trainer as trainer_mod
from koopbound.cli import build_task
from koopbound.matcore import RankDeficientError
from koopbound.network import (
    CustomActivation,
    CustomHead,
    GaussianHead,
    SmoothLeakyRelu,
    SoftmaxHead,
)
from koopbound.trainer import (
    Dataset,
    TrainConfig,
    TrainerError,
    build_network,
    check_setup,
    forward,
    init_weight,
    load_digits,
    loss_and_grads,
    make_synthetic,
    regularizer_perlayer,
    regularizer_synthetic,
    synthetic_target,
    train,
)


class TestActivation:
    def test_zero_fixed_point(self):
        assert SmoothLeakyRelu().value(0.0) == 0.0

    def test_asymptotes(self):
        # large positive ~ identity, large negative ~ alpha * x
        act = SmoothLeakyRelu(alpha=0.5, mu=0.5)
        assert act.value(50.0) == pytest.approx(50.0)
        assert act.value(-50.0) == pytest.approx(-25.0)

    def test_derivative_matches_central_difference(self):
        xs = np.linspace(-3, 3, 41)
        for alpha, mu in [(0.5, 0.5), (0.3, 1.0)]:
            act = SmoothLeakyRelu(alpha=alpha, mu=mu)
            num = oracles.central_difference(
                lambda v: float(np.sum(act.value(v))), xs.copy()
            )
            value, ana = act.value_and_derivative(xs)
            assert np.allclose(num, ana, atol=1e-7)
            assert np.array_equal(value, act.value(xs))


class TestForward:
    def test_matches_straightline_reference(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=4)
        rng = np.random.default_rng(0)
        act = net.layers[0].activation
        for _ in range(10):
            x = rng.standard_normal(3)
            ref = oracles.forward_reference(
                [l.weight for l in net.layers],
                [l.bias for l in net.layers],
                act.alpha,
                act.mu,
                x,
                c_gauss=net.head.c,
            )
            assert forward(net, x) == pytest.approx(ref, rel=1e-12)

    def test_softmax_rows_sum_to_one(self):
        net = build_network([5, 8, 4], SoftmaxHead(), seed=1)
        probs = forward(net, np.random.default_rng(2).standard_normal((7, 5)))
        assert probs.shape == (7, 4)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_batch_consistent_with_single(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=4)
        xs = np.random.default_rng(3).standard_normal((5, 3))
        batch = forward(net, xs)
        singles = [forward(net, x) for x in xs]
        assert np.allclose(batch, singles)


def _loss_of_weights(net, X, Y, head_loss):
    def fn(layer_idx):
        def inner(w):
            old = net.layers[layer_idx].weight
            net.layers[layer_idx].weight = w
            val, _ = loss_and_grads(net, X, Y, head_loss)
            net.layers[layer_idx].weight = old
            return val

        return inner

    return fn


class TestLossGradients:
    @pytest.mark.parametrize("widths,head,head_loss", [
        ([3, 3, 6], GaussianHead(), "squared"),
        ([4, 6, 5], SoftmaxHead(), "cross_entropy"),
    ])
    def test_weight_gradients_match_finite_differences(self, widths, head, head_loss):
        rng = np.random.default_rng(11)
        net = build_network(widths, head, seed=7)
        X = rng.standard_normal((12, widths[0]))
        if head_loss == "squared":
            Y = synthetic_target(X) if widths[0] == 3 else rng.random(12)
        else:
            Y = rng.integers(0, widths[-1], size=12)
        _, grads = loss_and_grads(net, X, Y, head_loss)
        make_fn = _loss_of_weights(net, X, Y, head_loss)
        for j in range(len(net.layers)):
            num = oracles.central_difference(make_fn(j), net.layers[j].weight.copy())
            assert np.allclose(grads[j][0], num, rtol=1e-5, atol=1e-7)

    def test_bias_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        net = build_network([3, 4, 2], SoftmaxHead(), seed=3)
        X = rng.standard_normal((9, 3))
        Y = rng.integers(0, 2, size=9)
        _, grads = loss_and_grads(net, X, Y, "cross_entropy")
        for j, layer in enumerate(net.layers):
            def fn(b, j=j, layer=layer):
                old = layer.bias
                layer.bias = b
                val, _ = loss_and_grads(net, X, Y, "cross_entropy")
                layer.bias = old
                return val

            num = oracles.central_difference(fn, layer.bias.copy())
            assert np.allclose(grads[j][1], num, rtol=1e-5, atol=1e-7)

    def test_empty_batch_rejected(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=0)
        with pytest.raises(TrainerError):
            loss_and_grads(net, np.empty((0, 3)), np.empty(0))

    def test_cross_entropy_needs_softmax_head(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=0)
        with pytest.raises(TrainerError):
            loss_and_grads(net, np.ones((2, 3)), np.array([0, 1]), "cross_entropy")

    def test_head_without_loss_fails_setup(self):
        net = build_network([3, 3, 6], CustomHead("poly"), seed=0)
        with pytest.raises(TrainerError, match="has no training loss"):
            check_setup(TrainConfig(epochs=1), net)

    def test_custom_activation_not_trainable(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=0)
        net.layers[0].activation = CustomActivation(
            "aff", derivative_sup=2.0, inverse_jacobian_sup=3.0
        )
        with pytest.raises(TrainerError):
            loss_and_grads(net, np.ones((2, 3)), np.array([0.5, 0.5]))

    def test_mismatched_head_rejected(self):
        net = build_network([3, 4, 2], SoftmaxHead(), seed=0)
        with pytest.raises(TrainerError):
            loss_and_grads(net, np.ones((2, 3)), np.array([0.5, 0.5]), "squared")

    @pytest.mark.parametrize("widths,head,head_loss", [
        ([3, 4, 2], SoftmaxHead(), "cross_entropy"),
        ([3, 3, 6], GaussianHead(), "squared"),
    ])
    def test_default_loss_follows_head(self, widths, head, head_loss):
        net = build_network(widths, head, seed=3)
        rng = np.random.default_rng(3)
        X = rng.random((5, 3))
        Y = rng.integers(0, 2, 5) if head_loss == "cross_entropy" else rng.random(5)
        loss, grads = loss_and_grads(net, X, Y)
        loss_named, grads_named = loss_and_grads(net, X, Y, head_loss)
        assert loss == loss_named
        for (gw, gb), (nw, nb) in zip(grads, grads_named):
            assert np.array_equal(gw, nw) and np.array_equal(gb, nb)


class TestPerLayerRegularizer:
    def test_zero_matrix_value(self):
        # ||0|| = 0 and det(I + 0) = 1, so the value is exactly lam2
        val, _ = regularizer_perlayer(np.zeros((4, 3)), lam1=0.3, lam2=0.7)
        assert val == pytest.approx(0.7)

    def test_identity_value(self):
        # ||I_d|| = 1 and det(2 I_d) = 2^d
        for d in (2, 5):
            val, _ = regularizer_perlayer(np.eye(d), lam1=0.3, lam2=0.7)
            assert val == pytest.approx(0.3 + 0.7 / 2 ** d)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for shape in [(3, 3), (5, 2), (2, 5)]:
            w = rng.standard_normal(shape)
            s = np.linalg.svd(w, compute_uv=False)
            if s[0] - s[1] < 1e-3:
                continue  # top singular pair not differentiable here
            _, g = regularizer_perlayer(w, 0.4, 0.9)
            num = oracles.central_difference(
                lambda m: regularizer_perlayer(m, 0.4, 0.9)[0], w.copy()
            )
            assert np.allclose(g, num, rtol=1e-5, atol=1e-8)


class TestSyntheticRegularizer:
    def test_scaled_identity_value(self):
        net = build_network([2, 2, 2], GaussianHead(), seed=0)
        for layer in net.layers:
            layer.weight = 2.0 * np.eye(2)
        # per layer: det(W^T W)^(-1/2) = 1/4, ||W|| = 2
        val, _ = regularizer_synthetic(net, lam=0.5)
        assert val == pytest.approx(0.5 * (1 / 16 + 10.0 * 4.0))

    def test_gradient_matches_finite_differences(self):
        net = build_network([3, 3, 3], GaussianHead(), seed=9)
        _, grads = regularizer_synthetic(net, lam=0.3)
        for j in range(len(net.layers)):
            def fn(w, j=j):
                old = net.layers[j].weight
                net.layers[j].weight = w
                val, _ = regularizer_synthetic(net, lam=0.3)
                net.layers[j].weight = old
                return val

            num = oracles.central_difference(fn, net.layers[j].weight.copy())
            assert np.allclose(grads[j], num, rtol=1e-4, atol=1e-8)

    def test_wide_layer_rejected(self):
        net = build_network([4, 3, 3], GaussianHead(), seed=0)
        with pytest.raises(RankDeficientError):
            regularizer_synthetic(net, lam=0.1)

    def test_singular_layer_rejected(self):
        net = build_network([2, 2, 2], GaussianHead(), seed=0)
        net.layers[0].weight = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankDeficientError) as info:
            regularizer_synthetic(net, lam=0.1)
        assert info.value.sigma_min == pytest.approx(0.0, abs=1e-12)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def _perturbed_task(task: str, batch: int):
    """A task's net with every weight moved off its init and nonzero biases,
    and the first `batch` training rows."""
    data, net, _ = build_task(task, 0)
    rng = np.random.default_rng(5)
    for layer in net.layers:
        layer.weight += 0.05 * rng.standard_normal(layer.weight.shape)
        layer.bias += 0.1 * rng.standard_normal(layer.bias.shape)
    return net, data.inputs[:batch], data.targets[:batch]


class TestBitExactReferences:
    """loss_and_grads and regularizer_synthetic against plain allocating
    expressions of the same arithmetic, bit for bit: on the 3-3-6
    Gaussian-head net at batch 100 and the 64-128-128-10 softmax net at
    batch 32 (its last layer is wide, so the synthetic regularizer rejects it)."""

    @pytest.mark.parametrize("task,batch", [("synthetic", 100), ("digits", 32)])
    def test_loss_and_grads(self, task, batch):
        net, X, Y = _perturbed_task(task, batch)
        loss, grads = loss_and_grads(net, X, Y)
        ref_loss, ref_grads = oracles.loss_and_grads_reference(net, X, Y)
        assert _bits(loss) == _bits(ref_loss)
        for (gw, gb), (rw, rb) in zip(grads, ref_grads, strict=True):
            assert gw.shape == rw.shape and gb.shape == rb.shape
            assert np.array_equal(_bits(gw), _bits(rw))
            assert np.array_equal(_bits(gb), _bits(rb))

    def test_regularizer_synthetic(self):
        net, _, _ = _perturbed_task("synthetic", 100)
        value, grads = regularizer_synthetic(net, 0.01)
        ref_value, ref_grads = oracles.regularizer_synthetic_reference(net, 0.01)
        assert _bits(value) == _bits(ref_value)
        for g, r in zip(grads, ref_grads, strict=True):
            assert g.shape == r.shape and np.array_equal(_bits(g), _bits(r))


class TestDatasets:
    def test_synthetic_shapes_and_targets(self):
        ds = make_synthetic(50, seed=3)
        assert ds.inputs.shape == (50, 3)
        assert ds.held_inputs.shape == (500, 3)
        assert np.allclose(ds.targets, synthetic_target(ds.inputs))
        assert np.all(ds.targets > 0) and np.all(ds.targets <= 1)

    def test_synthetic_seeded(self):
        a, b = make_synthetic(20, seed=5), make_synthetic(20, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, make_synthetic(20, seed=6).inputs)

    def test_digits_split_and_range(self):
        ds = load_digits()
        assert ds.inputs.shape == (1500, 64)
        assert ds.held_inputs.shape == (300, 64)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        labels = np.concatenate([ds.targets, ds.held_targets]).astype(int)
        assert set(labels) == set(range(10))


class TestInit:
    def test_orthogonal_square(self):
        w = init_weight("orthogonal", 5, 5, np.random.default_rng(0))
        assert np.allclose(w.T @ w, np.eye(5), atol=1e-12)

    def test_orthogonal_rectangular_semi(self):
        tall = init_weight("orthogonal", 8, 3, np.random.default_rng(1))
        assert np.allclose(tall.T @ tall, np.eye(3), atol=1e-12)
        wide = init_weight("orthogonal", 3, 8, np.random.default_rng(1))
        assert np.allclose(wide @ wide.T, np.eye(3), atol=1e-12)

    def test_truncated_normal_bounded(self):
        w = init_weight("truncated_normal", 40, 30, np.random.default_rng(2))
        assert np.max(np.abs(w)) <= 2.0 * math.sqrt(2.0 / 30) + 1e-12

    def test_kaiming_scale(self):
        w = init_weight("kaiming", 400, 300, np.random.default_rng(3))
        assert np.std(w) == pytest.approx(math.sqrt(2.0 / 300), rel=0.05)

    def test_unknown_kind(self):
        with pytest.raises(TrainerError):
            init_weight("xavier", 3, 3, np.random.default_rng(0))


class TestBuildNetwork:
    def test_shapes_and_last_layer_identity(self):
        net = build_network([3, 5, 2], GaussianHead(), seed=0)
        assert [l.weight.shape for l in net.layers] == [(5, 3), (2, 5)]
        assert net.layers[0].activation.kind == "smooth_leaky_relu"
        assert net.layers[-1].activation.kind == "identity"

    def test_smoothness_chain_non_decreasing(self):
        net = build_network([6, 8, 8, 4], GaussianHead(), seed=0)
        chain = net.smoothness_chain()
        assert all(a <= b for a, b in zip(chain, chain[1:]))
        # the narrowing last layer inherits the previous exponent
        assert net.layers[-1].s_out == pytest.approx((8 + 0.1) / 2)

    def test_per_layer_init_list(self):
        net = build_network(
            [4, 4, 4], GaussianHead(), seed=1, init=["orthogonal", "kaiming"]
        )
        w = net.layers[0].weight
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-12)

    def test_init_list_length_checked(self):
        with pytest.raises(TrainerError):
            build_network([3, 3, 3], GaussianHead(), seed=0, init=["kaiming"])


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(TrainerError):
            TrainConfig(epochs=0)

    def test_negative_lr(self):
        with pytest.raises(TrainerError):
            TrainConfig(learning_rate=-0.1)

    def test_unknown_optimizer(self):
        with pytest.raises(TrainerError):
            TrainConfig(optimizer="rmsprop")

    def test_bad_lr_decay(self):
        with pytest.raises(TrainerError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(TrainerError):
            TrainConfig(lr_decay=1.5)

    def test_bad_lr_decay_start(self):
        with pytest.raises(TrainerError):
            TrainConfig(lr_decay_start=0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", True),
        ("regularizer", "l2"),
        ("batch_size", 0),
        ("batch_size", -4),
        ("batch_size", 2.5),
        ("epochs", "3"),
        ("lr_decay", "x"),
        ("optimizer", ["sgd"]),
        ("learning_rate", float("nan")),
        ("seed", -1),
        ("learning_rate", True),
        ("batch_size", True),
    ])
    def test_malformed_field_rejected(self, field, value):
        with pytest.raises(TrainerError):
            TrainConfig(**{field: value})

    def test_reg_layers_beyond_depth_rejected_before_training(self):
        cfg = TrainConfig(epochs=1, regularizer="perlayer")
        with pytest.raises(TrainerError, match=r"layers \(1, 2\); depth 1"):
            train(cfg, make_synthetic(20, seed=0), build_network([3, 6], GaussianHead(), seed=0))


class TestRankCollapse:
    def test_wide_layer_rejected_before_training(self):
        cfg = TrainConfig(epochs=1, regularizer="synthetic")
        with pytest.raises(TrainerError, match="layer 1 is wide"):
            train(cfg, make_synthetic(20, seed=0), build_network([3, 2, 6], GaussianHead(), seed=0))

    def test_singular_layer_ends_as_divergence(self):
        net = build_network([3, 3, 6], GaussianHead(), seed=0)
        net.layers[0].weight[:] = np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 1.0])
        cfg = TrainConfig(epochs=3, regularizer="synthetic", batch_size=100)
        run = train(cfg, make_synthetic(200, seed=0), net)
        assert run.diverged
        assert run.metrics == [] and run.spectrum.epochs == []

    def test_underflowing_determinant_term_ends_as_divergence(self):
        # det(W^T W)^(-1/2) = e^-829 underflows to 0.0 for layer 1 = 1e120 * I
        net = build_network([3, 3, 6], GaussianHead(), seed=0)
        net.layers[0].weight = 1e120 * np.eye(3)
        cfg = TrainConfig(epochs=1, regularizer="synthetic", batch_size=100)
        run = train(cfg, make_synthetic(200, seed=0), net)
        assert run.diverged
        assert run.metrics == [] and run.spectrum.epochs == []

    def test_overflowing_koopman_factor_ends_as_divergence(self):
        # 1 / det(W^T W)^(1/4) = e^884 for a full-rank 128x128 layer 1e-6 * Q
        net = build_network(
            [64, 128, 128, 10], SoftmaxHead(), seed=0,
            init=["orthogonal", "orthogonal", "truncated_normal"],
        )
        net.layers[1].weight *= 1e-6
        cfg = TrainConfig(epochs=1, learning_rate=0.0)
        run = train(cfg, load_digits(), net, classification=True)
        assert run.diverged
        assert run.metrics == [] and run.spectrum.epochs == []

    def test_collapse_mid_run_keeps_earlier_epochs(self, monkeypatch):
        calls = []
        real = trainer_mod.regularizer_synthetic

        def collapsing(net, lam):
            calls.append(1)
            if len(calls) > 25:  # 10 steps per epoch: mid epoch 3
                raise RankDeficientError("layer 1 is numerically singular", sigma_min=0.0)
            return real(net, lam)

        monkeypatch.setattr(trainer_mod, "regularizer_synthetic", collapsing)
        cfg = TrainConfig(epochs=5, regularizer="synthetic", batch_size=100)
        run = train(cfg, make_synthetic(1000, seed=0),
                    build_network([3, 3, 6], GaussianHead(), seed=0))
        assert run.diverged
        assert [m.epoch for m in run.metrics] == [1, 2]
        assert [rec.epoch for rec in run.spectrum.epochs] == [1, 2]


def _small_run(**overrides):
    kwargs = dict(epochs=5, learning_rate=0.05, regularizer="synthetic")
    kwargs.update(overrides)
    cfg = TrainConfig(**kwargs)
    ds = make_synthetic(60, seed=0)
    net = build_network([3, 3, 6], GaussianHead(), seed=0)
    return train(cfg, ds, net)


class TestTrainLoop:
    def test_deterministic_repeat(self):
        a = _small_run(batch_size=16)
        b = _small_run(batch_size=16)
        for la, lb in zip(a.net.layers, b.net.layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
        assert a.metrics_csv() == b.metrics_csv()

    def test_zero_learning_rate_freezes_weights(self):
        run = _small_run(learning_rate=0.0)
        fresh = build_network([3, 3, 6], GaussianHead(), seed=0)
        for trained, init in zip(run.net.layers, fresh.layers):
            assert np.array_equal(trained.weight, init.weight)
        losses = [m.train_loss for m in run.metrics]
        assert max(losses) == pytest.approx(min(losses))

    def test_lr_decay_changes_trajectory(self):
        plain = _small_run(batch_size=16)
        decayed = _small_run(batch_size=16, lr_decay=0.5)
        assert not np.array_equal(
            plain.net.layers[0].weight, decayed.net.layers[0].weight
        )

    def test_lr_decay_after_last_epoch_is_inert(self):
        plain = _small_run(batch_size=16)
        delayed = _small_run(batch_size=16, lr_decay=0.5, lr_decay_start=5)
        for la, lb in zip(plain.net.layers, delayed.net.layers):
            assert np.array_equal(la.weight, lb.weight)

    def test_loss_decreases(self):
        run = _small_run(epochs=30, batch_size=None)
        assert run.metrics[-1].train_loss < run.metrics[0].train_loss
        assert not run.diverged

    def test_divergence_flagged_with_partial_metrics(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = _small_run(epochs=50, learning_rate=1e160, regularizer="none")
        assert run.diverged
        assert len(run.metrics) < 50

    def test_spectrum_logged_every_epoch(self):
        run = _small_run(epochs=4)
        assert [rec.epoch for rec in run.spectrum.epochs] == [1, 2, 3, 4]
        assert len(run.spectrum.epochs[0].layers) == 2

    def test_adam_runs_and_differs_from_sgd(self):
        sgd = _small_run(epochs=3)
        adam = _small_run(epochs=3, optimizer="adam")
        assert not np.array_equal(sgd.net.layers[0].weight, adam.net.layers[0].weight)

    def test_gen_error_estimate_is_absolute_gap(self):
        ds = make_synthetic(40, seed=2)
        net = build_network([3, 3, 6], GaussianHead(), seed=2)
        t, _ = loss_and_grads(net, ds.inputs, ds.targets)
        h, _ = loss_and_grads(net, ds.held_inputs, ds.held_targets)
        assert oracles.gen_error_estimate(net, ds) == pytest.approx(abs(h - t))

    def test_classification_accuracy_bounds(self):
        ds = load_digits()
        net = build_network([64, 16, 10], SoftmaxHead(), seed=0)
        acc = oracles.classification_accuracy(net, ds.held_inputs, ds.held_targets)
        assert 0.0 <= acc <= 1.0


class TestEpochEvaluation:
    @pytest.mark.parametrize("batch_size,steps", [(100, 10), (None, 1)])
    def test_one_backward_pass_per_optimizer_step(self, monkeypatch, batch_size, steps):
        calls = []
        real = trainer_mod.loss_and_grads

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "loss_and_grads", counting)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, regularizer="synthetic",
                          batch_size=batch_size)
        run = train(cfg, make_synthetic(1000, seed=0),
                    build_network([3, 3, 6], GaussianHead(), seed=0))
        assert len(run.metrics) == 2
        assert len(calls) == 2 * steps

    @pytest.mark.parametrize("classify", [False, True])
    def test_last_row_equals_public_evaluations(self, classify):
        if classify:
            rng = np.random.default_rng(4)
            data = Dataset(rng.random((120, 8)), rng.integers(0, 4, 120),
                           rng.random((60, 8)), rng.integers(0, 4, 60))
            net = build_network([8, 12, 4], SoftmaxHead(), seed=2)
            cfg = TrainConfig(epochs=3, learning_rate=0.01, optimizer="adam",
                              regularizer="perlayer", batch_size=32)
            head_loss = "cross_entropy"
        else:
            data = make_synthetic(200, seed=1)
            net = build_network([3, 3, 6], GaussianHead(), seed=1)
            cfg = TrainConfig(epochs=3, regularizer="synthetic", batch_size=50)
            head_loss = "squared"
        run = train(cfg, data, net, classification=classify)
        last = run.metrics[-1]
        loss, _ = loss_and_grads(run.net, data.inputs, data.targets, head_loss)
        assert last.train_loss == loss
        assert last.gen_error == oracles.gen_error_estimate(run.net, data)
        if classify:
            acc = oracles.classification_accuracy(run.net, data.held_inputs, data.held_targets)
            assert last.test_accuracy == acc
        else:
            assert last.test_accuracy is None
