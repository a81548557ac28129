"""Structural validation of the network description, and the bits of its
numeric kernels."""

import numpy as np
import oracles
import pytest

from koopbound import matcore, network
from koopbound.network import (
    CustomActivation,
    CustomHead,
    GaussianHead,
    LayerSpec,
    NetworkSpec,
    SmoothLeakyRelu,
    SoftmaxHead,
    ValidationError,
    default_smoothness,
)


def layer(rows, cols, s=None, **kw):
    return LayerSpec(
        weight=np.ones((rows, cols)), bias=np.zeros(rows), s_out=s, **kw
    )


class TestComponentValidation:
    def test_activation_parameter_ranges(self):
        with pytest.raises(ValueError):
            SmoothLeakyRelu(alpha=1.0)
        with pytest.raises(ValueError):
            SmoothLeakyRelu(alpha=0.5, mu=0.0)
        with pytest.raises(ValueError):
            CustomActivation("a", derivative_sup=0.0, inverse_jacobian_sup=1.0)
        with pytest.raises(ValueError):
            CustomActivation("a", derivative_sup=1.0, inverse_jacobian_sup=np.inf)

    def test_gaussian_head_needs_positive_c(self):
        with pytest.raises(ValueError):
            GaussianHead(c=0.0)

    @pytest.mark.parametrize("h_norm", [0.0, -1.0, np.inf, np.nan])
    def test_head_norms_positive_finite(self, h_norm):
        with pytest.raises(ValueError):
            SoftmaxHead(h_norm=h_norm)
        with pytest.raises(ValueError):
            CustomHead(name="h", h_norm=h_norm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bias_must_be_finite(self, bad):
        with pytest.raises(matcore.NotFiniteError):
            LayerSpec(weight=np.eye(2), bias=[0.0, bad])

    def test_default_smoothness(self):
        assert default_smoothness(3) == pytest.approx(1.55)
        assert default_smoothness(64) == pytest.approx(32.05)

    def test_layer_defaults(self):
        l = layer(4, 3)
        assert l.out_dim == 4 and l.in_dim == 3
        assert l.s_out == pytest.approx(default_smoothness(4))


class TestNetworkValidation:
    def test_valid_network_passes(self):
        net = NetworkSpec(input_dim=3, layers=[layer(3, 3), layer(6, 3)])
        net.validate()
        assert net.widths == [3, 3, 6]
        assert net.depth == 2

    def test_empty_network(self):
        with pytest.raises(ValidationError, match="at least one layer"):
            NetworkSpec(input_dim=3, layers=[]).validate()

    def test_width_chain_mismatch(self):
        net = NetworkSpec(input_dim=3, layers=[layer(3, 3), layer(6, 4)])
        with pytest.raises(ValidationError, match="layer 2"):
            net.validate()

    def test_bias_length_mismatch(self):
        bad = LayerSpec(weight=np.ones((3, 3)), bias=np.zeros(2))
        errs = NetworkSpec(input_dim=3, layers=[bad]).violations()
        assert any("bias length 2" in e for e in errs)

    def test_smoothness_must_exceed_half_width(self):
        net = NetworkSpec(input_dim=3, layers=[layer(3, 3, s=1.5)])
        with pytest.raises(ValidationError, match="must exceed"):
            net.validate()

    def test_smoothness_must_be_non_decreasing(self):
        net = NetworkSpec(
            input_dim=3, layers=[layer(6, 3, s=3.05), layer(3, 6, s=1.55)],
        )
        # the narrow output layer still needs s >= the previous exponent
        with pytest.raises(ValidationError, match="non-decreasing"):
            net.validate()

    def test_all_violations_collected(self):
        net = NetworkSpec(
            input_dim=3,
            layers=[layer(3, 3, s=1.0), layer(6, 4, s=0.5)],
            s_in=1.0,
        )
        errs = net.violations()
        assert len(errs) >= 4  # s_in, two smoothness bounds, width mismatch
        with pytest.raises(ValidationError) as info:
            net.validate()
        assert info.value.violations == errs

    def test_smoothness_chain(self):
        net = NetworkSpec(
            input_dim=3, layers=[layer(3, 3, s=1.6), layer(6, 3, s=3.05)],
        )
        assert net.smoothness_chain() == [pytest.approx(1.55), 1.6, 3.05]


# random values, signed zeros, the float64 extremes and subnormals
ACTIVATION_INPUTS = np.concatenate([
    4.0 * np.random.default_rng(0).standard_normal(300),
    [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1e-310, -2.5e-309],
])


class TestActivationBits:
    """The activation equals the allocating reference expression bit for bit."""

    @pytest.mark.parametrize("alpha,mu", [(0.5, 0.5), (0.1, 3.0), (0.9, 0.01)])
    def test_value_and_derivative_match_reference(self, alpha, mu):
        act = SmoothLeakyRelu(alpha=alpha, mu=mu)
        with np.errstate(over="ignore"):  # u * u is inf at +-1e300, exp(-u * u) 0
            want_value, want_deriv = oracles.smooth_leaky_relu_reference(
                ACTIVATION_INPUTS, alpha, mu
            )
            value, deriv = act.value_and_derivative(ACTIVATION_INPUTS)
        assert value.tobytes() == want_value.tobytes()
        assert deriv.tobytes() == want_deriv.tobytes()
        assert act.value(ACTIVATION_INPUTS).tobytes() == want_value.tobytes()

    def test_stacked_and_strided_layouts(self):
        act = SmoothLeakyRelu()
        z = np.random.default_rng(1).standard_normal((50, 2, 20))
        for x in (z, z.transpose(2, 0, 1), z[:, 1]):
            want_value, want_deriv = oracles.smooth_leaky_relu_reference(x, act.alpha, act.mu)
            value, deriv = act.value_and_derivative(x)
            assert value.shape == x.shape and deriv.shape == x.shape
            assert np.array_equal(value.view(np.uint64), want_value.view(np.uint64))
            assert np.array_equal(deriv.view(np.uint64), want_deriv.view(np.uint64))

    def test_input_left_unmodified(self):
        act = SmoothLeakyRelu()
        x = ACTIVATION_INPUTS.copy()
        act.value(x)
        with np.errstate(over="ignore"):
            act.value_and_derivative(x)
        assert x.tobytes() == ACTIVATION_INPUTS.tobytes()


class TestGaussianHeadKernel:
    """exp(-c ||z||^2) over axis 1 equals the np.sum expression bit for bit."""

    @pytest.mark.parametrize("width", range(1, 13))
    def test_matches_np_sum(self, width):
        rng = np.random.default_rng(width)
        c = 0.7
        for z in (rng.standard_normal((257, width)), rng.standard_normal((9, width, 31))):
            want = np.exp(-c * np.sum(z * z, axis=1))
            got = network._gaussian_head(c, z)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
