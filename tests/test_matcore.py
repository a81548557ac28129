import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import matcore
from koopbound.matcore import (
    InvalidParameterError,
    NotFiniteError,
    RankDeficientError,
    ShapeError,
    SvdConvergenceError,
    LayerSpectrum,
    log1p_square,
    pq_norm,
    rank_tolerance,
    singular_values,
)
from koopbound.network import GaussianHead, SoftmaxHead
from koopbound.trainer import build_network

import oracles


def random_matrix(rng, rows, cols, scale=1.0):
    return rng.standard_normal((rows, cols)) * scale


class TestAsMatrix:
    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            matcore.as_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(NotFiniteError):
            matcore.as_matrix([[1.0, float("nan")], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(NotFiniteError):
            matcore.as_matrix([[math.inf, 0.0], [0.0, 1.0]])


class TestSingularValues:
    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_matrix(rng, 4, 4)
            ref = oracles.singular_values_via_charpoly(m)
            assert np.allclose(singular_values(m), ref, rtol=1e-8)

    def test_non_convergence_is_named(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(SvdConvergenceError, match="3x2 matrix"):
            singular_values(np.ones((3, 2)))
        with pytest.raises(SvdConvergenceError):
            matcore.LayerSpectrum.of(np.eye(2))


class TestOperatorNorm:
    def test_diagonal(self):
        assert LayerSpectrum.of(np.diag([3.0, 1.0, 2.0])).op_norm == pytest.approx(3.0)

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_matrix(rng, 5, 3)
            ref = oracles.operator_norm_power_iteration(m)
            assert LayerSpectrum.of(m).op_norm == pytest.approx(ref, rel=1e-8)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_scaling_homogeneity(self, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d))
        op_norm = LayerSpectrum.of(m).op_norm
        assert LayerSpectrum.of(2.0 * m).op_norm == pytest.approx(2.0 * op_norm)


class TestPqNorm:
    def test_frobenius_special_case(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 4, 6)
        assert pq_norm(m, 2, 2) == pytest.approx(np.linalg.norm(m, "fro"))

    def test_21_norm(self):
        m = np.array([[3.0, 0.0], [4.0, 1.0]])
        # column norms 5 and 1, outer 1-norm
        assert pq_norm(m, 2, 1) == pytest.approx(6.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            pq_norm(np.eye(2), 0.5, 2)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert pq_norm(a + b, 2, 1) <= pq_norm(a, 2, 1) + pq_norm(b, 2, 1) + 1e-12

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 1)])
    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_scales_beyond_float_range(self, p, q, scale):
        # |a|^2 underflows to 0 at 1e-200 and overflows at 1e160
        a = random_matrix(np.random.default_rng(6), 5, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = pq_norm(scale * a, p, q)
        assert scaled == pytest.approx(scale * pq_norm(a, p, q), rel=1e-14)


class TestLog1pSquare:
    SQRT_MAX = math.sqrt(sys.float_info.max)

    @pytest.mark.parametrize("x", [0.0, 1e-200, 0.5, 3.0, 1e154, SQRT_MAX])
    def test_plain_formula_where_square_is_finite(self, x):
        assert log1p_square(x) == math.log1p(x ** 2)
        assert log1p_square(np.array([x]))[0] == np.log1p(np.array([x]) ** 2)[0]

    @pytest.mark.parametrize("x", [np.nextafter(SQRT_MAX, math.inf), 1e160, 1e300])
    def test_no_square_where_it_overflows(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [log1p_square(float(x)), *log1p_square(np.array([1.0, x]))[1:]]
        assert values == [2.0 * math.log(x)] * 2


class TestGramLogdet:
    def test_identity(self):
        assert LayerSpectrum.of(np.eye(3)).require_gram_logdet() == pytest.approx(0.0, abs=1e-12)

    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            m = random_matrix(rng, d, d)
            ref = abs(oracles.cofactor_det(m))
            if ref < 1e-8:
                continue
            logdet = LayerSpectrum.of(m).require_gram_logdet()
            assert math.exp(logdet / 2.0) == pytest.approx(ref, rel=1e-8)

    def test_no_overflow_for_extreme_scales(self):
        for scale, expected in ((1e150, 8 * math.log(1e150)), (1e-150, -8 * math.log(1e150))):
            logdet = LayerSpectrum.of(np.eye(4) * scale).require_gram_logdet()
            assert logdet == pytest.approx(expected)

    def test_rank_deficient_raises_with_sigma_min(self):
        m = np.diag([1.0, 0.0])
        with pytest.raises(RankDeficientError) as err:
            LayerSpectrum.of(m).require_gram_logdet()
        assert err.value.sigma_min == pytest.approx(0.0)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeError):
            LayerSpectrum.of(np.ones((2, 3))).require_gram_logdet()


class TestRestrictedDet:
    # the product of the singular values above the absolute cutoff 1e-8
    def test_zero_matrix_empty_product(self):
        spec = LayerSpectrum.of(np.zeros((3, 3)))
        assert math.exp(spec.restricted_logdet) == 1.0
        assert spec.restricted_rank == 0

    def test_partial_rank(self):
        spec = LayerSpectrum.of(np.diag([3.0, 2.0, 0.0]))
        assert math.exp(spec.restricted_logdet) == pytest.approx(6.0)
        assert spec.restricted_rank == 2


class TestNumericRank:
    def test_full_rank(self):
        assert LayerSpectrum.of(np.eye(4)).rank == 4

    def test_near_zero_column(self):
        m = np.diag([1.0, 1e-15])
        assert LayerSpectrum.of(m).rank == 1

    def test_tolerance_formula(self):
        assert rank_tolerance(2.0, 3, 5) == pytest.approx(1e-8 * 2.0 * 5)


class TestConditionNumber:
    def test_orthogonal_is_one(self):
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
        assert LayerSpectrum.of(q).condition_number == pytest.approx(1.0)

    def test_singular_gives_inf_not_raise(self):
        assert LayerSpectrum.of(np.diag([1.0, 0.0])).condition_number == math.inf

    def test_diag(self):
        assert LayerSpectrum.of(np.diag([4.0, 2.0])).condition_number == pytest.approx(2.0)


class TestHelpersReadLayerSpectrum:
    # rank_tolerance(1, 2, 2) = 2e-8 decides the rank of diag(1, x)
    MATRICES = {
        "square": np.random.default_rng(9).standard_normal((4, 4)),
        "tall": np.random.default_rng(10).standard_normal((5, 3)),
        "wide": np.random.default_rng(11).standard_normal((2, 4)),
        "zero": np.zeros((3, 3)),
        "just_above_tolerance": np.diag([1.0, 3e-8]),
        "just_below_tolerance": np.diag([1.0, 1.5e-8]),
    }

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_helpers_equal_spectrum_fields(self, name):
        # every field against numpy's own SVD of the same matrix
        m = self.MATRICES[name]
        spec = LayerSpectrum.of(m)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.array_equal(spec.sigma, sv) and np.array_equal(singular_values(m), sv)
        assert spec.rank == int(np.sum(sv > rank_tolerance(sv[0], *m.shape)))
        assert spec.condition_number == (math.inf if sv[-1] == 0.0 else sv[0] / sv[-1])
        assert spec.op_norm == sv[0]
        assert pq_norm(m, 2, 2) == spec.fro_norm
        kept = sv[sv > 1e-8]
        assert (spec.restricted_logdet, spec.restricted_rank) == (
            float(np.sum(np.log(kept))), kept.size
        )
        if spec.rank < m.shape[1]:
            assert spec.gram_logdet is None
            wide = m.shape[0] < m.shape[1]
            with pytest.raises(ShapeError if wide else RankDeficientError) as err:
                spec.require_gram_logdet()
            if not wide:
                assert err.value.sigma_min == sv[-1]
        else:
            assert spec.gram_logdet == float(2.0 * np.sum(np.log(sv)))
            assert spec.require_gram_logdet() == spec.gram_logdet

    def test_tolerance_edges(self):
        above = matcore.LayerSpectrum.of(self.MATRICES["just_above_tolerance"])
        below = matcore.LayerSpectrum.of(self.MATRICES["just_below_tolerance"])
        assert above.tol == below.tol == rank_tolerance(1.0, 2, 2)
        assert (above.rank, below.rank) == (2, 1)
        assert below.restricted_rank == 2  # above the absolute 1e-8 cutoff


def _bit_exact_spectrum_cases():
    rng = np.random.default_rng(8)
    nets = (
        build_network([3, 3, 6], GaussianHead(), seed=0),
        build_network([64, 128, 128, 10], SoftmaxHead(), seed=0,
                      init=["orthogonal", "orthogonal", "truncated_normal"]),
    )
    cases = {
        f"{net.widths}-layer{j + 1}": layer.weight + 0.05 * rng.standard_normal(layer.weight.shape)
        for net in nets for j, layer in enumerate(net.layers)
    }
    cases.update(TestHelpersReadLayerSpectrum.MATRICES)
    cases["tiny"] = 1e-200 * rng.standard_normal((4, 3))
    cases["huge"] = 1e200 * rng.standard_normal((4, 3))
    return cases


BIT_EXACT_SPECTRUM_CASES = _bit_exact_spectrum_cases()


@pytest.mark.parametrize("name", sorted(BIT_EXACT_SPECTRUM_CASES))
def test_layer_spectrum_equals_reference_bit_for_bit(name):
    """Every LayerSpectrum field against the one built from singular_values and pq_norm."""
    w = BIT_EXACT_SPECTRUM_CASES[name]
    spec = LayerSpectrum.of(w)
    for field, ref in oracles.layer_spectrum_reference(w).items():
        got = getattr(spec, field)
        if ref is None or isinstance(ref, int):
            assert got == ref, field
        else:
            assert np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                                  np.asarray(ref, dtype=float).view(np.uint64)), field
