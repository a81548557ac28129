import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound.kernels import (
    KernelDivergenceError,
    _log_gamma,
    gaussian_head_norm,
    kernel_trace_bound,
    sobolev_gram,
    sobolev_kernel,
)

import oracles


class TestLogGamma:
    """_log_gamma is cephes lgam, so it must equal scipy.special.gammaln bit for bit."""

    @staticmethod
    def assert_exact(xs):
        from scipy.special import gammaln

        xs = [float(x) for x in xs]
        mismatched = [(x, _log_gamma(x), float(gammaln(x)))
                      for x in xs if _log_gamma(x) != float(gammaln(x))]
        assert mismatched == []

    # one range per branch: the upward recurrence (x < 2), no shift (2 to 3),
    # the downward recurrence (3 to 13), Stirling with the A series, the
    # two-term series from 1000 on, and the bare Stirling sum above 1e8
    @pytest.mark.parametrize("lo,hi", [
        (1e-6, 2.0), (2.0, 3.0), (3.0, 13.0), (13.0, 1000.0), (1000.0, 1e8), (1e8, 2.4e17),
    ])
    def test_matches_gammaln_on_each_branch(self, lo, hi):
        rng = np.random.default_rng(int(math.log10(hi) * 1000))
        self.assert_exact(np.concatenate([
            rng.uniform(lo, hi, 2000),
            np.exp(rng.uniform(math.log(lo), math.log(hi), 2000)),
            [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)],
        ]))

    def test_matches_gammaln_on_the_smoothness_ladders(self):
        # s = (d + 0.1) / 2 and s - d/2, the arguments of kernel_trace_bound
        self.assert_exact([(d + 0.1) / 2 for d in range(1, 201)])
        self.assert_exact([(d + 0.1) / 2 - d / 2 for d in range(1, 201)])

    def test_integers(self):
        for k in range(1, 30):
            assert _log_gamma(float(k)) == pytest.approx(math.log(math.factorial(k - 1)),
                                                         rel=1e-15, abs=1e-300)
        self.assert_exact(range(1, 2000))


class TestKernelTraceBound:
    def test_d1_s1_closed_form(self):
        assert kernel_trace_bound(1, 1.0) == pytest.approx(math.sqrt(math.pi))

    def test_d2_s2_closed_form(self):
        # pi^1 * Gamma(1) / Gamma(2) = pi
        assert kernel_trace_bound(2, 2.0) == pytest.approx(math.sqrt(math.pi))

    def test_divergence_at_boundary(self):
        with pytest.raises(KernelDivergenceError):
            kernel_trace_bound(2, 1.0)
        with pytest.raises(KernelDivergenceError):
            kernel_trace_bound(3, 1.5)

    @pytest.mark.parametrize("d,s", [(1, 1.0), (2, 1.55), (3, 2.0)])
    def test_against_quadrature_oracle(self, d, s):
        from scipy import integrate

        area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)

        def integrand(r):
            return area * r ** (d - 1) / (1.0 + r * r) ** s

        val, _ = integrate.quad(integrand, 0.0, np.inf)
        assert kernel_trace_bound(d, s) ** 2 == pytest.approx(val, rel=1e-6)

    def test_matches_kernel_diagonal(self):
        for d, s in [(1, 1.0), (2, 1.3), (3, 1.8)]:
            x = np.zeros(d)
            assert kernel_trace_bound(d, s) ** 2 == pytest.approx(
                sobolev_kernel(x, x, d, s)
            )


class TestSobolevKernel:
    def test_d1_s1_exponential(self):
        for r in np.linspace(0.05, 6.0, 25):
            val = sobolev_kernel([0.0], [r], 1, 1.0)
            assert val == pytest.approx(math.pi * math.exp(-r), rel=1e-9)

    def test_known_point_value(self):
        assert sobolev_kernel([0.0], [1.0], 1, 1.0) == pytest.approx(
            math.pi / math.e
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert sobolev_kernel(x, y, 2, 1.7) == pytest.approx(
                sobolev_kernel(y, x, 2, 1.7)
            )

    def test_decay(self):
        vals = [sobolev_kernel([0.0, 0.0], [r, 0.0], 2, 1.5) for r in (0.5, 1, 2, 4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sobolev_kernel([0.0], [0.0, 1.0], 2, 1.5)


class TestSobolevGram:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        s = d / 2 + float(rng.uniform(0.1, 1.5))
        pts = rng.standard_normal((12, d)) * 2.0
        gram = sobolev_gram(pts, s)
        assert np.allclose(gram, gram.T)
        assert float(np.linalg.eigvalsh(gram)[0]) >= -1e-8


def _radial_quad_norm(d: int, s: float, c: float) -> float:
    """||g|| by scipy's quad on the radial integral r^(d-1) e^(-r^2/(2c)) (1+r^2)^s.

    The integrand is divided by its value at r^2 = c (d + 2s), near its peak,
    so that it fits float64 where (1 + r^2)^s alone does not, and the range is
    split there, so that quad cannot miss the narrow peak of a large d; epsrel
    is 1e-13, which keeps quad's own error near 5e-14 on the grid below.
    """
    from scipy import integrate

    def log_f(r):
        return (d - 1) * math.log(r) - r * r / (2.0 * c) + s * math.log1p(r * r)

    peak = math.sqrt(c * (d + 2.0 * s))
    ref = log_f(peak)

    def f(r):
        return math.exp(log_f(r) - ref) if r > 0 else 0.0

    val = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
              for lo, hi in ((0.0, peak), (peak, np.inf)))
    log_area = math.log(2.0) + (d / 2) * math.log(math.pi) - math.lgamma(d / 2)
    return math.exp(0.5 * (log_area + d * math.log(math.pi / c) + ref + math.log(val)))


class TestGaussianHeadNorm:
    @pytest.mark.parametrize("c", [0.25, 1.0, 3.0])
    def test_matches_radial_quadrature(self, c):
        """The trapezoid rule in log r against quad in r, within 1e-13 relative."""
        worst = max(
            abs(gaussian_head_norm(d, s, c) / _radial_quad_norm(d, s, c) - 1.0)
            for d in range(1, 80) for s in ((d + 0.1) / 2, d / 2 + 2)
        )
        assert worst < 1e-13

    def test_matches_hyperu_closed_form(self):
        worst = max(
            abs(gaussian_head_norm(d, d / 2 + ds, c)
                / oracles.gaussian_head_norm_hyperu(d, d / 2 + ds, c) - 1.0)
            for d in (1, 2, 3, 5, 8, 13, 21, 34, 55, 79)
            for c in (0.05, 0.25, 1.0, 3.0, 20.0)
            for ds in (0.05, 0.5, 2.0, 20.0)
        )
        assert worst < 1e-10

    @pytest.mark.parametrize("d", [80, 128, 256])
    def test_finite_beyond_width_80(self, d):
        """Where (1 + r^2)^s overflows in r space; ||g|| itself fits float64."""
        for c in (0.25, 1.0, 3.0):
            val = gaussian_head_norm(d, (d + 0.1) / 2, c)
            assert 0.0 < val < math.inf
            assert val == pytest.approx(_radial_quad_norm(d, (d + 0.1) / 2, c), rel=1e-12)

    def test_width_80_value(self):
        assert gaussian_head_norm(80, 40.05, 1.0) == pytest.approx(2.0007e77, rel=1e-4)

    @pytest.mark.parametrize("d,s", [(6, 1e300), (6, math.inf), (512, 256.05)])
    def test_beyond_float64_raises_overflow_without_warning(self, d, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                gaussian_head_norm(d, s, 1.0)

    def test_nan_order_diverges(self):
        with pytest.raises(KernelDivergenceError):
            gaussian_head_norm(2, math.nan, 1.0)

    def test_monotone_in_s(self):
        assert gaussian_head_norm(1, 2.0, 1.0) > gaussian_head_norm(1, 1.1, 1.0)

    def test_trapezoid_oracle_d1(self):
        def integrand(r):
            return 2.0 * math.pi * np.exp(-r * r / 2.0) * (1.0 + r * r)

        val = oracles.trapezoid_integral(integrand, 0.0, 50.0, 1_000_000)
        assert gaussian_head_norm(1, 1.0, 1.0) == pytest.approx(
            math.sqrt(val), rel=1e-6
        )

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            gaussian_head_norm(1, 1.0, 0.0)
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_head_norm(1, 1.0, math.inf)

    def test_diverges_below_order_limit(self):
        with pytest.raises(KernelDivergenceError):
            gaussian_head_norm(2, 1.0, 1.0)
