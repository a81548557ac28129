"""Monte-Carlo complexity estimators and the closed-form class bound."""

import hashlib
import math

import numpy as np
import oracles
import pytest
from oracles import rademacher_exact, rademacher_lower_fixed, rkhs_ball_rademacher

from koopbound import rademacher
from koopbound.bounds import activation_opnorm_bound, default_constants, full_report
from koopbound.kernels import gaussian_head_norm, kernel_trace_bound, sobolev_kernel
from koopbound.network import Identity, LayerSpec, NetworkSpec, default_smoothness
from koopbound.rademacher import (
    FunctionClassSpec,
    InfeasibleClassError,
    class_upper_bound,
    empirical_rademacher_lower,
    empirical_rademacher_lower_by_depth,
    evaluate_networks,
    sample_networks,
)


class TestClassSpec:
    def test_empty_class_rejected(self):
        with pytest.raises(InfeasibleClassError, match="class is empty"):
            FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.0, D=2.0)

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(InfeasibleClassError):
            FunctionClassSpec(widths=(2, 2), constraint="inv", C=0.0, D=0.5)
        with pytest.raises(InfeasibleClassError):
            FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.0, D=-1.0)
        for C, D in ((math.inf, 0.5), (math.nan, 0.5), (1.5, math.nan)):
            with pytest.raises(InfeasibleClassError, match="positive and finite"):
                FunctionClassSpec(widths=(2, 2), constraint="inv", C=C, D=D)

    def test_unknown_constraint(self):
        with pytest.raises(InfeasibleClassError, match="unknown constraint"):
            FunctionClassSpec(widths=(2, 2), constraint="spectral", C=1.0, D=0.5)
        with pytest.raises(InfeasibleClassError, match="unknown constraint"):
            FunctionClassSpec(widths=(2, 3), constraint="inj", C=1.5, D=0.5)

    def test_inv_needs_square_chain(self):
        with pytest.raises(InfeasibleClassError, match="equal widths"):
            FunctionClassSpec(widths=(2, 3), constraint="inv", C=1.5, D=0.5)

    @pytest.mark.parametrize("widths", [(), (2,), (0, 0), (2.5, 2.5), (True, True)])
    def test_malformed_widths_rejected(self, widths):
        with pytest.raises(InfeasibleClassError, match="at least two positive ints"):
            FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=0.5)


class TestSampling:
    def test_constraints_hold_on_samples(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        rng = np.random.default_rng(0)
        params = sample_networks(spec, rng, 50)
        ws, bs = params[0]
        assert ws.shape == (50, 2, 2)
        sigma1 = np.linalg.norm(ws, ord=2, axis=(1, 2))
        assert np.all(sigma1 <= 1.5 + 1e-12)
        assert np.all(np.abs(np.linalg.det(ws)) >= 0.5 - 1e-12)
        assert np.all(np.linalg.norm(bs, axis=1) <= rademacher.BIAS_RADIUS + 1e-12)

    def test_too_tight_constraint_raises(self):
        # feasible region exists (D < C^d) but rejection never lands in it
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=2.2499)
        with pytest.raises(InfeasibleClassError, match="rejected"):
            sample_networks(spec, np.random.default_rng(2), 10)

    def test_values_in_unit_interval(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        rng = np.random.default_rng(3)
        params = sample_networks(spec, rng, 20)
        vals = evaluate_networks(params, rng.standard_normal((6, 2)))
        assert vals.shape == (20, 6)
        assert np.all(vals > 0) and np.all(vals <= 1)


class TestSigma1AndVolume:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (5, 2), (3, 3)])
    def test_matches_svd(self, shape):
        ws = np.random.default_rng(sum(shape)).standard_normal((64,) + shape)
        sigma1, vol = rademacher._sigma1_and_volume(ws)
        s = np.linalg.svd(ws, compute_uv=False)
        np.testing.assert_allclose(sigma1, s[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(vol, np.prod(s, axis=1), rtol=1e-12, atol=0)

    def test_orthogonal(self):
        for w in ([[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]):
            sigma1, vol = rademacher._sigma1_and_volume(np.array([w]))
            assert sigma1[0] == 1.0 and vol[0] == 1.0

    def test_rank_one(self):
        w = np.outer([1.0, -2.0, 3.0], [2.0, 0.5])
        sigma1, vol = rademacher._sigma1_and_volume(w[None])
        assert vol[0] == 0.0
        assert sigma1[0] == pytest.approx(np.linalg.svd(w, compute_uv=False)[0], rel=1e-12)

    def test_two_columns_without_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called for a 2-column layer")

        for name in ("svd", "det", "norm"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for rows in (2, 3, 5):
            ws = rademacher._sample_weights(np.random.default_rng(rows), rows, 2, 1.5, 0.5, 40)
            assert ws.shape == (40, rows, 2)


class TestSameStream:
    """The sampler keeps the RNG stream and the class of the LAPACK filter."""

    @pytest.mark.parametrize("widths", [
        pytest.param((2, 2, 2), id="widths0-inv"), pytest.param((3, 3), id="widths2-inv"),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_draws_as_lapack_filter(self, widths, seed):
        spec = FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=0.5)
        got = sample_networks(spec, np.random.default_rng(seed), 200)
        want = oracles.sample_networks_lapack(spec, np.random.default_rng(seed), 200)
        assert len(got) == len(want)
        for (ws, bs), (ws_ref, bs_ref) in zip(got, want):
            assert ws.shape == ws_ref.shape and bs.shape == bs_ref.shape
            np.testing.assert_allclose(ws, ws_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(bs, bs_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("widths,count,n", [
        pytest.param((2, 2), 25, 7, id="widths0-inv"),
        pytest.param((2, 2, 2), 25, 7, id="widths1-inv"),
        pytest.param((4, 4, 4), 25, 7, id="widths2-inv"),
        pytest.param((3, 3, 3), 25, 7, id="widths3-inv"),
        pytest.param((2, 2, 2), 1, 7, id="one-candidate"),
        pytest.param((4, 4, 4), 25, 1, id="one-point"),
    ])
    def test_evaluate_matches_per_candidate_loop(self, widths, count, n):
        spec = FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=0.5)
        rng = np.random.default_rng(11)
        params = sample_networks(spec, rng, count)
        pts = rng.standard_normal((n, widths[0]))
        got = evaluate_networks(params, pts)
        assert got.shape == (count, n)
        act = rademacher.ACTIVATION
        want = [
            [
                oracles.forward_reference(
                    [ws[k] for ws, _ in params], [bs[k] for _, bs in params],
                    act.alpha, act.mu, x, rademacher.HEAD.c,
                )
                for x in pts
            ]
            for k in range(count)
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestEstimators:
    def test_exact_matches_hand_value(self):
        # single function on two points: E max over signs of (s1 v1 + s2 v2)/2
        vals = np.array([[1.0, 2.0]])
        # the four sign vectors give (3, -1, 1, -3)/2 → mean 0
        assert rademacher_exact(vals) == pytest.approx(0.0)

    def test_exact_two_functions(self):
        vals = np.array([[1.0, 0.0], [0.0, 1.0]])
        # per sign vector max is (1, 1, 0, 1)/2 except (-1,-1) giving -1/2
        assert rademacher_exact(vals) == pytest.approx((1 + 1 + 1 - 1) / 4 / 2)

    def test_fixed_mc_converges_to_exact(self):
        rng = np.random.default_rng(4)
        vals = rng.random((5, 8))
        exact = rademacher_exact(vals)
        mc = rademacher_lower_fixed(vals, draws=4000, seed=0)
        assert mc == pytest.approx(exact, abs=0.02)

    def test_exact_refuses_large_n(self):
        with pytest.raises(ValueError, match="too many"):
            rademacher_exact(np.ones((2, 21)))

    def test_deterministic_by_seed(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        pts = np.random.default_rng(5).standard_normal((10, 2))
        a = empirical_rademacher_lower(pts, spec, draws=20, candidates=30, seed=7)
        b = empirical_rademacher_lower(pts, spec, draws=20, candidates=30, seed=7)
        c = empirical_rademacher_lower(pts, spec, draws=20, candidates=30, seed=8)
        assert a == b
        assert a != c

    def test_more_candidates_never_hurts_much(self):
        # the estimate is a max over candidates per draw, so enlarging the
        # candidate pool (same seed stream) can only raise the per-draw max
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        pts = np.random.default_rng(6).standard_normal((10, 2))
        small = empirical_rademacher_lower(pts, spec, draws=15, candidates=20, seed=1)
        large = empirical_rademacher_lower(pts, spec, draws=15, candidates=200, seed=1)
        assert large >= small - 1e-12

    def test_bad_draw_counts(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        with pytest.raises(ValueError):
            empirical_rademacher_lower(np.ones((3, 2)), spec, draws=0)

    def test_zero_points_named(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        with pytest.raises(ValueError, match=r"shape \(0, 2\).*width 2"):
            empirical_rademacher_lower(np.empty((0, 2)), spec, draws=2, candidates=5)

    def test_wrong_width_named(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        with pytest.raises(ValueError, match=r"shape \(4, 3\).*width 2"):
            empirical_rademacher_lower(np.ones((4, 3)), spec, draws=2, candidates=5)

    def test_nan_point_named(self):
        spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.5, D=0.5)
        pts = np.ones((4, 2))
        pts[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"shape \(4, 2\).*finite"):
            empirical_rademacher_lower(pts, spec, draws=2, candidates=5)


class TestByDepth:
    """One draw stream serves every prefix depth, bit for bit."""

    @pytest.mark.parametrize("widths", [(2, 2, 2), (3, 3, 3, 3)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_each_depth_equals_its_own_estimate(self, widths, seed):
        spec = FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=0.5)
        pts = np.random.default_rng(22).standard_normal((9, widths[0]))
        got = empirical_rademacher_lower_by_depth(pts, spec, draws=6, candidates=40, seed=seed)
        assert len(got) == len(widths) - 1
        for depth, value in enumerate(got, start=1):
            prefix = FunctionClassSpec(widths=widths[:depth + 1], constraint="inv", C=1.5, D=0.5)
            want = empirical_rademacher_lower(pts, prefix, draws=6, candidates=40, seed=seed)
            assert value.hex() == want.hex()

    def test_one_sample_per_draw(self, monkeypatch):
        calls = {"sample": 0, "evaluate": 0}
        sample, evaluate = rademacher.sample_networks, rademacher.evaluate_networks

        def counting_sample(*args, **kwargs):
            calls["sample"] += 1
            return sample(*args, **kwargs)

        def counting_evaluate(*args, **kwargs):
            calls["evaluate"] += 1
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(rademacher, "sample_networks", counting_sample)
        monkeypatch.setattr(rademacher, "evaluate_networks", counting_evaluate)
        spec = FunctionClassSpec(widths=(2, 2, 2, 2), constraint="inv", C=1.5, D=0.5)
        empirical_rademacher_lower_by_depth(np.ones((4, 2)), spec, draws=5, candidates=10)
        assert calls == {"sample": 5, "evaluate": 15}

    @pytest.mark.parametrize("points,kwargs,match", [
        (np.ones((3, 2)), {"draws": 0}, "draws and candidates"),
        (np.ones((3, 2)), {"candidates": 0}, "draws and candidates"),
        (np.empty((0, 2)), {}, r"shape \(0, 2\).*width 2"),
        (np.ones((4, 3)), {}, r"shape \(4, 3\).*width 2"),
        (np.array([[1.0, np.nan]]), {}, r"shape \(1, 2\).*finite"),
    ])
    def test_same_checks_as_single_depth(self, points, kwargs, match):
        spec = FunctionClassSpec(widths=(2, 2, 2), constraint="inv", C=1.5, D=0.5)
        for estimate in (empirical_rademacher_lower, empirical_rademacher_lower_by_depth):
            with pytest.raises(ValueError, match=match):
                estimate(points, spec, **{"draws": 2, "candidates": 5, **kwargs})


class TestPinnedEstimates:
    """Estimates and sampled members pinned to the bit: the sampler, the
    stacked forward pass and the activation may change how they compute,
    never what."""

    @pytest.mark.parametrize("widths,want", [
        pytest.param((2, 2), "0x1.57357daab8a44p-3", id="2-2"),
        pytest.param((2, 2, 2), "0x1.aafcc12c57befp-3", id="2-2-2"),
        pytest.param((3, 3), "0x1.055705fb0895fp-3", id="3-3"),
    ])
    def test_estimate_matches_pin(self, widths, want):
        spec = FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=0.5)
        pts = np.random.default_rng(21).standard_normal((12, widths[0]))
        got = empirical_rademacher_lower(pts, spec, draws=8, candidates=100, seed=3)
        assert got.hex() == want

    def test_sampled_members_match_pin(self):
        # an estimate can absorb a 1-ulp change in one weight; the members'
        # bytes cannot.  Two columns: no LAPACK call, so the pin is portable.
        spec = FunctionClassSpec(widths=(2, 2, 2), constraint="inv", C=1.5, D=0.5)
        digest = hashlib.sha256()
        for ws, bs in sample_networks(spec, np.random.default_rng(3), 500):
            digest.update(ws.tobytes())
            digest.update(bs.tobytes())
        assert digest.hexdigest()[:32] == "fe4b279c92f641d26445be465a4460f7"

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 11])
    def test_bias_directions_match_linalg_norm(self, dim):
        got = rademacher._sample_bias(np.random.default_rng(dim), dim, 0.8, 301)
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((301, dim))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        want = want * (0.8 * rng.random(301) ** (1.0 / dim))[:, None]
        assert got.shape == (301, dim)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRkhsBall:
    def test_exact_below_bound(self):
        # the kernel diagonal is constant, so the Jensen step is tight here
        # and exact coincides with the bound up to rounding
        pts = np.random.default_rng(7).standard_normal((25, 2))
        exact, bound = rkhs_ball_rademacher(pts, radius=2.0, d=2, s=1.55)
        assert 0 < exact <= bound * (1 + 1e-12)
        assert exact == pytest.approx(bound)

    def test_exact_formula(self):
        pts = np.zeros((4, 1))
        exact, bound = rkhs_ball_rademacher(pts, radius=3.0, d=1, s=1.0)
        k0 = sobolev_kernel(np.zeros(1), np.zeros(1), 1, 1.0)
        assert exact == pytest.approx(3.0 / 4 * math.sqrt(4 * k0))
        assert bound == pytest.approx(3.0 * kernel_trace_bound(1, 1.0) / 2)

    def test_linear_in_radius(self):
        pts = np.random.default_rng(8).standard_normal((9, 3))
        e1, b1 = rkhs_ball_rademacher(pts, radius=1.0, d=3, s=2.0)
        e2, b2 = rkhs_ball_rademacher(pts, radius=5.0, d=3, s=2.0)
        assert e2 == pytest.approx(5 * e1)
        assert b2 == pytest.approx(5 * b1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rkhs_ball_rademacher(np.ones((3, 1)), radius=0.0, d=1, s=1.0)


def _member_total(weights, n: int) -> float:
    """`full_report`'s invertible total for one class member, built as the
    sampled members run: ACTIVATION between layers, none after the last."""
    depth = len(weights)
    net = NetworkSpec(weights[0].shape[1], [
        LayerSpec(w, np.zeros(w.shape[0]),
                  rademacher.ACTIVATION if j < depth - 1 else Identity())
        for j, w in enumerate(weights)
    ], rademacher.HEAD)
    return full_report(net, default_constants(net, n)).totals["invertible"]


class TestClassUpperBound:
    def test_formula(self):
        # L = 1 has no activation, so no ||K_sigma||; L = 2 has exactly one
        C, D, n, d = 1.5, 0.5, 20, 2
        s = default_smoothness(d)
        prefactor = (
            kernel_trace_bound(d, s)
            * gaussian_head_norm(d, s, rademacher.HEAD.c) / math.sqrt(n)
        )
        per = C ** s / math.sqrt(D)
        sigma_norm = activation_opnorm_bound(rademacher.ACTIVATION, d)
        for depth, want in ((1, prefactor * per), (2, prefactor * sigma_norm * per ** 2)):
            spec = FunctionClassSpec(widths=(d,) * (depth + 1), constraint="inv", C=C, D=D)
            assert class_upper_bound(spec, n) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("widths,D,match", [
        ((1, 1), 0.5, "width 1"),
        # r = D/C is below the rank tolerance, so the member is singular
        ((2, 2), 1e-300, "numerically singular"),
    ])
    def test_no_extremal_member_raises(self, widths, D, match):
        spec = FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=D)
        with pytest.raises(InfeasibleClassError, match=match):
            class_upper_bound(spec, 20)

    @pytest.mark.parametrize("widths", [(2, 2), (2, 2, 2), (3, 3), (3, 3, 3)])
    def test_dominates_every_sampled_member(self, widths):
        # each member's own invertible total is at most the class bound
        spec = FunctionClassSpec(widths=widths, constraint="inv", C=1.5, D=0.5)
        upper = class_upper_bound(spec, 20)
        params = sample_networks(spec, np.random.default_rng(0), 300)
        worst = max(
            _member_total([ws[k] for ws, _ in params], 20) for k in range(300)
        )
        assert worst <= upper

    def test_monotone_in_constraint_constants(self):
        # looser classes (larger C, smaller D) can only have larger bounds
        def bound(C, D):
            spec = FunctionClassSpec(widths=(2, 2), constraint="inv", C=C, D=D)
            return class_upper_bound(spec, n=20)

        assert bound(2.0, 0.5) > bound(1.5, 0.5)
        assert bound(1.5, 0.25) > bound(1.5, 0.5)

    def test_mc_estimate_monotone_in_class(self):
        # paired seeds: enlarging C on the same sign/sample stream should
        # give a systematically larger (or equal) complexity estimate
        pts = np.random.default_rng(9).standard_normal((12, 2))
        tight = FunctionClassSpec(widths=(2, 2), constraint="inv", C=1.2, D=0.5)
        loose = FunctionClassSpec(widths=(2, 2), constraint="inv", C=2.5, D=0.5)
        lo = empirical_rademacher_lower(pts, tight, draws=40, candidates=60, seed=2)
        hi = empirical_rademacher_lower(pts, loose, draws=40, candidates=60, seed=2)
        assert hi > lo * 0.95
