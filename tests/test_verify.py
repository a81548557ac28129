"""Self-check suites: pass on a healthy build, fail loudly when corrupted."""

import json
import math

import numpy as np
import pytest

from koopbound import rademacher, trainer, verify
from koopbound.bounds import density_ratio_bound
from koopbound.matcore import InvalidParameterError, LayerSpectrum
from koopbound.verify import (
    SUITES,
    density_ratio_grid_sup,
    run_suites,
    suite_dominance,
    suite_gradients,
    suite_kernels,
    suite_lemma1,
    suite_orthogonal,
)


class TestSuiteRegistry:
    def test_known_suites(self):
        assert set(SUITES) == {"lemma1", "dominance", "gradients", "kernels", "orthogonal"}

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suites(["spectral"])


class TestLemma1Suite:
    def test_passes_with_small_sample(self):
        verdict = suite_lemma1(seed=3)
        assert verdict["passed"]
        assert all(c["passed"] for c in verdict["checks"])

    def test_injected_corruption_names_failing_invariant(self, monkeypatch):
        real = verify.bounds_mod.density_ratio_bound
        monkeypatch.setattr(verify.bounds_mod, "density_ratio_bound",
                            lambda w, s_prev: 0.5 * real(w, s_prev))
        verdict = suite_lemma1(seed=3)
        assert not verdict["passed"]
        failing = [c for c in verdict["checks"] if not c["passed"]]
        assert failing
        assert any("grid sup" in c["name"] or "dominates" in c["name"] for c in failing)


class TestDensityRatio:
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
            w *= 3.0 / LayerSpectrum.of(w).op_norm
            s = 1.55
            assert density_ratio_grid_sup(w, s, s) >= 0.99 * density_ratio_bound(w, s)

    def test_grid_requires_compatible_orders(self):
        with pytest.raises(InvalidParameterError):
            density_ratio_grid_sup(np.eye(2), 2.0, 1.5)


class TestKernelsSuite:
    def test_passes(self):
        verdict = suite_kernels(seed=1)
        assert verdict["passed"]


class TestOrthogonalSuite:
    def test_passes(self):
        verdict = suite_orthogonal(seed=1)
        assert verdict["passed"]
        assert verdict["checks"][0]["values"]["worst"] < 1e-12

    def test_injected_corruption_fails(self, monkeypatch):
        real = verify.bounds_mod.koopman_layer_factor
        monkeypatch.setattr(verify.bounds_mod, "koopman_layer_factor",
                            lambda w, s: real(w, s) * (1 + 1e-6))
        assert not suite_orthogonal()["passed"]


class TestGradientsSuite:
    def test_corrupted_synthetic_regularizer_gradient_fails(self, monkeypatch):
        real = trainer.regularizer_synthetic

        def corrupted(net):
            value, grads = real(net)
            return value, [g * 1.01 for g in grads]

        monkeypatch.setattr(trainer, "regularizer_synthetic", corrupted)
        verdict = suite_gradients()
        failing = [c["name"] for c in verdict["checks"] if not c["passed"]]
        assert failing == ["synthetic regularizer gradient"]


class TestDominanceSuite:
    def _count(self, monkeypatch, name):
        calls = []
        original = getattr(rademacher, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(rademacher, name, counting)
        return calls

    def test_one_draw_stream_per_seed(self, monkeypatch):
        # the L=1 estimate is read from the L=2 draws: one sample per
        # (seed, draw), one forward pass per (seed, draw, depth)
        sampled = self._count(monkeypatch, "sample_networks")
        evaluated = self._count(monkeypatch, "evaluate_networks")
        verdict = suite_dominance(draws=3, candidates=20, seeds=(0, 1))
        assert len(sampled) == 6
        assert len(evaluated) == 12
        assert [c["name"].split(":")[0] for c in verdict["checks"]] == [
            "L=1 seed=0", "L=1 seed=1", "L=2 seed=0", "L=2 seed=1",
        ]

    def test_estimates_match_single_depth_estimator(self):
        points = np.random.default_rng(1234).standard_normal((20, 2))
        verdict = suite_dominance(draws=3, candidates=20, seeds=(4,))
        for depth, check in enumerate(verdict["checks"], start=1):
            spec = rademacher.FunctionClassSpec((2,) * (depth + 1), "inv", 1.5, 0.5)
            want = rademacher.empirical_rademacher_lower(points, spec, 3, 20, seed=4)
            assert check["values"]["lower"] == want

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            suite_dominance(draws=3, candidates=20, seeds=())

    @pytest.mark.parametrize("kwargs", [{"draws": 0}, {"candidates": 0}])
    def test_counts_checked_before_any_work(self, monkeypatch, kwargs):
        bounded = self._count(monkeypatch, "class_upper_bound")
        sampled = self._count(monkeypatch, "sample_networks")
        with pytest.raises(ValueError, match="draws and candidates"):
            suite_dominance(**{"draws": 3, "candidates": 20, "seeds": (0,), **kwargs})
        assert bounded == [] and sampled == []


class TestRunSuites:
    def test_aggregate_verdict_structure(self):
        result = run_suites(["kernels"])
        assert result["passed"] is True
        assert [s["suite"] for s in result["suites"]] == ["kernels"]
        for suite in result["suites"]:
            for check in suite["checks"]:
                assert set(check) == {"name", "passed", "detail", "values"}

    def test_each_suite_reports_elapsed_time(self):
        result = run_suites(["kernels", "lemma1"])
        for suite in result["suites"]:
            assert isinstance(suite["elapsed_s"], float)
            assert suite["elapsed_s"] >= 0.0


class TestCheckValues:
    """Each check carries its numbers at full precision next to the text."""

    def test_value_names_per_suite(self):
        verdicts = {
            "lemma1": suite_lemma1(seed=3),
            "dominance": suite_dominance(draws=3, candidates=20, seeds=(0,)),
            "gradients": suite_gradients(),
            "kernels": suite_kernels(),
            "orthogonal": suite_orthogonal(),
        }
        names = {
            suite: [sorted(c["values"]) for c in v["checks"]] for suite, v in verdicts.items()
        }
        assert names == {
            "lemma1": [["worst_gap"], ["worst_cover"]],
            "dominance": [["lower", "upper"]] * 2,
            "gradients": [["worst"]] * 4,
            "kernels": [["worst"], ["worst"], ["worst"], ["min_eigenvalue"]],
            "orthogonal": [["worst"]],
        }
        for verdict in verdicts.values():
            for check in verdict["checks"]:
                assert all(isinstance(x, float) for x in check["values"].values())

    def test_detail_text_formats_the_values(self):
        for check in suite_dominance(draws=3, candidates=20, seeds=(0, 1))["checks"]:
            v = check["values"]
            assert check["detail"] == f"lower={v['lower']:.6f}, upper={v['upper']:.6f}"
            assert check["passed"] == (v["lower"] < v["upper"])
        gap, cover = suite_lemma1(seed=3)["checks"]
        worst_gap = gap["values"]["worst_gap"]
        assert gap["detail"] == f"worst sampled-minus-closed gap {worst_gap:.3e} (tolerance 1e-9)"
        assert cover["detail"] == f"worst coverage ratio {cover['values']['worst_cover']:.6f}"

    def test_non_finite_value_is_null_in_strict_json(self, monkeypatch):
        # a closed form that overflows leaves every sampled-minus-closed gap at -inf
        monkeypatch.setattr(verify.bounds_mod, "density_ratio_bound", lambda w, s_prev: math.inf)
        verdict = suite_lemma1(seed=0)
        gap = verdict["checks"][0]
        assert gap["detail"] == "worst sampled-minus-closed gap -inf (tolerance 1e-9)"
        assert gap["values"] == {"worst_gap": None}
        text = json.dumps(verdict, allow_nan=False)
        assert json.loads(text)["checks"][0]["values"]["worst_gap"] is None


class TestPinnedGateNumbers:
    """Every value of the suites acceptance gates #1, #2, #5 and #6 run, at
    their seeds, pinned to the bit: a refactor of `verify` may change how a
    suite draws and checks, never what it reports."""

    @pytest.mark.parametrize("suite,seed,want", [
        pytest.param(suite_orthogonal, 0, [{"worst": "0x1.e000000000000p-49"}], id="orthogonal"),
        pytest.param(suite_lemma1, 0, [
            {"worst_gap": "0x0.0p+0"},
            {"worst_cover": "0x1.fffffffff95cbp-1"},
        ], id="lemma1"),
        pytest.param(suite_kernels, 3, [
            {"worst": "0x1.668b545912960p-51"},
            {"worst": "0x1.0000000000000p-51"},
            {"worst": "0x1.e5c0bc453744ep-53"},
            {"min_eigenvalue": "0x1.71a28fea569e5p-22"},
        ], id="kernels"),
        pytest.param(suite_gradients, 11, [
            {"worst": "0x1.e9ae783bd1b38p-22"},
            {"worst": "0x1.478b4ef801461p-21"},
            {"worst": "0x1.1094155b6dceep-18"},
            {"worst": "0x1.52f86c7ac0b88p-24"},
        ], id="gradients"),
    ])
    def test_values_match_pin(self, suite, seed, want):
        verdict = suite(seed=seed)
        got = [{k: v.hex() for k, v in c["values"].items()} for c in verdict["checks"]]
        assert got == want
