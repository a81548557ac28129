"""Self-check suites: pass on a healthy build, fail loudly when corrupted."""

import pytest

from koopbound.verify import (
    SUITES,
    run_suites,
    suite_kernels,
    suite_lemma1,
)


class TestSuiteRegistry:
    def test_known_suites(self):
        assert set(SUITES) == {"lemma1", "dominance", "gradients", "kernels"}

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suites(["spectral"])


class TestLemma1Suite:
    def test_passes_with_small_sample(self):
        verdict = suite_lemma1(num_matrices=15, seed=3)
        assert verdict["passed"]
        assert all(c["passed"] for c in verdict["checks"])

    def test_injected_corruption_names_failing_invariant(self):
        verdict = suite_lemma1(num_matrices=15, seed=3, inject_error=True)
        assert not verdict["passed"]
        failing = [c for c in verdict["checks"] if not c["passed"]]
        assert failing
        assert any("grid sup" in c["name"] or "dominates" in c["name"] for c in failing)


class TestKernelsSuite:
    def test_passes(self):
        verdict = suite_kernels(seed=1)
        assert verdict["passed"]


class TestRunSuites:
    def test_aggregate_verdict_structure(self):
        result = run_suites(["kernels"])
        assert result["passed"] is True
        assert [s["suite"] for s in result["suites"]] == ["kernels"]
        for suite in result["suites"]:
            for check in suite["checks"]:
                assert set(check) == {"name", "passed", "detail"}

    def test_each_suite_reports_elapsed_time(self):
        result = run_suites(["kernels", "lemma1"])
        for suite in result["suites"]:
            assert isinstance(suite["elapsed_s"], float)
            assert suite["elapsed_s"] >= 0.0
