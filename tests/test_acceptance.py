"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints its verdict directly to the terminal (bypassing
capture) so a full run shows eleven summary lines.
"""

import math
import time

import numpy as np
import pytest

from koopbound import bounds, trainer, verify
from koopbound.cli import build_task, default_train_config
from koopbound.matcore import LayerSpectrum
from koopbound.network import GaussianHead
from koopbound.svgplot import pearson


def _report(capsys, index, ok, name, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[{index:>2}/11] {verdict} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _layer_q(weight):
    spec = LayerSpectrum.of(weight)
    return math.log(spec.op_norm) - spec.lifted_logdet / 4


def test_orthogonal_invariance(capsys):
    t0 = time.time()
    verdict = verify.suite_orthogonal(seed=0)
    elapsed = time.time() - t0
    worst = verdict["checks"][0]["values"]["worst"]
    ok = verdict["passed"] and elapsed < 5.0
    _report(capsys, 1, ok, "orthogonal layer factor is exactly 1",
            f"worst |factor-1| {worst:.2e} over 400 matrices, {elapsed:.1f}s")


def test_density_ratio_dominance(capsys):
    t0 = time.time()
    verdict = verify.suite_lemma1(seed=0)
    elapsed = time.time() - t0
    ok = verdict["passed"] and elapsed < 30.0
    detail = "; ".join(c["detail"] for c in verdict["checks"])
    _report(capsys, 2, ok, "density-ratio grid sup vs closed form",
            f"{detail}, {elapsed:.1f}s")


@pytest.mark.slow
def test_mc_lower_bound_dominated(capsys):
    t0 = time.time()
    verdict = verify.suite_dominance(draws=2000, candidates=500, seeds=(0, 1, 2))
    elapsed = time.time() - t0
    ok = verdict["passed"] and elapsed < 120.0
    margin = min(c["values"]["upper"] - c["values"]["lower"] for c in verdict["checks"])
    _report(capsys, 3, ok, "MC complexity estimate below closed-form bound",
            f"all {len(verdict['checks'])} strict, min margin {margin:.4f}, "
            f"{elapsed:.1f}s")


def test_determinant_oracle(capsys):
    import oracles

    rng = np.random.default_rng(7)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 5))
        m = rng.standard_normal((d, d)) * float(rng.uniform(0.2, 5.0))
        ref = abs(oracles.cofactor_det(m))
        if ref < 1e-12:
            continue
        val = math.exp(LayerSpectrum.of(m).require_gram_logdet() / 2.0)
        worst = max(worst, abs(val - ref) / ref)
    ok = worst < 1e-8 and time.time() - t0 < 5.0
    _report(capsys, 4, ok, "SVD determinant vs cofactor expansion",
            f"worst relative error {worst:.2e} over 500 matrices")


def test_kernel_constants(capsys):
    t0 = time.time()
    verdict = verify.suite_kernels(seed=3)
    elapsed = time.time() - t0
    diag, _, form, gram = (c["values"] for c in verdict["checks"])
    ok = verdict["passed"] and elapsed < 30.0
    _report(capsys, 5, ok, "kernel constants vs quadrature, Gram PSD",
            f"diag rel {diag['worst']:.2e}, d=1 form rel {form['worst']:.2e}, "
            f"min Gram eig {gram['min_eigenvalue']:.2e}, {elapsed:.1f}s")


def test_gradient_correctness(capsys):
    t0 = time.time()
    verdict = verify.suite_gradients(seed=11)
    elapsed = time.time() - t0
    worst = [c["values"]["worst"] for c in verdict["checks"]]
    ok = verdict["passed"] and elapsed < 60.0
    _report(capsys, 6, ok, "analytic gradients vs finite differences",
            f"loss rel {max(worst[:2]):.2e} (<1e-4), regularizers rel "
            f"{max(worst[2:]):.2e} (<1e-3), {elapsed:.1f}s")


@pytest.mark.slow
def test_bound_tracks_generalization_error(capsys):
    t0 = time.time()
    correlations = []
    for seed in range(5):
        config = default_train_config("synthetic", seed)
        data, net, classify = build_task("synthetic", seed)
        run = trainer.train(config, data, net, classification=classify)
        xs = [m.matrix_factor for m in run.metrics if math.isfinite(m.matrix_factor)]
        ys = [m.gen_error for m in run.metrics if math.isfinite(m.matrix_factor)]
        correlations.append(pearson(xs, ys))
    avg = sum(correlations) / len(correlations)
    elapsed = time.time() - t0
    ok = avg >= 0.5 and elapsed < 300.0
    _report(capsys, 7, ok, "per-epoch bound tracks generalization error",
            f"avg Pearson {avg:.3f} over 5 seeds "
            f"({', '.join(f'{c:+.2f}' for c in correlations)}), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def paired_digit_runs():
    t0 = time.time()
    pairs = []
    for seed in (0, 1, 4):
        config = default_train_config("digits", seed)
        out = {}
        for tag, cfg in (
            ("reg", config),
            ("unreg", trainer.TrainConfig(
                **{**config.__dict__, "regularizer": "none"})),
        ):
            data, net, classify = build_task("digits", seed)
            out[tag] = trainer.train(cfg, data, net, classification=classify)
        pairs.append(out)
    return pairs, time.time() - t0


@pytest.mark.slow
def test_regularizer_shrinks_spectral_quantity(capsys, paired_digit_runs):
    pairs, elapsed = paired_digit_runs
    ratios, acc_reg, acc_unreg = [], [], []
    for pair in pairs:
        lq = {
            tag: sum(_layer_q(l.weight) for l in run.net.layers[:2])
            for tag, run in pair.items()
        }
        ratios.append(math.exp(lq["reg"] - lq["unreg"]))
        acc_reg.append(pair["reg"].metrics[-1].test_accuracy)
        acc_unreg.append(pair["unreg"].metrics[-1].test_accuracy)
    mean_reg = sum(acc_reg) / len(acc_reg)
    mean_unreg = sum(acc_unreg) / len(acc_unreg)
    ok = (
        all(r <= 0.8 for r in ratios)
        and mean_reg >= mean_unreg - 0.005
        and elapsed < 600.0
    )
    _report(capsys, 8, ok, "regularization shrinks the spectral quantity",
            f"ratios {', '.join(f'{r:.3f}' for r in ratios)} (<=0.8), "
            f"acc {mean_reg:.3f} vs {mean_unreg:.3f}, {elapsed:.0f}s")


def test_combined_bound_endpoints(capsys):
    rng = np.random.default_rng(5)
    t0 = time.time()
    worst_l = worst_0 = 0.0
    best_ok = True
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 5))]
        for _ in range(depth):
            widths.append(int(rng.integers(widths[-1], 6)))
        net = trainer.build_network(widths, GaussianHead(), seed=int(rng.integers(1 << 30)))
        c = bounds.default_constants(net, n=50)
        report = bounds.full_report(net, c)
        if "injective" in report.inapplicable:
            continue
        inj = report.totals["injective"]
        at_l = dict(report.combined_per_l)[depth]
        worst_l = max(worst_l, abs(at_l - inj) / inj)
        frob = math.prod(bounds.pq_norm(l.weight, 2, 2) for l in net.layers)
        ref0 = 2.0 ** depth * frob * c.prefactor
        at_0 = dict(report.combined_per_l)[0]
        worst_0 = max(worst_0, abs(at_0 - ref0) / ref0)
        best = report.totals["combined"]
        best_ok = best_ok and best <= min(at_l, at_0) * (1 + 1e-12)
    ok = worst_l < 1e-12 and worst_0 < 1e-12 and best_ok and time.time() - t0 < 10.0
    _report(capsys, 9, ok, "combined-bound endpoints and optimality",
            f"l=L rel {worst_l:.2e}, l=0 rel {worst_0:.2e}, best<=endpoints "
            f"{best_ok}")


def test_degenerate_rank_routing(capsys):
    t0 = time.time()
    net = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
    net.layers[0].weight = np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 1.0])  # rank 1
    c = bounds.default_constants(net, n=100)
    report = bounds.full_report(net, c)
    inapplicable = set(report.inapplicable)
    finite = {
        k: v for k, v in report.totals.items()
        if k in ("graph", "weighted")
    }
    zero = np.zeros((3, 3))
    spec = LayerSpectrum.of(zero)
    zero_factor = max(1.0, spec.op_norm ** 1.55) / math.sqrt(math.exp(spec.restricted_logdet))
    ok = (
        {"invertible", "injective"} <= inapplicable
        and all(0 < v < math.inf for v in finite.values())
        and zero_factor == 1.0
        and time.time() - t0 < 1.0
    )
    _report(capsys, 10, ok, "rank-deficient layer routing",
            f"inapplicable={sorted(inapplicable & {'invertible', 'injective'})}, "
            f"graph={finite.get('graph', float('nan')):.3g}, "
            f"weighted={finite.get('weighted', float('nan')):.3g}, "
            f"zero-matrix factor={zero_factor}")


@pytest.mark.slow
def test_condition_number_declines_under_regularization(capsys, paired_digit_runs):
    pairs, _ = paired_digit_runs
    firsts, finals = [], []
    for pair in pairs:
        log = pair["reg"].spectrum.epochs
        firsts.append(log[0].layers[0].condition_number)
        finals.append(log[-1].layers[0].condition_number)
    declines = sum(1 for f, l in zip(firsts, finals) if l < f)
    ok = declines >= 2
    detail = ", ".join(
        f"{f:.2f}->{l:.2f}" for f, l in zip(firsts, finals)
    )
    _report(capsys, 11, ok, "layer-1 condition number declines when regularized",
            f"{declines}/3 seeds ({detail})")
