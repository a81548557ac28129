"""Self-contained verification suites, exposed both to the CLI and tests.

Each suite cross-checks a closed form against an independent oracle
(sampled suprema, quadrature, finite differences, Monte-Carlo lower
estimates) and returns a machine-readable verdict.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from . import bounds as bounds_mod
from . import kernels, matcore, rademacher, trainer
from .network import GaussianHead, SoftmaxHead, default_smoothness


def _check(name: str, passed: bool, detail: str, **values: float) -> dict:
    """One check's verdict: `detail` gives its numbers as rounded text, and
    `values` at full precision, a non-finite one as None (strict JSON)."""
    return {
        "name": name,
        "passed": bool(passed),
        "detail": detail,
        "values": {k: float(v) if math.isfinite(v) else None for k, v in values.items()},
    }


def _worst_check(name: str, what: str, worst: float, tol: str) -> dict:
    """The check "worst `what` below `tol`", with `worst` as its one value."""
    return _check(name, worst < float(tol), f"worst {what} {worst:.3e} (tolerance {tol})",
                  worst=worst)


def _verdict(suite: str, checks: list[dict]) -> dict:
    return {
        "suite": suite,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def density_ratio_grid_sup(w, s_prev: float, s_cur: float) -> float:
    """Sampled sup over omega in R(W) of (1+||W^T omega||^2)^s_prev / (1+||omega||^2)^s_cur.

    The independent oracle showing that the closed form
    `bounds.density_ratio_bound` really is an upper bound.  The directions
    are the left singular vectors that span the range of W; the radii are
    0 plus 200 log-spaced radii from 1e-3 to 1e6.
    """
    if not 0 < s_prev <= s_cur:
        raise matcore.InvalidParameterError(
            f"grid supremum needs 0 < s_prev <= s_cur, got {s_prev}, {s_cur}"
        )
    a = matcore.as_matrix(w)
    # the ratio depends on omega only through its norms, so a direction's sign is free
    u_mat, s, _ = np.linalg.svd(a)
    tol = matcore.rank_tolerance(float(s[0]), *a.shape)
    best = 1.0  # omega = 0 is always in the grid and gives ratio 1
    radii = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 200)))
    for u in u_mat[:, : s.size][:, s > tol].T:
        omegas = radii[:, None] * u[None, :]
        pulled = omegas @ a  # row i is W^T omega_i
        num = (1.0 + np.sum(pulled ** 2, axis=1)) ** s_prev
        den = (1.0 + radii ** 2) ** s_cur
        best = max(best, float(np.max(num / den)))
    return best


def suite_lemma1(seed: int = 0) -> dict:
    """Sampled density-ratio suprema never exceed the closed form, over 100
    random square maps."""
    rng = np.random.default_rng(seed)
    checks = []
    worst_gap = -math.inf
    worst_cover = math.inf
    for _ in range(100):
        d = int(rng.integers(2, 7))
        w = rng.standard_normal((d, d))
        target = float(rng.uniform(0.1, 10.0))
        w *= target / matcore.LayerSpectrum.of(w).op_norm
        s = default_smoothness(d)
        closed = bounds_mod.density_ratio_bound(w, s)
        sampled = density_ratio_grid_sup(w, s, s)
        worst_gap = max(worst_gap, sampled - closed)
        if target > 1.0:
            worst_cover = min(worst_cover, sampled / closed)
    checks.append(
        _check(
            "density-ratio closed form dominates sampled supremum",
            worst_gap <= 1e-9,
            f"worst sampled-minus-closed gap {worst_gap:.3e} (tolerance 1e-9)",
            worst_gap=worst_gap,
        )
    )
    checks.append(
        _check(
            "sampled supremum reaches 99% of closed form for expanding maps",
            worst_cover >= 0.99,
            f"worst coverage ratio {worst_cover:.6f}",
            worst_cover=worst_cover,
        )
    )
    return _verdict("lemma1", checks)


def suite_dominance(
    draws: int = 2000, candidates: int = 500, seeds: tuple[int, ...] = (0, 1, 2)
) -> dict:
    """MC lower estimates stay strictly below the class bound, the invertible
    total `bound` reports for the class's extremal member
    (`rademacher.class_upper_bound`)."""
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    if draws < 1 or candidates < 1:
        raise ValueError("draws and candidates must be >= 1")
    n = 20
    d = 2
    points = np.random.default_rng(1234).standard_normal((n, d))
    specs = [
        rademacher.FunctionClassSpec(widths=(d,) * (depth + 1), constraint="inv", C=1.5, D=0.5)
        for depth in (1, 2)
    ]
    uppers = [rademacher.class_upper_bound(spec, n) for spec in specs]
    # one draw stream per seed: the L=1 estimate is read from the L=2 draws
    lowers = [
        rademacher.empirical_rademacher_lower_by_depth(
            points, specs[-1], draws=draws, candidates=candidates, seed=seed
        )
        for seed in seeds
    ]
    checks = []
    for depth, upper in enumerate(uppers, start=1):
        for seed, by_depth in zip(seeds, lowers):
            lower = by_depth[depth - 1]
            checks.append(
                _check(
                    f"L={depth} seed={seed}: MC lower < closed-form bound",
                    lower < upper,
                    f"lower={lower:.6f}, upper={upper:.6f}",
                    lower=lower, upper=upper,
                )
            )
    return _verdict("dominance", checks)


_FD_STEP = 1e-5
_FD_COORDS_PER_TENSOR = 12
_FD_CASES = 20


def _finite_diff_ok(value_fn, params, grads, rng):
    """Worst relative error of central finite differences (step `_FD_STEP`)
    against `grads`, on `_FD_COORDS_PER_TENSOR` random coordinates per tensor."""
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        size = flat_p.size
        idxs = rng.choice(size, size=min(_FD_COORDS_PER_TENSOR, size), replace=False)
        for i in idxs:
            orig = flat_p[i]
            flat_p[i] = orig + _FD_STEP
            up = value_fn()
            flat_p[i] = orig - _FD_STEP
            down = value_fn()
            flat_p[i] = orig
            num = (up - down) / (2 * _FD_STEP)
            denom = max(abs(num), abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(num - flat_g[i]) / denom)
    return worst


def _worst_fd_error(draw, rng, skip_tied: bool) -> float:
    """Worst `_finite_diff_ok` error over `_FD_CASES` cases.

    `draw()` returns a case as (params, objective), `objective()` giving the
    value and the gradients of `params`.  With `skip_tied`, a case in which
    some param's top two singular values lie within 1e-3, where the norm's
    subgradient u1 v1^T is no gradient, is dropped uncounted."""
    worst = 0.0
    count = 0
    while count < _FD_CASES:
        params, objective = draw()
        sigmas = (matcore.LayerSpectrum.of(p).sigma for p in params) if skip_tied else ()
        if any(s[0] - s[1] < 1e-3 for s in sigmas):
            continue
        count += 1
        _, grads = objective()
        worst = max(worst, _finite_diff_ok(lambda: objective()[0], params, grads, rng))
    return worst


def suite_gradients(seed: int = 0) -> dict:
    """Analytic loss/regularizer gradients vs central finite differences."""
    rng = np.random.default_rng(seed)

    def loss_case(widths, head):
        net = trainer.build_network(widths, head, seed=int(rng.integers(1 << 30)))
        for layer in net.layers:
            layer.bias = rng.standard_normal(layer.bias.shape) * 0.3
        X = rng.standard_normal((8, widths[0]))
        Y = rng.random(8) if isinstance(head, GaussianHead) else rng.integers(0, widths[-1], 8)

        def objective():  # the gradients in the order of the params: weights, then biases
            loss, grads = trainer.loss_and_grads(net, X, Y)
            return loss, [g for pair in zip(*grads) for g in pair]

        return [l.weight for l in net.layers] + [l.bias for l in net.layers], objective

    def perlayer_case():
        w = rng.standard_normal((6, 6))

        def objective():
            value, g = trainer.regularizer_perlayer(w)
            return value, [g]

        return [w], objective

    def synthetic_case():
        net = trainer.build_network([3, 3, 6], GaussianHead(), seed=int(rng.integers(1 << 30)))
        return [l.weight for l in net.layers], lambda: trainer.regularizer_synthetic(net)

    cases = [
        (f"loss gradients {widths}", partial(loss_case, widths, head), False, "1e-4")
        for widths, head in (([3, 3, 6], GaussianHead()), ([64, 128, 128, 10], SoftmaxHead()))
    ] + [
        ("per-layer regularizer gradient", perlayer_case, True, "1e-3"),
        ("synthetic regularizer gradient", synthetic_case, True, "1e-3"),
    ]
    checks = [
        _worst_check(name, "relative error", _worst_fd_error(draw, rng, skip_tied), tol)
        for name, draw, skip_tied, tol in cases
    ]
    return _verdict("gradients", checks)


def suite_kernels(seed: int = 0) -> dict:
    """Closed-form kernel constants vs quadrature, plus Gram positivity."""
    from scipy import integrate

    checks = []
    worst = worst_head = 0.0
    for d, s, c in ((1, 1.0, 1.0), (2, 1.55, 0.25), (3, 2.0, 3.0)):
        area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)

        def radial(r, d=d, s=s, area=area):
            return area * r ** (d - 1) / (1.0 + r * r) ** s

        def head(r, d=d, s=s, c=c, area=area):  # the radial integrand of ||g||^2
            return area * (math.pi / c) ** d * r ** (d - 1) * math.exp(-r * r / (2 * c)) \
                * (1.0 + r * r) ** s

        quad_val, _ = integrate.quad(radial, 0.0, np.inf)
        closed = kernels.kernel_trace_bound(d, s) ** 2
        worst = max(worst, abs(closed - quad_val) / quad_val)
        quad_val, _ = integrate.quad(head, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
        worst_head = max(worst_head, abs(kernels.gaussian_head_norm(d, s, c) ** 2 / quad_val - 1))
    for name, err, tol in (("kernel diagonal closed form", worst, "1e-6"),
                           ("Gaussian-head norm", worst_head, "1e-10")):
        checks.append(_worst_check(f"{name} vs radial quadrature", "relative error", err, tol))
    worst = 0.0
    for r in np.linspace(0.05, 5.0, 20):
        val = kernels.sobolev_kernel([0.0], [r], 1, 1.0)
        ref = math.pi * math.exp(-r)
        worst = max(worst, abs(val - ref) / ref)
    checks.append(
        _worst_check("d=1 s=1 kernel equals pi*exp(-|x-y|)", "relative error", worst, "1e-6")
    )
    rng = np.random.default_rng(seed)
    min_eig = math.inf
    for _ in range(50):
        d = int(rng.integers(1, 4))
        s = d / 2 + float(rng.uniform(0.1, 1.5))
        pts = rng.standard_normal((20, d)) * 2.0
        gram = kernels.sobolev_gram(pts, s)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram)[0]))
    checks.append(
        _check(
            "Gram matrices positive semi-definite",
            min_eig >= -1e-8,
            f"minimum eigenvalue {min_eig:.3e} (tolerance -1e-8)",
            min_eigenvalue=min_eig,
        )
    )
    return _verdict("kernels", checks)


def suite_orthogonal(seed: int = 0) -> dict:
    """An orthogonal layer's Koopman factor is exactly 1 at every width: the
    bound is independent of the width when the weights are orthogonal."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(200):
        d = 2 + k % 7
        for s in (d / 2 + 0.05, d / 2 + 1.0):
            w = trainer.init_weight("orthogonal", d, d, rng)
            worst = max(worst, abs(bounds_mod.koopman_layer_factor(w, s) - 1.0))
    check = _worst_check("orthogonal layer factor equals 1 at widths 2-8", "|factor-1|", worst,
                         "1e-9")
    return _verdict("orthogonal", [check])


SUITES = {
    "lemma1": suite_lemma1,
    "dominance": suite_dominance,
    "gradients": suite_gradients,
    "kernels": suite_kernels,
    "orthogonal": suite_orthogonal,
}


def run_suites(names: list[str]) -> dict:
    """Run the named suites; each verdict gains its wall time as elapsed_s."""
    verdicts = []
    for name in names:
        t0 = time.perf_counter()
        verdict = SUITES[name]()
        verdict["elapsed_s"] = time.perf_counter() - t0
        verdicts.append(verdict)
    return {"passed": all(v["passed"] for v in verdicts), "suites": verdicts}
