"""The four benchmark workloads.

Each workload is closed-loop in one process: it runs one round, checks
the round's outputs, then starts the next, until the time is up.  Round
r draws its inputs from (workload seed, r), so a seed fixes every input.

A round returns:
  items     epochs, MC draws or audits done (the throughput count);
  latencies seconds per latency unit (see perfbench/README.md);
  checks    one (name, passed, detail) per checked operation.

Why these four: digits_pair is dominated by LAPACK work on 128-wide
matrices (the regularizer SVD at every step, report and snapshot SVDs
every epoch); synthetic_sweep runs the same layers on 3x3 and 6x3
matrices, so per-call overhead dominates; mc_dominance runs only
`rademacher` and bypasses trainer, bounds and matcore; bound_audit is
the only one with weight-file loading, JSON report serialization and a
`default_constants` run per request.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

import koopbound
from koopbound import bounds, cli, kernels, rademacher, trainer, verify, weightio
from koopbound.network import GaussianHead, SmoothLeakyRelu, SoftmaxHead

DIGITS_WIDTHS = [64, 128, 128, 10]
DIGITS_INIT = ["orthogonal", "orthogonal", "truncated_normal"]
DIGITS_EPOCHS = 4  # per run of each pair member; gate #8 uses 240
SYNTHETIC_EPOCHS = 200  # as gate #7
MC_DRAWS = 100  # per (depth, seed); gate #3 uses 2000
MC_CANDIDATES = 500
AUDIT_FILES = 8  # weight files in the generated batch; every 4th is rank deficient
AUDIT_N = 1500

# rounds replayed untraced and then traced in a --trace 1 run
TRACE_ROUNDS = {
    "digits_pair": 2,
    "synthetic_sweep": 2,
    "mc_dominance": 1,
    "bound_audit": 4 * AUDIT_FILES,
}


def round_seed(seed: int, r: int) -> int:
    return int(np.random.default_rng([seed, r]).integers(2 ** 31))


def _check(name: str, passed: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(passed), detail)


def _check_training(tag: str, run: trainer.TrainRun, epochs: int) -> tuple:
    totals = [v for m in run.metrics for v in m.bound_totals.values()]
    losses = [m.train_loss for m in run.metrics]
    return _check(
        f"{tag}: trained without divergence, one metrics row per epoch, "
        "finite positive bound totals",
        not run.diverged
        and [m.epoch for m in run.metrics] == list(range(1, epochs + 1))
        and len(run.spectrum.epochs) == epochs
        and all(0.0 < v < math.inf for v in totals)
        and all(math.isfinite(v) for v in losses),
        f"diverged={run.diverged}, rows={len(run.metrics)}/{epochs}",
    )


def _final_values(run: trainer.TrainRun) -> dict:
    last = run.metrics[-1]
    out = {"train_loss": last.train_loss, "gen_error": last.gen_error}
    out.update({f"total.{k}": v for k, v in last.bound_totals.items()})
    return out


class Workload:
    """Base: `setup` is timed as setup_s; `round` is one closed-loop step."""

    name = ""

    def install_marks(self, marks) -> None:
        """Hook the function returns that delimit latency units."""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, root: Path) -> None:
        """The benchmark's own work after setup_s, such as writing inputs."""

    def round(self, r: int, marks) -> tuple[int, list[float], list]:
        raise NotImplementedError

    def reference(self) -> tuple[dict, list]:
        """Outputs of a fixed case, for comparison with reference.json,
        and the checks made while producing them."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything the workload wrote."""


class DigitsPair(Workload):
    name = "digits_pair"

    def install_marks(self, marks) -> None:
        marks.after(bounds, "default_constants", "ready")
        marks.after(koopbound.diagnostics, "snapshot", "epoch")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.data = trainer.load_digits()
        net = self._net(round_seed(seed, 0))
        bounds.default_constants(net, self.data.inputs.shape[0])

    def _net(self, s: int):
        return trainer.build_network(
            DIGITS_WIDTHS, SoftmaxHead(), seed=s, init=DIGITS_INIT
        )

    def _pair(self, s: int, epochs: int, marks=None):
        config = dataclasses.replace(
            cli.default_train_config("digits", s), epochs=epochs
        )
        net = self._net(s)
        runs, times = {}, {}
        for tag, cfg in (
            ("reg", config),
            ("unreg", dataclasses.replace(config, regularizer="none")),
        ):
            runs[tag] = trainer.train(cfg, self.data, net, classification=True)
            if marks is not None:
                times[tag] = marks.take("epoch")
        return runs, times

    def round(self, r, marks):
        runs, times = self._pair(round_seed(self.seed, r), DIGITS_EPOCHS, marks)
        checks = [_check_training(tag, run, DIGITS_EPOCHS) for tag, run in runs.items()]
        latencies = [a + b for a, b in zip(times.get("reg", []), times.get("unreg", []))]
        return 2 * DIGITS_EPOCHS, latencies, checks

    def reference(self):
        runs, _ = self._pair(0, 2)
        out = {}
        for tag, run in runs.items():
            vals = _final_values(run)
            vals["test_accuracy"] = run.metrics[-1].test_accuracy
            out[tag] = vals
        return out, [_check_training(tag, run, 2) for tag, run in runs.items()]


class SyntheticSweep(Workload):
    """Gate #7's five-seed sweep; one round is one seed of the sweep."""

    name = "synthetic_sweep"

    def install_marks(self, marks) -> None:
        marks.after(bounds, "default_constants", "ready")
        marks.after(koopbound.diagnostics, "snapshot", "epoch")

    def setup(self, seed: int) -> None:
        self.seed = seed
        data, net, _ = cli.build_task("synthetic", round_seed(seed, 0))
        bounds.default_constants(net, data.inputs.shape[0])

    def _train(self, s: int, epochs: int):
        config = dataclasses.replace(
            cli.default_train_config("synthetic", s), epochs=epochs
        )
        data, net, classify = cli.build_task("synthetic", s)
        return trainer.train(config, data, net, classification=classify)

    def round(self, r, marks):
        run = self._train(round_seed(self.seed, r), SYNTHETIC_EPOCHS)
        latencies = marks.take("epoch") if marks is not None else []
        return SYNTHETIC_EPOCHS, latencies, [_check_training("run", run, SYNTHETIC_EPOCHS)]

    def reference(self):
        run = self._train(0, 20)
        return {"seed0": _final_values(run)}, [_check_training("seed0", run, 20)]


class McDominance(Workload):
    """Gate #3's `verify.suite_dominance` with fewer draws per estimate."""

    name = "mc_dominance"

    def install_marks(self, marks) -> None:
        marks.after(rademacher, "class_upper_bound", "start")
        marks.after(rademacher, "evaluate_networks", "draw")

    def setup(self, seed: int) -> None:
        self.seed = seed
        d = 2
        s = (d + 0.1) / 2.0
        kernels.kernel_trace_bound(d, s)
        kernels.gaussian_head_norm(d, s, 1.0)
        bounds.activation_opnorm_bound(SmoothLeakyRelu(), d)

    def round(self, r, marks):
        rng = np.random.default_rng(round_seed(self.seed, r))
        seeds = tuple(int(x) for x in rng.integers(2 ** 31, size=3))
        verdict = verify.suite_dominance(
            draws=MC_DRAWS, candidates=MC_CANDIDATES, seeds=seeds
        )
        checks = [_check(c["name"], c["passed"], c["detail"]) for c in verdict["checks"]]
        if len(checks) != 2 * len(seeds):
            checks.append(_check("one check per (L, seed)", False, f"{len(checks)}"))
        latencies = []
        if marks is not None:
            draws = marks.take("draw")
            half = len(draws) // 2  # L=1 blocks first, then L=2 in the same seed order
            latencies = [a + b for a, b in zip(draws[:half], draws[half:])]
        return 2 * len(seeds) * MC_DRAWS, latencies, checks

    def reference(self):
        d, n = 2, 20
        points = np.random.default_rng(1234).standard_normal((n, d))
        out = {}
        for depth in (1, 2):
            spec = rademacher.FunctionClassSpec(
                widths=(d,) * (depth + 1), constraint="inv", C=1.5, D=0.5
            )
            out[f"L{depth}"] = rademacher.empirical_rademacher_lower(
                points, spec, draws=20, candidates=MC_CANDIDATES, seed=0
            )
        return out, []


def _audit_net(s: int, rank_deficient: bool):
    """Digits-shape net with trained-looking noise; optionally layer 2 of rank 96."""
    rng = np.random.default_rng(s)
    net = trainer.build_network(DIGITS_WIDTHS, SoftmaxHead(), seed=s, init=DIGITS_INIT)
    for layer in net.layers:
        rows, cols = layer.weight.shape
        layer.weight = layer.weight + 0.1 * rng.standard_normal((rows, cols)) / math.sqrt(cols)
        layer.bias = 0.1 * rng.standard_normal(rows)
    if rank_deficient:
        w = net.layers[1].weight
        u, sv, vt = np.linalg.svd(w)
        sv[96:] = 0.0
        net.layers[1].weight = (u * sv) @ vt
    return net


class BoundAudit(Workload):
    """In-process `koopbound bound --n 1500` over a generated weight-file batch."""

    name = "bound_audit"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dir = None

    def prepare(self, root: Path) -> None:
        self.dir = root / ".perfbench_tmp" / f"audit-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i in range(AUDIT_FILES):
            path = self.dir / f"net{i}.json"
            weightio.save_weights(
                _audit_net(round_seed(self.seed, i), rank_deficient=i % 4 == 3), path
            )
            self.files.append(path)

    def audit(self, path) -> tuple[list, dict]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["bound", str(path), "--n", str(AUDIT_N)])
        text = buf.getvalue()
        if code != 0:
            return [_check(f"audit {path.name}: exit 0", False, f"exit {code}")], {}
        report = bounds.BoundReport.from_json(text)
        L = len(report.layers)
        per_l = dict(report.combined_per_l)
        checks = [
            _check(
                f"audit {path.name}: JSON round-trips, finite positive totals",
                report.to_json() + "\n" == text
                and all(0.0 < v < math.inf for v in report.totals.values()),
            )
        ]
        if per_l.get(L) is not None:
            inj = report.totals.get("injective")
            checks.append(
                _check(
                    f"audit {path.name}: combined at l=L equals injective",
                    inj is not None and abs(per_l[L] - inj) <= 1e-12 * inj,
                    f"{per_l[L]!r} vs {inj!r}",
                )
            )
        return checks, {f"total.{k}": v for k, v in report.totals.items()}

    def round(self, r, marks):
        path = self.files[r % len(self.files)]
        t0 = time.perf_counter()
        checks, _ = self.audit(path)
        return 1, [time.perf_counter() - t0], checks

    def reference(self):
        """Fixed batch: a digits-shape net, its rank-deficient twin, and two
        3-3-6 Gaussian-head nets (full rank, so l=L is feasible, and rank 1)."""
        nets = {
            "digits": _audit_net(0, False),
            "digits_rank96": _audit_net(0, True),
            "synthetic": trainer.build_network([3, 3, 6], GaussianHead(), seed=0),
        }
        rank1 = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
        rank1.layers[0].weight = np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 1.0])
        nets["synthetic_rank1"] = rank1
        out, checks = {}, []
        for tag, net in nets.items():
            path = self.dir / f"ref-{tag}.json"
            weightio.save_weights(net, path)
            net_checks, out[tag] = self.audit(path)
            checks += net_checks
        return out, checks

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.dir.parent.rmdir()


WORKLOADS = {w.name: w for w in (DigitsPair, SyntheticSweep, McDominance, BoundAudit)}
