"""Command-line surface: inspect, bound, train, verify.

Exit codes: 0 success, 2 usage or validation error, 3 training
divergence, 4 verification failure.

Artifact schemas
----------------
Weight JSON: {version: 1, s_in, layers: [{name, rows, cols, weights
(row-major), bias, activation: {kind, params}, s}], head: {kind,
params}}.

Metrics CSV columns: epoch, train_loss, gen_error, matrix_factor,
test_accuracy, then one column per bound variant total (sorted name
order).

Spectrum CSV columns: epoch, layer, sigma_max, sigma_min, cond,
stable_rank, koopman_factor, alignment, test_metric.

Bound CSV: one row per (layer, variant) factor plus per-variant total
rows; columns layer, variant, factor, sigma_max, sigma_min, cond,
numeric_rank.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import diagnostics, trainer, verify, weightio
from .matcore import InvalidParameterError
from .network import GaussianHead, SoftmaxHead, ValidationError
from .svgplot import pearson, write_scatter

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY_FAILED = 4


class CliError(Exception):
    """Raised for user errors; the entry point maps it to exit code 2."""


def _load_network(path: str):
    try:
        return weightio.load_weights(path)
    except (OSError, weightio.WeightFileError, ValidationError) as exc:
        raise CliError(str(exc)) from exc


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _full_report(net, n: int, **constants) -> bounds_mod.BoundReport:
    """Report with default constants; invalid constants become usage errors."""
    try:
        c = bounds_mod.default_constants(net, n, **constants)
        return bounds_mod.full_report(net, c)
    except (
        ValueError, ValidationError, InvalidParameterError,
        bounds_mod.NotBiLipschitzError,
    ) as exc:
        raise CliError(str(exc)) from exc


def cmd_inspect(args) -> int:
    net = _load_network(args.weightfile)
    report = _full_report(net, n=1)
    header = f"{'layer':>5} {'sigma_max':>12} {'sigma_min':>12} {'cond':>12} {'stable_rank':>12} {'koopman':>12}"
    print(header)
    rows = []
    for rec, spec in zip(report.layers, report.spectra):
        smax = rec.singular_values[0]
        smin = rec.singular_values[-1]
        cond = "inf" if math.isinf(rec.condition_number) else f"{rec.condition_number:.6g}"
        try:
            srank = diagnostics.stable_rank(spec)
        except diagnostics.DiagnosticsError:
            srank = float("nan")
        if rec.det_factor is None:
            koop_txt = "n/a"
            why = "wide" if rec.rows < rec.cols else "rank deficient"
            note = f"  ({why}: invertible/injective variants inapplicable)"
        else:
            # the pure matrix factor, without the activation norm
            koop_txt = f"{math.sqrt(rec.density_ratio_bound) / rec.det_factor:.6g}"
            note = ""
        print(
            f"{rec.index:>5} {smax:>12.6g} {smin:>12.6g} {cond:>12} "
            f"{srank:>12.6g} {koop_txt:>12}{note}"
        )
        rows.append((rec.index, smax, smin, cond, srank, koop_txt))
    if args.csv:
        lines = ["layer,sigma_max,sigma_min,cond,stable_rank,koopman_factor"]
        for idx, smax, smin, cond, srank, koop_txt in rows:
            lines.append(f"{idx},{smax!r},{smin!r},{cond},{srank!r},{koop_txt}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    net = _load_network(args.weightfile)
    sigma_norms = (
        _parse_floats(args.sigma_norms, "--sigma-norms") if args.sigma_norms else None
    )
    g_factors = (
        _parse_floats(args.g_factors, "--g-factors") if args.g_factors else None
    )
    report = _full_report(
        net, args.n, B=args.B, g_norm=args.g_norm,
        sigma_norms=sigma_norms, g_factors=g_factors,
    )
    if args.variants:
        wanted = [v.strip() for v in args.variants.split(",")]
        for v in wanted:
            if v not in bounds_mod.ALL_VARIANTS:
                raise CliError(
                    f"unknown variant {v!r}; known: {', '.join(bounds_mod.ALL_VARIANTS)}"
                )
        report.totals = {k: v for k, v in report.totals.items() if k in wanted}
        report.inapplicable = {
            k: v for k, v in report.inapplicable.items() if k in wanted
        }
        for rec in report.layers:
            rec.factors = {k: v for k, v in rec.factors.items() if k in wanted}
    text = report.to_json() if args.out == "json" else report.to_csv()
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def default_train_config(task: str, seed: int) -> trainer.TrainConfig:
    if task == "synthetic":
        return trainer.TrainConfig(
            seed=seed, epochs=200, learning_rate=1.2, optimizer="sgd",
            regularizer="synthetic", lam=0.01, batch_size=100,
            head_loss="squared",
        )
    # Two-phase schedule: a sustained high-rate phase lets the spectral
    # penalty separate the regularized run from its pair, then the decay
    # anneals the condition number back down.
    return trainer.TrainConfig(
        seed=seed, epochs=240, learning_rate=1e-2, optimizer="adam",
        regularizer="perlayer", lam1=0.01, lam2=0.01, reg_layers=(1, 2),
        batch_size=32, head_loss="cross_entropy",
        lr_decay=0.96, lr_decay_start=121,
    )


def build_task(task: str, seed: int):
    """Dataset plus freshly initialized network for a named task."""
    if task == "synthetic":
        data = trainer.make_synthetic(1000, seed=seed)
        net = trainer.build_network([3, 3, 6], GaussianHead(), seed=seed)
        return data, net, False
    data = trainer.load_digits()
    net = trainer.build_network(
        [64, 128, 128, 10],
        SoftmaxHead(),
        seed=seed,
        init=["orthogonal", "orthogonal", "truncated_normal"],
    )
    return data, net, True


def _run_one(task: str, config: trainer.TrainConfig, outdir: Path) -> trainer.TrainRun:
    data, net, classify = build_task(task, config.seed)
    run = trainer.train(config, data, net, classification=classify)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "metrics.csv").write_text(run.metrics_csv())
    weightio.save_weights(run.net, outdir / "weights.json")
    (outdir / "spectrum.csv").write_text(run.spectrum.to_csv())
    if run.metrics:
        epochs = [m.epoch for m in run.metrics]
        shades = [e / max(epochs) for e in epochs]
        write_scatter(
            outdir / "bound_vs_generror.svg",
            [m.matrix_factor for m in run.metrics],
            [m.gen_error for m in run.metrics],
            shades=shades,
            xlabel="bound factor",
            ylabel="generalization error",
        )
    return run


def _apply_overrides(config: trainer.TrainConfig, args) -> trainer.TrainConfig:
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"--config: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("--config: expected a JSON object")
        fields = {f.name for f in dataclasses.fields(trainer.TrainConfig)}
        unknown = set(doc) - fields
        if unknown:
            raise CliError(f"--config: unknown fields {sorted(unknown)}")
        config = dataclasses.replace(config, **doc)
    if args.epochs is not None:
        config = dataclasses.replace(config, epochs=args.epochs)
    if args.no_regularizer:
        config = dataclasses.replace(config, regularizer="none")
    return config


def cmd_train(args) -> int:
    outdir = Path(args.outdir)
    seeds = (
        [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    )
    if args.epochs is not None and args.epochs <= 0:
        raise CliError("--epochs must be positive")
    diverged = False
    runs = []
    for seed in seeds:
        rundir = outdir if len(seeds) == 1 else outdir / f"seed{seed}"
        try:
            config = _apply_overrides(default_train_config(args.task, seed), args)
            config = dataclasses.replace(config, seed=seed)
            run = _run_one(args.task, config, rundir)
        except trainer.TrainerError as exc:
            raise CliError(str(exc)) from exc
        runs.append(run)
        diverged = diverged or run.diverged
        status = "diverged" if run.diverged else "ok"
        print(f"seed {seed}: {len(run.metrics)} epochs, {status}")
    if len(seeds) > 1:
        lines = ["seed,pearson_bound_generror"]
        for seed, run in zip(seeds, runs):
            xs = [m.matrix_factor for m in run.metrics if math.isfinite(m.matrix_factor)]
            ys = [m.gen_error for m in run.metrics if math.isfinite(m.matrix_factor)]
            r = pearson(xs, ys) if len(xs) > 1 else float("nan")
            lines.append(f"{seed},{r!r}")
        (outdir / "correlation_summary.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {outdir / 'correlation_summary.csv'}")
    return EXIT_DIVERGED if diverged else EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    result = verify.run_suites(names)
    text = json.dumps(result, indent=2)
    if args.json:
        Path(args.json).write_text(text)
    print(text)
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopbound",
        description="Spectral generalization-bound reports for small dense networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="per-layer spectral table from a weight file")
    p.add_argument("weightfile")
    p.add_argument("--csv", help="also write the table to this CSV path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bound", help="full bound report for a weight file")
    p.add_argument("weightfile")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--B", type=float, default=None, help="kernel diagonal constant")
    p.add_argument("--g-norm", type=float, default=None, dest="g_norm")
    p.add_argument("--sigma-norms", default=None, dest="sigma_norms",
                   help="comma-separated per-layer activation norms")
    p.add_argument("--g-factors", default=None, dest="g_factors",
                   help="comma-separated per-layer isotropy factors")
    p.add_argument("--variants", default=None,
                   help="comma-separated subset of variants to report")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("train", help="run a training task and emit artifacts")
    p.add_argument("--task", choices=("synthetic", "digits"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None,
                   help="comma-separated seed sweep; writes per-seed subdirs")
    p.add_argument("--config", default=None, help="JSON file overriding config fields")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--no-regularizer", action="store_true")
    p.add_argument("--outdir", default="runs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=tuple(verify.SUITES) + ("all",), default="all")
    p.add_argument("--json", default=None, help="write the JSON verdict to this path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
