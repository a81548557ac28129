"""Command-line surface: inspect, bound, train, verify.

Exit codes: 0 success, 2 usage or validation error or an artifact that
cannot be written, 3 training divergence, 4 verification failure.

Artifact schemas
----------------
Weight JSON: {version: 1, s_in, layers: [{name, rows, cols, weights
(row-major), bias, activation: {kind, params}, s}], head: {kind,
params}}.

Metrics CSV columns: epoch, train_loss, gen_error, matrix_factor,
test_accuracy, then one column per bound variant total (sorted name
order).

Spectrum CSV columns: epoch, layer, sigma_max, sigma_min, cond,
stable_rank, koopman_factor, test_metric.

Bound CSV: one row per (layer, variant) factor plus per-variant total
rows; columns layer, variant, factor, sigma_max, sigma_min, cond,
numeric_rank.  Bound JSON is strict: a non-finite float is written "inf".
A layer row's stable_rank is null for an all-zero layer, its
koopman_factor null where the injective precondition fails and "inf"
beyond float64 (`inspect` then exits 2).

`train --config` sets any TrainConfig field but the seed (--seed, --seeds).

Verify JSON: {passed, suites: [{suite, passed, checks: [{name, passed,
detail, values}], elapsed_s}]}; `values` holds the check's numbers at
full precision, a non-finite one as null.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .svgplot import pearson, scatter_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_VERIFY_FAILED = 4


class CliError(Exception):
    """Raised for user errors; the entry point maps it to exit code 2."""


def _load_network(path: str):
    try:
        return weightio.load_weights(path)
    except (OSError, weightio.WeightFileError) as exc:
        raise CliError(str(exc)) from exc


def _parse_floats(text: str | None, flag: str) -> list[float] | None:
    """None for an absent flag; an empty or malformed value is a usage error."""
    if text is None:
        return None
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(f"--seeds: expected comma-separated integers, got {text!r}") from exc
    if len(set(seeds)) < len(seeds):  # each seed trains into its own seed<k>/
        raise CliError(f"--seeds: repeated seed in {text!r}")
    return seeds


@contextlib.contextmanager
def _report_errors():
    """Invalid constants and a report too large for float64 become usage errors."""
    try:
        yield
    except (
        ValueError, ValidationError, InvalidParameterError,
        bounds_mod.NotBiLipschitzError,
    ) as exc:
        raise CliError(str(exc)) from exc
    except OverflowError as exc:
        # exp of a per-layer log factor, a log total or the spectral product above ~709
        raise CliError(f"the bound report overflows float64 ({exc})") from exc


def cmd_inspect(args) -> int:
    net = _load_network(args.weightfile)
    # the table needs no bound constants, so unit ones stand in for B, ||g|| and ||K_sigma||
    c = bounds_mod.default_constants(net, 1, B=1.0, g_norm=1.0, sigma_norms=[1.0] * net.depth)
    with _report_errors():  # snapshot raises OverflowError for a Koopman factor of +inf
        report = bounds_mod.full_report(net, c)
        rows = diagnostics.snapshot(report, 0).layers
    print(f"{'layer':>5} {'sigma_max':>12} {'sigma_min':>12} {'cond':>12} {'stable_rank':>12} {'koopman':>12}")
    lines = ["layer,sigma_max,sigma_min,cond,stable_rank,koopman_factor"]
    for row in rows:
        smax, smin = row.singular_values[0], row.singular_values[-1]
        srank = math.nan if row.stable_rank is None else row.stable_rank  # a zero layer
        cond = f"{row.condition_number:.6g}"  # "inf" for a singular layer
        # the pure matrix factor, without the activation norm
        koop_txt = "n/a" if row.koopman_factor is None else f"{row.koopman_factor:.6g}"
        note = ""
        if row.koopman_factor is None:
            why = "wide" if row.rows < row.cols else "rank deficient"
            note = f"  ({why}: invertible/injective variants inapplicable)"
        print(
            f"{row.index:>5} {smax:>12.6g} {smin:>12.6g} {cond:>12} "
            f"{srank:>12.6g} {koop_txt:>12}{note}"
        )
        lines.append(f"{row.index},{smax!r},{smin!r},{cond},{srank!r},{koop_txt}")
    if args.csv:
        Path(args.csv).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    wanted = None if args.variants is None else [v.strip() for v in args.variants.split(",")]
    unknown = [v for v in wanted or () if v not in bounds_mod.ALL_VARIANTS]
    if unknown:
        raise CliError(f"--variants: unknown variant {unknown[0]!r}; "
                       f"known: {', '.join(bounds_mod.ALL_VARIANTS)}")
    sigma_norms = _parse_floats(args.sigma_norms, "--sigma-norms")
    g_factors = _parse_floats(args.g_factors, "--g-factors")
    net = _load_network(args.weightfile)
    with _report_errors():
        c = bounds_mod.default_constants(
            net, args.n, B=args.B, g_norm=args.g_norm,
            sigma_norms=sigma_norms, g_factors=g_factors,
        )
        report = bounds_mod.full_report(net, c)
    if wanted is not None:
        report.totals = {k: v for k, v in report.totals.items() if k in wanted}
        report.inapplicable = {k: v for k, v in report.inapplicable.items() if k in wanted}
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
            regularizer="synthetic", batch_size=100,
        )
    # Two-phase schedule: a sustained high-rate phase lets the spectral
    # penalty separate the regularized run from its pair, then the decay
    # anneals the condition number back down.
    return trainer.TrainConfig(
        seed=seed, epochs=240, learning_rate=1e-2, optimizer="adam",
        regularizer="perlayer", batch_size=32, lr_decay=0.96, lr_decay_start=121,
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


def _finite_epochs(run: trainer.TrainRun) -> list[trainer.EpochMetrics]:
    """Epochs with a finite matrix_factor; a numerically rank-deficient layer logs inf."""
    return [m for m in run.metrics if math.isfinite(m.matrix_factor)]


def _run_one(task: str, config: trainer.TrainConfig, outdir: Path) -> trainer.TrainRun:
    data, net, classify = build_task(task, config.seed)
    # a bad config leaves no directory behind; a bad outdir fails before training
    trainer.check_setup(config, net)
    outdir.mkdir(parents=True, exist_ok=True)
    run = trainer.train(config, data, net, classification=classify)
    (outdir / "metrics.csv").write_text(run.metrics_csv())
    weightio.save_weights(run.net, outdir / "weights.json")
    (outdir / "spectrum.csv").write_text(run.spectrum.to_csv())
    finite = _finite_epochs(run)
    if finite:
        last = run.metrics[-1].epoch
        (outdir / "bound_vs_generror.svg").write_text(scatter_svg(
            [m.matrix_factor for m in finite],
            [m.gen_error for m in finite],
            shades=[m.epoch / last for m in finite],
            xlabel="bound factor",
            ylabel="generalization error",
        ))
    return run


def _apply_overrides(config: trainer.TrainConfig, args) -> trainer.TrainConfig:
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CliError(f"--config: {exc}") from exc
        except RecursionError as exc:
            raise CliError(f"--config: JSON nested too deeply ({exc})") from exc
        if not isinstance(doc, dict):
            raise CliError("--config: expected a JSON object")
        if "seed" in doc:
            raise CliError("--config: the seed is set with --seed or --seeds, not in the config")
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
    seeds = [args.seed] if args.seeds is None else _parse_seeds(args.seeds)
    diverged = False
    runs = []
    for seed in seeds:
        rundir = outdir if len(seeds) == 1 else outdir / f"seed{seed}"
        try:
            config = _apply_overrides(default_train_config(args.task, seed), args)
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
            finite = _finite_epochs(run)
            r = (pearson([m.matrix_factor for m in finite], [m.gen_error for m in finite])
                 if len(finite) > 1 else float("nan"))
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
    except (CliError, OSError) as exc:
        # OSError: an artifact path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
