#!/usr/bin/env python3
"""Paired regularized / unregularized digit-classification runs.

For each seed the digits task is trained twice from the same
initialization: once with the per-layer spectral regularizer on layers
1-2 and once without.  The summary reports, per pair:

- q = prod_{j<=2} ||W_j|| det(I + W_j^T W_j)^(-1/4) for both runs and
  their ratio (regularized / unregularized),
- final test accuracy for both runs,
- the first-logged-epoch and final condition number of layer 1 in the
  regularized run.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from koopbound.cli import main as cli_main  # noqa: E402
from koopbound.matcore import LayerSpectrum  # noqa: E402
from koopbound.weightio import load_weights  # noqa: E402


def final_q(weightfile: Path) -> float:
    net = load_weights(weightfile)
    log_q = 0.0
    for layer in net.layers[:2]:
        spec = LayerSpectrum.of(layer.weight)
        log_q += math.log(spec.op_norm) - spec.lifted_logdet / 4
    return math.exp(log_q)


def layer1_cond_first_last(spectrum_csv: Path) -> tuple[float, float]:
    conds = []
    with spectrum_csv.open() as fh:
        for row in csv.DictReader(fh):
            if row["layer"] == "1":
                conds.append(float(row["cond"]))
    return conds[0], conds[-1]


def last_accuracy(metrics_csv: Path) -> float:
    with metrics_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["test_accuracy"])


def run(outdir: str, seeds: list[int], epochs: int | None) -> int:
    out = Path(outdir)
    worst = 0
    summary = []
    for seed in seeds:
        dirs = {}
        for tag, extra in (("reg", []), ("unreg", ["--no-regularizer"])):
            rundir = out / f"seed{seed}_{tag}"
            argv = [
                "train", "--task", "digits", "--seed", str(seed),
                "--outdir", str(rundir), *extra,
            ]
            if epochs is not None:
                argv += ["--epochs", str(epochs)]
            worst = max(worst, cli_main(argv))
            dirs[tag] = rundir
        q_reg = final_q(dirs["reg"] / "weights.json")
        q_unreg = final_q(dirs["unreg"] / "weights.json")
        acc_reg = last_accuracy(dirs["reg"] / "metrics.csv")
        acc_unreg = last_accuracy(dirs["unreg"] / "metrics.csv")
        c_first, c_last = layer1_cond_first_last(dirs["reg"] / "spectrum.csv")
        summary.append(
            (seed, q_reg, q_unreg, q_reg / q_unreg, acc_reg, acc_unreg,
             c_first, c_last)
        )
        print(
            f"seed {seed}: q_reg {q_reg:.4g} q_unreg {q_unreg:.4g} "
            f"ratio {q_reg / q_unreg:.3f} | acc reg {acc_reg:.3f} "
            f"unreg {acc_unreg:.3f} | layer1 cond {c_first:.2f} -> {c_last:.2f}"
        )
    path = out / "paired_summary.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "q_reg", "q_unreg", "ratio", "acc_reg", "acc_unreg",
             "layer1_cond_first", "layer1_cond_final"]
        )
        writer.writerows(summary)
    print(f"wrote {path}")
    ratios = [row[3] for row in summary]
    declines = sum(1 for row in summary if row[7] < row[6])
    print(
        f"mean ratio {sum(ratios) / len(ratios):.3f}; layer1 condition "
        f"number declined in {declines}/{len(summary)} seeds"
    )
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="runs/digits")
    ap.add_argument("--seeds", default="0,1,4")
    ap.add_argument("--epochs", type=int, default=None)
    args = ap.parse_args()
    sys.exit(run(args.outdir, [int(s) for s in args.seeds.split(",")], args.epochs))
