#!/usr/bin/env python3
"""Write the golden artifacts a behaviour-preserving change must keep byte-identical.

    python scripts/golden.py OUTDIR

Runs, in process and from the checkout's own `src`:

- `train` synthetic, seed 0, 20 epochs;
- `train` synthetic, seed 0, 10 epochs, full batch with the per-layer
  regularizer (`--config {"regularizer": "perlayer", "batch_size": null}`,
  written to a temporary file);
- `train` digits, seed 0, 2 epochs, with and without the regularizer;
- `train` synthetic, seeds 0 and 1, 5 epochs (`--seeds 0,1`), into
  synthetic_seeds/: seed0/, seed1/ and correlation_summary.csv;
- a rank-deficient 3-3-6 Gaussian-head net (seed 0, layer 1 replaced by
  the rank-1 outer([1, 2, 0.5], [1, 0, 1])), saved as rank1/weights.json;
- the same seed-0 net with layer 2 all zeros, saved as zero2/weights.json;
- for each weights.json so written: the `bound` report as JSON and as
  CSV (n = 1000), and the `inspect` table (stdout) and its CSV;
- the `bound` report of rank1/weights.json, JSON and CSV, with every
  constant and the variant list given on the command line
  (`BOUND_OVERRIDES`), as rank1.bound_overrides.{json,csv};
- the `verify.suite_lemma1()` and
  `verify.suite_dominance(draws=20, candidates=500, seeds=(0,))`
  verdicts as JSON (verify.lemma1.json, verify.dominance.json); the
  verdicts carry no timings, so they compare byte for byte, and each
  check's `values` holds its numbers at full precision, so
  `golden_diff.py` sees an MC estimate drift down to its 1e-12 limit.

Each train run leaves metrics.csv, spectrum.csv, weights.json and
bound_vs_generror.svg in its own subdirectory.  Run it on two checkouts
and compare with `diff -r OUTDIR_A OUTDIR_B`.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from koopbound import trainer, verify, weightio  # noqa: E402
from koopbound.cli import EXIT_VERIFY_FAILED, main as cli_main  # noqa: E402
from koopbound.network import GaussianHead  # noqa: E402

TRAIN_RUNS = {
    "synthetic": ["--task", "synthetic", "--epochs", "20"],
    "synthetic_perlayer": ["--task", "synthetic", "--epochs", "10"],
    "digits_reg": ["--task", "digits", "--epochs", "2"],
    "digits_unreg": ["--task", "digits", "--epochs", "2", "--no-regularizer"],
}
# the seed sweep: one run directory per seed plus correlation_summary.csv
SEED_SWEEP = ["--task", "synthetic", "--seeds", "0,1", "--epochs", "5"]
# the --config a train run reads, by run name
TRAIN_CONFIGS = {"synthetic_perlayer": {"regularizer": "perlayer", "batch_size": None}}
# every constant the bound command accepts, set by hand
BOUND_OVERRIDES = [
    "--B", "1.5", "--g-norm", "0.75", "--sigma-norms", "1.25,2.5", "--g-factors", "0.5,0.8",
    "--variants", "invertible,weighted,graph,combined,neyshabur15",
]


def _cli(argv: list[str], stdout_path: Path) -> int:
    """Run one koopbound command, writing what it prints to stdout_path."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    stdout_path.write_text(buf.getvalue())
    return code


def run(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in TRAIN_RUNS.items():
            argv = ["train", *flags, "--seed", "0", "--outdir", str(out / name)]
            if name in TRAIN_CONFIGS:
                config = Path(tmp) / f"{name}.json"
                config.write_text(json.dumps(TRAIN_CONFIGS[name]))
                argv += ["--config", str(config)]
            worst = max(worst, _cli(argv, out / f"{name}.train.txt"))
    with contextlib.redirect_stdout(io.StringIO()):  # it prints the outdir path
        code = cli_main(["train", *SEED_SWEEP, "--outdir", str(out / "synthetic_seeds")])
    worst = max(worst, code)
    # the "numerically singular" and "lacks full column rank" reasons and
    # the inspect "rank deficient" label
    rank1 = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
    rank1.layers[0].weight = np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 1.0])
    # the neyshabur18 and bartlett17 markers, neyshabur15 and golowich18
    # at 0, and the zero Frobenius tail of the combined bound
    zero2 = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
    zero2.layers[1].weight = np.zeros((6, 3))
    for name, net in (("rank1", rank1), ("zero2", zero2)):
        (out / name).mkdir(exist_ok=True)
        weightio.save_weights(net, out / name / "weights.json")
    for name in [*TRAIN_RUNS, "rank1", "zero2"]:
        weights = str(out / name / "weights.json")
        for fmt in ("json", "csv"):
            worst = max(worst, cli_main([
                "bound", weights, "--n", "1000", "--out", fmt,
                "--output", str(out / f"{name}.bound.{fmt}"),
            ]))
        argv = ["inspect", weights, "--csv", str(out / f"{name}.inspect.csv")]
        worst = max(worst, _cli(argv, out / f"{name}.inspect.txt"))
    for fmt in ("json", "csv"):
        worst = max(worst, cli_main([
            "bound", str(out / "rank1" / "weights.json"), "--n", "1000", *BOUND_OVERRIDES,
            "--out", fmt, "--output", str(out / f"rank1.bound_overrides.{fmt}"),
        ]))
    # the grid oracle and the MC function class
    verdicts = {
        "lemma1": verify.suite_lemma1(),
        "dominance": verify.suite_dominance(draws=20, candidates=500, seeds=(0,)),
    }
    for name, verdict in verdicts.items():
        (out / f"verify.{name}.json").write_text(json.dumps(verdict, indent=2) + "\n")
        worst = max(worst, 0 if verdict["passed"] else EXIT_VERIFY_FAILED)
    print(f"wrote {out}")
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir")
    sys.exit(run(ap.parse_args().outdir))
