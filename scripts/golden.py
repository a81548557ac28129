#!/usr/bin/env python3
"""Write the golden artifacts a behaviour-preserving change must keep byte-identical.

    python scripts/golden.py OUTDIR

Runs, in process and from the checkout's own `src`:

- `train` synthetic, seed 0, 20 epochs;
- `train` digits, seed 0, 2 epochs, with and without the regularizer;
- for each weights.json so written: the `bound` report as JSON and as
  CSV (n = 1000), and the `inspect` table (stdout) and its CSV.

Each train run leaves metrics.csv, spectrum.csv, weights.json and
bound_vs_generror.svg in its own subdirectory.  Run it on two checkouts
and compare with `diff -r OUTDIR_A OUTDIR_B`.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from koopbound.cli import main as cli_main  # noqa: E402

TRAIN_RUNS = {
    "synthetic": ["--task", "synthetic", "--epochs", "20"],
    "digits_reg": ["--task", "digits", "--epochs", "2"],
    "digits_unreg": ["--task", "digits", "--epochs", "2", "--no-regularizer"],
}


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
    for name, flags in TRAIN_RUNS.items():
        rundir = out / name
        argv = ["train", *flags, "--seed", "0", "--outdir", str(rundir)]
        worst = max(worst, _cli(argv, out / f"{name}.train.txt"))
        weights = str(rundir / "weights.json")
        for fmt in ("json", "csv"):
            worst = max(worst, cli_main([
                "bound", weights, "--n", "1000", "--out", fmt,
                "--output", str(out / f"{name}.bound.{fmt}"),
            ]))
        argv = ["inspect", weights, "--csv", str(out / f"{name}.inspect.csv")]
        worst = max(worst, _cli(argv, out / f"{name}.inspect.txt"))
    print(f"wrote {out}")
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir")
    sys.exit(run(ap.parse_args().outdir))
