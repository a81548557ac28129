"""Recorded, ungated comparison: digits_pair at the default BLAS threading
and with OPENBLAS_NUM_THREADS=1.

    python3 perfbench/record_threads.py [--seed 0] [--seconds 20]

Runs the untraced and the traced digits_pair run under each setting.  The
variable is set only in the workload processes' environment.  Writes
perfbench/results/digits_pair_threads.json.
"""

import argparse
import json
import sys

from run import HERE, run_workload

SETTINGS = {"default": {}, "openblas_1_thread": {"OPENBLAS_NUM_THREADS": "1"}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    doc = {"workload": "digits_pair", "seed": args.seed, "seconds": args.seconds}
    for label, extra in SETTINGS.items():
        runs = {}
        for trace in (False, True):
            out = run_workload("digits_pair", args.seed, args.seconds, trace, extra)
            runs["traced" if trace else "untraced"] = {
                k: out[k] for k in ("env", "correct", "attempted", "failed", "metrics")
            }
        doc[label] = runs
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "digits_pair_threads.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
