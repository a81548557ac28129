#!/usr/bin/env python3
"""Time the cold start of the one-shot koopbound commands.

    python scripts/coldstart.py [--runs N]

Writes a digits-shape weight file (64-128-128-10, softmax head) and a
synthetic-task one (3-3-6, Gaussian head) to a temporary directory, then
times N fresh processes of each of

    python -c "import koopbound.cli"
    koopbound bound FILE --n 1500
    koopbound inspect FILE
    koopbound bound GAUSSIAN_FILE --n 1500      (bound_gaussian)

run from this checkout's `src` (as `python -m koopbound.cli`), taking
the four commands in turn so that host noise spreads over all of them.
Prints the median and quartiles of each command's wall time in ms as
JSON, with the CPU count, the Python, numpy and scipy versions, the BLAS
build and the thread variables.  One more, untimed, run of each command
under `python -X importtime` records whether it imported `scipy.special`
(`loads_scipy_special`), so that an eager import shows in the record.  Nothing is written into the checkout.
This is a record, not a gate: the times depend on the host and its load.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from child import environment  # noqa: E402  (the benchmark's environment record)


def _write_weights(path: Path, gaussian_path: Path) -> None:
    from koopbound import trainer, weightio
    from koopbound.network import GaussianHead, SoftmaxHead

    net = trainer.build_network(
        [64, 128, 128, 10], SoftmaxHead(), seed=0,
        init=["orthogonal", "orthogonal", "truncated_normal"],
    )
    weightio.save_weights(net, path)
    weightio.save_weights(trainer.build_network([3, 3, 6], GaussianHead(), seed=0), gaussian_path)


def _time_ms(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return 1e3 * (time.perf_counter() - t0)


def _imports_module(argv: list[str], env: dict, package: str) -> bool:
    """Whether the command imports `package`, read from `-X importtime`'s report.

    A package reached through `importlib.import_module` (scipy's lazy
    submodule loader) gets no report line of its own, so a line for any
    of its submodules counts too.
    """
    proc = subprocess.run(argv[:1] + ["-X", "importtime"] + argv[1:], env=env, check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # report lines read "import time: self | cumulative | <indent>name"
    names = [line.rsplit("|", 1)[-1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return any(name == package or name.startswith(package + ".") for name in names)


def run(runs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        weights, gaussian = Path(tmp) / "weights.json", Path(tmp) / "gaussian.json"
        _write_weights(weights, gaussian)
        cli = [sys.executable, "-m", "koopbound.cli"]
        commands = {
            "import": [sys.executable, "-c", "import koopbound.cli"],
            "bound": cli + ["bound", str(weights), "--n", "1500"],
            "inspect": cli + ["inspect", str(weights)],
            "bound_gaussian": cli + ["bound", str(gaussian), "--n", "1500"],
        }
        samples = {name: [] for name in commands}
        for _ in range(runs):
            for name, argv in commands.items():
                samples[name].append(_time_ms(argv, env))
        special = {name: _imports_module(argv, env, "scipy.special")
                   for name, argv in commands.items()}
    result = {"runs": runs}
    for name, times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        result[f"{name}_ms"] = {"median": median, "q1": q1, "q3": q3,
                                "loads_scipy_special": special[name]}
    result["env"] = environment()
    return result


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=7, help="fresh processes per command")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    print(json.dumps(run(args.runs), indent=2))
