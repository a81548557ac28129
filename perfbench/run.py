"""koopbound benchmark: one workload per call, one JSON result line last.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root; the package is imported from ./src.  Each
workload runs closed-loop in its own process (child.py).  With
--trace 0 the end-to-end metrics are printed; set-up is repeated in
SETUP_PROBES extra fresh processes and setup_s is the median.  With
--trace 1 a fixed number of rounds runs once untraced and once traced,
and the per-layer metrics come from the traced pass.

Lines before the last: the environment, then every metric by its
workload-specific name.  The last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("digits_pair", "synthetic_sweep", "mc_dominance", "bound_audit")
SETUP_PROBES = 2
DEADLINE_S = 170.0  # the whole call, probes included, ends before this

# workload-specific names under which the generic metrics are printed
ALIASES = {
    "digits_pair": ("epochs_per_s", "epoch_pair_ms"),
    "synthetic_sweep": ("epochs_per_s", "epoch_ms"),
    "mc_dominance": ("draws_per_s", "draw_pair_ms"),
    "bound_audit": ("audits_per_s", "audit_ms"),
}


class BenchError(Exception):
    pass


def _child(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, extra_env: dict | None = None
) -> dict:
    """Run one workload; returns the result line plus `env` and `aliases`."""
    if not (ROOT / "src" / "koopbound" / "__init__.py").is_file():
        raise BenchError(f"no koopbound package under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_child(base + ["--setup-only"], env, deadline)["setup_s"])
    res = _child(
        base + ["--seconds", str(seconds), "--trace", str(int(trace))], env, deadline
    )
    checks = res["checks"]
    failed = [c for c in checks if not c[1]]
    out = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "env": dict(res["env"], commit=git_commit()),
        "failures": failed,
    }
    if trace:
        out["metrics"] = res["per_layer"]
        return out
    setups.append(res["setup_s"])
    lat_ms = [t * 1e3 for t in res["latencies"]]
    if len(lat_ms) < 2:
        raise BenchError(f"only {len(lat_ms)} latency samples; raise --seconds")
    out["metrics"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": res["items"] / res["elapsed_s"], "unit": "1/s"},
        "unit_ms_p50": {"value": _percentile(lat_ms, 50), "unit": "ms"},
        "unit_ms_p90": {"value": _percentile(lat_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    items, lat = ALIASES[workload]
    out["aliases"] = {
        "items_per_s": items, "unit_ms_p50": f"{lat}_p50", "unit_ms_p90": f"{lat}_p90",
    }
    out["samples"] = len(lat_ms)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(out["env"], sort_keys=True))
    aliases = out.get("aliases", {})
    for name, m in out["metrics"].items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        print(f"{args.workload} {label} = {m['value']:.6g} {m['unit']}")
    if "samples" in out:
        print(f"{args.workload} latency samples = {out['samples']}")
    print(f"{args.workload} fail_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']}/{out['attempted']})")
    for name, _, detail in out["failures"]:
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
