"""One workload in its own process; prints one JSON result line.

run.py starts it as:

    python3 perfbench/child.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/child.py --workload W --seed S --setup-only

setup_s runs from the top of this file, before numpy and koopbound are
imported, to the end of the workload's set-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REF_RTOL = 1e-6  # relative tolerance against the values recorded in REFERENCE
OUT_DIR = ROOT / ".perfbench_out"

# per-layer metrics of a --trace 1 run: (name, unit).  "<span>.calls",
# "<span>.ms" (inclusive) and "<span>.self_ms" read the span summary;
# the others are computed in per_layer_metrics.
PER_LAYER = [
    ("trainer.regularizer_perlayer.calls", "count"),
    ("trainer.regularizer_perlayer.ms", "ms"),
    ("trainer.regularizer_synthetic.calls", "count"),
    ("trainer.regularizer_synthetic.ms", "ms"),
    ("trainer.loss_and_grads.calls", "count"),
    ("trainer.loss_and_grads.ms", "ms"),
    ("trainer.gen_error_estimate.ms", "ms"),
    ("trainer.classification_accuracy.ms", "ms"),
    ("trainer.train.self_ms", "ms"),
    ("trainer.fwd_bwd_gflop", "GFLOP_computed"),
    ("bounds.full_report.calls", "count"),
    ("bounds.full_report.ms", "ms"),
    ("bounds.full_report.self_ms", "ms"),
    ("bounds.default_constants.ms", "ms"),
    ("bounds.activation_opnorm_bound.calls", "count"),
    ("bounds.activation_opnorm_bound.ms", "ms"),
    ("diagnostics.snapshot.calls", "count"),
    ("diagnostics.snapshot.ms", "ms"),
    ("network.validate.calls", "count"),
    ("network.validate.ms", "ms"),
    ("matcore.svd_calls", "count"),
    ("matcore.svd_ms", "ms"),
    ("matcore.svd_calls_per_epoch", "count"),
    ("matcore.svd_calls_per_audit", "count"),
    ("matcore.svd_calls.regularizer", "count"),
    ("matcore.svd_calls.report", "count"),
    ("matcore.svd_calls.snapshot", "count"),
    ("matcore.svd_calls.other", "count"),
    ("rademacher.sample_networks.calls", "count"),
    ("rademacher.sample_networks.ms", "ms"),
    ("rademacher.evaluate_networks.calls", "count"),
    ("rademacher.evaluate_networks.ms", "ms"),
    ("kernels.gaussian_head_norm.calls", "count"),
    ("kernels.gaussian_head_norm.ms", "ms"),
    ("weightio.load_weights.ms", "ms"),
    ("weightio.bytes_read", "bytes"),
    ("cli.bound.self_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.glue_frac", "ratio"),
]
SPAN_ALIAS = {"cli.bound": "cli.cmd_bound"}


def _layer_sizes(net) -> int:
    return sum(layer.weight.size for layer in net.layers)


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


# Span annotations.  Dense work of one pass, from shapes: 2 flops per
# weight and row forward, 4 more backward (weight gradient and delta).
NOTES = {
    "trainer.loss_and_grads": lambda a, k: {
        "fwd_bwd_flop": 6 * _rows(a[1]) * _layer_sizes(a[0])
    },
    "trainer.forward": lambda a, k: {
        "fwd_bwd_flop": 2 * _rows(a[1]) * _layer_sizes(a[0])
    },
    "weightio.load_weights": lambda a, k: {"bytes_read": os.path.getsize(a[0])},
}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_rounds(workload, rounds, marks, seconds=None, tracer=None):
    """Closed loop: a fixed number of rounds, or rounds until `seconds` pass.

    A timed loop stops once another round would end further past
    `seconds` than stopping now ends before it, so runs of slow rounds
    still last about `seconds`.
    """
    items, latencies, checks = 0, [], []
    t0 = time.perf_counter()
    r = 0
    while seconds is not None or r < rounds:
        if tracer is not None:
            tracer.unit = r
        t_round = time.perf_counter()
        try:
            n, lat, chk = workload.round(r, marks)
        except Exception as exc:  # a raising unit counts as failed, the loop goes on
            n, lat, chk = 0, [], [(f"round {r} raised", False, repr(exc))]
            if marks is not None:
                marks.events.clear()
        items += n
        latencies += lat
        checks += chk
        r += 1
        now = time.perf_counter()
        if seconds is not None and now - t0 + 0.5 * (now - t_round) >= seconds:
            break
    return time.perf_counter() - t0, items, latencies, checks


def per_layer_metrics(summary, notes, items, workload, wall_u, wall_t) -> dict:
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    svd = summary.get("numpy.linalg.svd", empty)
    by_caller = summary["_svd_by_caller"]
    epochs = items if workload in ("digits_pair", "synthetic_sweep") else 0
    audits = items if workload == "bound_audit" else 0
    special = {
        "trainer.fwd_bwd_gflop": notes.get("fwd_bwd_flop", 0) / 1e9,
        "matcore.svd_calls": svd["calls"],
        "matcore.svd_ms": svd["ms"],
        "matcore.svd_calls_per_epoch": svd["calls"] / epochs if epochs else 0.0,
        "matcore.svd_calls_per_audit": svd["calls"] / audits if audits else 0.0,
        "weightio.bytes_read": notes.get("bytes_read", 0),
        "trace.wall_ms": wall_t * 1e3,
        "trace.overhead_frac": wall_t / wall_u - 1.0,
        "trace.glue_frac": 1.0 - summary["_root_self_ms"] / (wall_t * 1e3),
    }
    for caller in ("regularizer", "report", "snapshot", "other"):
        special[f"matcore.svd_calls.{caller}"] = by_caller.get(caller, 0)
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            span, field = name.rsplit(".", 1)
            value = summary.get(SPAN_ALIAS.get(span, span), empty)[field]
        out[name] = {"value": value, "unit": unit}
    return out


def _flatten(doc, prefix=""):
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def reference_checks(workload) -> list:
    values, checks = workload.reference()
    got = _flatten(values)
    want = _flatten(json.loads(REFERENCE.read_text())["workloads"][workload.name])
    worst, worst_key = 0.0, None
    for key, ref in want.items():
        val = got.get(key)
        if val is None or not math.isfinite(val):
            rel = math.inf
        else:
            rel = abs(val - ref) / max(abs(ref), 1e-300)
        if rel > worst:
            worst, worst_key = rel, key
    checks.append((
        f"reference outputs within rtol {REF_RTOL}",
        worst <= REF_RTOL and set(got) == set(want),
        f"worst {worst_key}: rel {worst:.3e}; keys match: {set(got) == set(want)}",
    ))
    return checks


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--print-reference", action="store_true",
                   help="print the reference outputs instead of measuring")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Marks, Tracer
    from workloads import TRACE_ROUNDS, WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "env": environment()}
    workload.prepare(ROOT)
    try:
        if args.print_reference:
            print(json.dumps(workload.reference()[0]))
            return 0
        if args.trace:
            rounds = TRACE_ROUNDS[args.workload]
            wall_u, _, _, checks = run_rounds(workload, rounds, None)
            tracer = Tracer()
            tracer.install(NOTES)
            try:
                wall_t, items, _, traced_checks = run_rounds(
                    workload, rounds, None, tracer=tracer
                )
            finally:
                tracer.uninstall()
            checks += traced_checks
            result["per_layer"] = per_layer_metrics(
                tracer.summary(), tracer.notes, items, args.workload, wall_u, wall_t
            )
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{args.workload}.jsonl")
        else:
            marks = Marks()
            workload.install_marks(marks)
            try:
                elapsed, items, latencies, checks = run_rounds(
                    workload, 0, marks, seconds=args.seconds
                )
            finally:
                marks.uninstall()
            result.update(elapsed_s=elapsed, items=items, latencies=latencies)
        checks += reference_checks(workload)
    finally:
        workload.close()
    result["checks"] = checks
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
