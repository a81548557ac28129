"""Command-line surface: exit codes, artifact schemas, reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopbound import bounds, cli, diagnostics, trainer, weightio
from koopbound.matcore import RankDeficientError
from koopbound.network import (
    CustomActivation, GaussianHead, LayerSpec, NetworkSpec, SmoothLeakyRelu, SoftmaxHead,
)
from koopbound.svgplot import pearson, scatter_svg
from koopbound.trainer import build_network


@pytest.fixture
def weightfile(tmp_path):
    net = build_network([3, 3, 6], GaussianHead(), seed=2)
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    return str(path)


def _digits_net():
    return build_network(
        [64, 128, 128, 10], SoftmaxHead(), seed=0,
        init=["orthogonal", "orthogonal", "truncated_normal"],
    )


def run_cli(*argv):
    return cli.main(list(argv))


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run_cli() == cli.EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        capsys.readouterr()

    def test_missing_weight_file(self, tmp_path, capsys):
        code = run_cli("bound", str(tmp_path / "nope.json"), "--n", "100")
        assert code == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_corrupt_weight_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("inspect", str(bad)) == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["bound", "inspect", "train"])
    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "F"
        path.write_bytes(b"\xff\xfe\x00")
        argv = {
            "bound": ["bound", str(path), "--n", "10"],
            "inspect": ["inspect", str(path)],
            "train": ["train", "--task", "synthetic", "--config", str(path),
                      "--outdir", str(tmp_path / "run")],
        }[command]
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["bound", "inspect", "train"])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, command):
        """200 000 nested arrays exceed the JSON decoder's recursion limit."""
        path = tmp_path / "F"
        path.write_text("[" * 200_000 + "]" * 200_000)
        argv = {
            "bound": ["bound", str(path), "--n", "10"],
            "inspect": ["inspect", str(path)],
            "train": ["train", "--task", "synthetic", "--config", str(path),
                      "--outdir", str(tmp_path / "run")],
        }[command]
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_variant(self, weightfile, capsys):
        code = run_cli("bound", weightfile, "--n", "100", "--variants", "spectral")
        assert code == cli.EXIT_USAGE
        assert "unknown variant" in capsys.readouterr().err

    def test_unknown_variant_is_checked_before_the_report(self, tmp_path, capsys):
        """The report of this net overflows float64 (layer 2 scaled by 1e-6);
        the bad --variants value is reported, not the overflow."""
        net = _digits_net()
        net.layers[1].weight = 1e-6 * net.layers[1].weight
        path = tmp_path / "tiny.json"
        weightio.save_weights(net, path)
        code = run_cli("bound", str(path), "--n", "100", "--variants", "bogus")
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --variants: unknown variant 'bogus'")

    def test_bad_sigma_norms(self, weightfile, capsys):
        code = run_cli("bound", weightfile, "--n", "100", "--sigma-norms", "1.0,x")
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags", [("--n", "0"), ("--n", "5", "--g-norm", "-1"), ("--n", "5", "--sigma-norms", "1"),
                  ("--n", "100", "--B", "1e-200", "--g-norm", "1e-200")]
    )
    def test_invalid_constants(self, weightfile, capsys, flags):
        assert run_cli("bound", weightfile, *flags) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err
        if "--B" in flags:  # the prefactor underflows to 0.0, whose log has no value
            assert "B * g_norm / sqrt(n)" in err

    @pytest.mark.parametrize("flag", ["--sigma-norms", "--g-factors", "--variants"])
    def test_empty_flag_value_is_usage_error(self, weightfile, capsys, flag):
        assert run_cli("bound", weightfile, "--n", "100", flag, "") == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_empty_config_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "train", "--task", "synthetic", "--config", "", "--outdir", str(tmp_path / "run")
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --config: ")
        assert not (tmp_path / "run").exists()

    def test_activation_not_bi_lipschitz(self, tmp_path, capsys):
        # inspect reads no activation norm (test_inspect_needs_no_bound_constants)
        act = SmoothLeakyRelu(alpha=0.1, mu=0.001)
        path = tmp_path / "net.json"
        weightio.save_weights(build_network([3, 3, 6], GaussianHead(), seed=0, activation=act), path)
        assert run_cli("bound", str(path), "--n", "10") == cli.EXIT_USAGE
        assert "not bounded away from zero" in capsys.readouterr().err

    def test_sample_count_beyond_float64_is_named(self, weightfile, capsys):
        assert run_cli("bound", weightfile, "--n", "9" * 400) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: sample count n ")


# each edit leaves a malformed file that must end in exit 2, never a traceback
MALFORMED = {
    "missing_s_in": lambda d: d.pop("s_in"),
    "alpha_out_of_range": lambda d: d["layers"][0]["activation"]["params"].update(alpha=2.0),
    "unknown_head_param": lambda d: d["head"]["params"].update(width=3),
    "non_numeric_weight": lambda d: d["layers"][0]["weights"].__setitem__(0, "x"),
    "nan_bias": lambda d: d["layers"][0]["bias"].__setitem__(0, float("nan")),
    # JSON booleans are not numbers, although float(true) is 1.0
    "bool_weight": lambda d: d["layers"][0]["weights"].__setitem__(0, True),
    "bool_bias": lambda d: d["layers"][1]["bias"].__setitem__(2, False),
    "bool_s_in": lambda d: d.update(s_in=True),
    "bool_s": lambda d: d["layers"][0].update(s=True),
    "bool_head_param": lambda d: d["head"]["params"].update(c=True),
    # int() and float() would read these as numbers: 3, 3 and 0.5, 2.0
    "float_rows": lambda d: d["layers"][0].update(rows=3.7),
    "string_rows": lambda d: d["layers"][0].update(rows="3"),
    "string_weight": lambda d: d["layers"][0]["weights"].__setitem__(0, "0.5"),
    "string_s": lambda d: d["layers"][0].update(s="2.0"),
}


@pytest.mark.parametrize("edit", sorted(MALFORMED))
def test_malformed_weight_file_exits_2(tmp_path, capsys, edit):
    doc = weightio.network_to_json_dict(build_network([3, 3, 6], GaussianHead(), seed=2))
    MALFORMED[edit](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (("bound", str(path), "--n", "100"), ("inspect", str(path))):
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


def _weight_file_slots(doc: dict) -> list[tuple]:
    """Paths to every field of a weight-file document; "i" stands for an
    element of a weights or bias array."""
    slots = [(key,) for key in doc] + [("head", key) for key in doc["head"]]
    slots += [("head", "params", key) for key in doc["head"]["params"]]
    for j, rec in enumerate(doc["layers"]):
        slots += [("layers", j)] + [("layers", j, key) for key in rec]
        slots += [("layers", j, "weights", "i"), ("layers", j, "bias", "i")]
        slots += [("layers", j, "activation", key) for key in rec["activation"]]
        slots += [("layers", j, "activation", "params", key)
                  for key in rec["activation"]["params"]]
    return slots


def _nested(depth: int):
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


_DIGITS_DOC = json.dumps(weightio.network_to_json_dict(_digits_net()))
_BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
    st.sampled_from([[], {}, {"kind": "gaussian"}, math.nan, math.inf, -math.inf,
                     1e308, -1e308, 0.0, 10**400]),
    st.sampled_from([3, 70, 800]).map(_nested),
)
# (slot, element index, action, value): replace the value, delete it, make
# it ragged by wrapping it in a list with a copy of itself, or scale a whole
# weights array towards the ends of float64's range
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(_weight_file_slots(json.loads(_DIGITS_DOC))),
            st.integers(0, 1 << 20),
            st.sampled_from(["replace", "delete", "ragged"]),
            _BAD_VALUES,
        ),
        st.tuples(
            st.sampled_from([("layers", j, "weights") for j in range(3)]),
            st.just(0),
            st.just("scale"),
            st.sampled_from([1e-200, 1e-150, 1e150]),
        ),
    ),
    max_size=3,
)
# (action, where as a fraction of the file, nesting depth): keep the bytes,
# cut them short, insert a non-UTF-8 byte, or wrap them in nested arrays
_CORRUPTIONS = st.tuples(
    st.sampled_from(["none", "cut", "bad_utf8", "wrap"]),
    st.floats(0.0, 1.0),
    st.sampled_from([1, 500, 200_000]),
)


def _mutate(doc: dict, slot: tuple, index: int, action: str, value) -> None:
    *parents, key = slot
    node = doc
    try:
        for part in parents:
            node = node[part]
        if key == "i":
            key = index % len(node)
        node[key]
    except (KeyError, IndexError, TypeError, ZeroDivisionError):
        return  # an earlier mutation removed or replaced a parent of the slot
    if isinstance(node, str):
        return  # a parent was replaced by a string, which cannot be edited
    if action == "delete":
        del node[key]
    elif action == "ragged":
        node[key] = [node[key], node[key]]
    elif action == "scale":
        try:
            node[key] = [value * x for x in node[key]]
        except (TypeError, OverflowError):
            return  # an earlier mutation left something that is not a list of numbers
    else:
        node[key] = value


def _corrupt(raw: bytes, action: str, where: float, depth: int) -> bytes:
    at = int(where * len(raw))
    if action == "cut":
        return raw[:at]
    if action == "bad_utf8":
        return raw[:at] + b"\xff" + raw[at:]
    if action == "wrap":
        return b"[" * depth + raw + b"]" * depth
    return raw


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mutations=_MUTATIONS, corruption=_CORRUPTIONS)
@example(mutations=[], corruption=("wrap", 0.0, 200_000))
@example(mutations=[(("layers", 0, "rows"), 0, "replace", math.inf)], corruption=("none", 0.0, 1))
@example(mutations=[(("layers", 1, "weights", "i"), 7, "replace", 10**400)],
         corruption=("none", 0.0, 1))
@example(mutations=[(("s_in",), 0, "replace", 10**400)], corruption=("none", 0.0, 1))
@example(mutations=[(("layers", 2, "weights"), 0, "scale", 1e-200)],
         corruption=("none", 0.0, 1))
def test_mutated_weight_file_never_raises(mutations, corruption):
    """bound and inspect on a mutated digits-shape weight file exit 0, or 2
    with an `error:` line; any exception fails the example."""
    doc = json.loads(_DIGITS_DOC)
    for mutation in mutations:
        _mutate(doc, *mutation)
    raw = _corrupt(json.dumps(doc).encode(), *corruption)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_bytes(raw)
        for argv in (("bound", str(path), "--n", "1500"), ("inspect", str(path))):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run_cli(*argv)
            assert code in (0, cli.EXIT_USAGE)
            if code == cli.EXIT_USAGE:
                assert err.getvalue().startswith("error: ")


class TestBoundCommand:
    def test_json_report_totals(self, weightfile, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("bound", weightfile, "--n", "100", "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert "graph" in doc["totals"]
        assert doc["totals"]["graph"] > 0
        capsys.readouterr()

    def test_variant_filter(self, weightfile, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_cli(
            "bound", weightfile, "--n", "100",
            "--variants", "graph,neyshabur15", "--output", str(out),
        )
        doc = json.loads(out.read_text())
        present = set(doc["totals"]) | set(doc.get("inapplicable", {}))
        assert present == {"graph", "neyshabur15"}
        capsys.readouterr()

    def test_csv_output(self, weightfile, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli("bound", weightfile, "--n", "100", "--out", "csv",
                       "--output", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("layer,variant,factor")
        capsys.readouterr()

    def test_byte_identical_reruns(self, weightfile, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("bound", weightfile, "--n", "100", "--output", str(a))
        run_cli("bound", weightfile, "--n", "100", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()


class TestInspectCommand:
    def test_table_and_csv(self, weightfile, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run_cli("inspect", weightfile, "--csv", str(out)) == 0
        printed = capsys.readouterr().out
        assert "sigma_max" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "layer,sigma_max,sigma_min,cond,stable_rank,koopman_factor"
        assert len(lines) == 3  # header + two layers

    def test_tall_full_rank_layers_have_factors(self, tmp_path, capsys):
        net = build_network([3, 5, 6], GaussianHead(), seed=0)
        path, table = tmp_path / "net.json", tmp_path / "table.csv"
        weightio.save_weights(net, path)
        assert run_cli("inspect", str(path), "--csv", str(table)) == 0
        printed = capsys.readouterr().out
        assert "n/a" not in printed and "rank deficient" not in printed
        s_chain = net.smoothness_chain()
        for j, line in enumerate(table.read_text().splitlines()[1:]):
            factor = bounds.koopman_layer_factor(net.layers[j].weight, s_chain[j])
            assert line.split(",")[-1] == f"{factor:.6g}"

    def test_wide_layer_note(self, tmp_path, capsys):
        net = build_network([5, 3, 4], SoftmaxHead(), seed=3)
        path = tmp_path / "net.json"
        weightio.save_weights(net, path)
        assert run_cli("inspect", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "(wide:" in lines[1] and "n/a" not in lines[2]

    def test_rank_deficient_note(self, tmp_path, capsys):
        net = build_network([3, 3, 6], GaussianHead(), seed=2)
        net.layers[0].weight = np.zeros((3, 3))
        path = tmp_path / "net.json"
        weightio.save_weights(net, path)
        assert run_cli("inspect", str(path)) == 0
        assert "rank deficient" in capsys.readouterr().out


@pytest.mark.parametrize("s,message", [
    (math.inf, "invalid network: layer 2: s=inf must exceed"),
    (1e300, "the bound report overflows float64"),
])
def test_extreme_smoothness_order_exits_2_with_one_line(tmp_path, capsys, s, message):
    """An s of Infinity (which json accepts) fails validation; s = 1e300 is
    valid but its Gaussian-head norm is beyond float64.  No warning either way."""
    doc = weightio.network_to_json_dict(build_network([3, 3, 6], GaussianHead(), seed=0))
    doc["layers"][-1]["s"] = s
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    for argv in (("bound", str(path), "--n", "100"), ("inspect", str(path))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1


def test_gaussian_head_width_80_exits_0(tmp_path, capsys):
    """The radial integrand (1 + r^2)^s overflows at d = 80; ||g|| does not."""
    net = build_network([3, 3, 80], GaussianHead(), seed=0, init=["orthogonal", "orthogonal"])
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    assert run_cli("bound", str(path), "--n", "60000") == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["metadata"]["g_norm"] == pytest.approx(2.0007e77, rel=1e-4)
    assert all(0.0 < v < math.inf for v in doc["totals"].values())


def _cut_to_rank_64(w):
    # the 64 zeroed singular values come back near 1e-16
    u, sv, vt = np.linalg.svd(w)
    sv[64:] = 0.0
    return (u * sv) @ vt


@pytest.mark.parametrize("command", [("bound", "--n", "1500"), ("inspect",)])
@pytest.mark.parametrize(
    "edit,code", [(_cut_to_rank_64, cli.EXIT_OK), (lambda w: 1e-6 * w, cli.EXIT_USAGE)],
    ids=["rank64", "tiny"],
)
def test_overflowing_report_exits_2(tmp_path, capsys, command, edit, code):
    """A layer-2 factor beyond float64 exits 2: the full-rank Koopman factor
    1/det(W^T W)^(1/4) = e^884 (1e-6 * orthogonal).  A rank-64 layer 2 is
    rank deficient, so its spectral product is "inf", not an overflow, and
    every total stays finite."""
    net = _digits_net()
    net.layers[1].weight = edit(net.layers[1].weight)
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    assert run_cli(command[0], str(path), *command[1:]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == cli.EXIT_USAGE:
        assert err.startswith("error: the bound report overflows float64")
    elif command[0] == "bound":
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["matrix_factor"] == "inf"
        assert all(0.0 < v < math.inf for v in doc["totals"].values())
    else:
        assert "rank deficient" in out.splitlines()[2]


@pytest.mark.parametrize("widths,head,activation", [
    ([784, 128, 10], SoftmaxHead(), SmoothLeakyRelu()),  # B underflows
    ([64, 1024, 10], SoftmaxHead(), SmoothLeakyRelu()),  # ||K_sigma|| overflows
    ([3, 3, 6], GaussianHead(), SmoothLeakyRelu(alpha=0.1)),  # sigma' reaches 0
], ids=["784-128-10", "64-1024-10", "alpha0.1"])
def test_inspect_needs_no_bound_constants(tmp_path, capsys, widths, head, activation):
    """inspect prints spectra and constants-free Koopman factors, so a net
    whose bound constants leave float64 or do not exist still gets its table."""
    net = build_network(widths, head, seed=0, init="orthogonal", activation=activation)
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    assert run_cli("inspect", str(path)) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["layer", *map(str, range(1, net.depth + 1))]


def test_inspect_overflowing_koopman_factor_exits_2(tmp_path, capsys):
    """Layer 1 = 1e-150 * I: its factor within the report carries the activation
    norm 1e-200 and is finite, the constants-free factor e^1036 that inspect
    prints is not."""
    tiny = CustomActivation("tiny", derivative_sup=1.0, inverse_jacobian_sup=1e-200)
    net = NetworkSpec(6, [
        LayerSpec(1e-150 * np.eye(6), np.zeros(6), tiny, s_out=3.05),
        LayerSpec(np.eye(6), np.zeros(6), s_out=3.05),
    ], GaussianHead(), s_in=3.05)
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    assert run_cli("bound", str(path), "--n", "1500") == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["layers"][0]["koopman_factor"] == "inf"
    assert run_cli("inspect", str(path)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: the bound report overflows float64")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [("bound", "--n", "1500"), ("inspect",)])
@pytest.mark.parametrize("shape", ["rank1", "digits"])
def test_underflowing_sigma_max_squared_exits_0(tmp_path, capsys, command, shape):
    """A layer scaled by 1e-200: sigma_1^2 is below float64's range, sigma_1 is not."""
    if shape == "rank1":
        net = build_network([3, 3, 6], GaussianHead(), seed=0)
        net.layers[0].weight = 1e-200 * np.outer([1.0, 2.0, 0.5], [1.0, 0.0, 1.0])
    else:
        net = _digits_net()
        net.layers[2].weight = 1e-200 * net.layers[2].weight
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    assert run_cli(command[0], str(path), *command[1:]) == cli.EXIT_OK
    out = capsys.readouterr().out
    if command[0] == "bound":
        doc = json.loads(out, parse_constant=_reject_constant)
        # neyshabur18 reads the stable rank; the others the Frobenius norm
        for variant in ("neyshabur18", "neyshabur15", "golowich18", "combined"):
            assert 0.0 < doc["totals"][variant] < math.inf
    else:
        assert "nan" not in out


def test_overflowing_sigma_max_squared_exits_0(tmp_path, capsys):
    """Layer 2 scaled by 1e160: sigma_1^2 and the squared entries are beyond
    float64's range; the per-layer factors and the Frobenius norm are not."""
    net = build_network([3, 3, 6], SoftmaxHead(), seed=0)
    net.layers[1].weight *= 1e160
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("bound", str(path), "--n", "1500") == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["totals"] and all(0.0 < v < math.inf for v in doc["totals"].values())


@pytest.mark.parametrize("command", [("bound", "--n", "1500"), ("inspect",)])
def test_scaled_orthogonal_layer_report_is_finite(tmp_path, capsys, command):
    """300 * Q: ||W||^s and det(W^T W)^(1/4) are each near 1e158 and beyond
    float64 squared; their ratio, the layer's factor, is not."""
    net = _digits_net()
    net.layers[1].weight *= 300.0
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    out = tmp_path / "out"
    flags = ("--output", str(out)) if command[0] == "bound" else ("--csv", str(out))
    assert run_cli(command[0], str(path), *command[1:], *flags) == 0
    capsys.readouterr()
    if command[0] == "bound":
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert all(0.0 < v < math.inf for v in doc["totals"].values())
        assert doc["layers"][1]["density_ratio_bound"] == "inf"
    else:
        assert all(line.split(",")[-1] != "n/a" for line in out.read_text().splitlines()[1:3])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_bound_json_is_strict_and_round_trips(tmp_path, capsys):
    """A zero layer: condition number and spectral product are +inf."""
    net = build_network([3, 3, 6], GaussianHead(), seed=2)
    net.layers[0].weight = np.zeros((3, 3))
    path, out = tmp_path / "net.json", tmp_path / "report.json"
    weightio.save_weights(net, path)
    assert run_cli("bound", str(path), "--n", "100", "--output", str(out)) == 0
    capsys.readouterr()
    text = out.read_text()
    doc = json.loads(text, parse_constant=_reject_constant)
    assert doc["matrix_factor"] == "inf" and doc["layers"][0]["condition_number"] == "inf"
    report = bounds.BoundReport.from_json(text)
    assert report.matrix_factor == math.inf
    assert report.layers[0].condition_number == math.inf
    assert report.to_json() == text


def test_zero_layer_report_is_strict_json(tmp_path, capsys):
    """An all-zero layer 2 has no stable rank: null in the bound JSON, nan in
    the inspect table."""
    net = build_network([3, 3, 6], GaussianHead(), seed=0)
    net.layers[1].weight = np.zeros((6, 3))
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    assert run_cli("bound", str(path), "--n", "1000") == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["layers"][1]["stable_rank"] is None
    assert doc["layers"][1]["koopman_factor"] is None
    assert 0.0 < doc["layers"][0]["stable_rank"] < math.inf
    assert run_cli("inspect", str(path)) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[2].split()[4] == "nan"


UNWRITABLE_OUTPUTS = {
    "bound": ("bound", "{weights}", "--n", "10", "--output", "{blocked}/report.json"),
    "inspect": ("inspect", "{weights}", "--csv", "{blocked}/table.csv"),
    "verify": ("verify", "--suite", "kernels", "--json", "{blocked}/verdict.json"),
    # an outdir that is an existing file
    "train": ("train", "--task", "synthetic", "--epochs", "1", "--outdir", "{blocked}"),
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS.keys())
def test_unwritable_artifact_exits_2(weightfile, tmp_path, capsys, monkeypatch, argv):
    """An output path under a regular file cannot be written; train finds
    out before it trains."""
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory\n")

    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --outdir")

    monkeypatch.setattr(trainer, "train", no_training)
    monkeypatch.setattr(cli.verify, "run_suites", lambda names: {"passed": True, "suites": []})
    argv = [a.format(weights=weightfile, blocked=blocked) for a in argv]
    assert run_cli(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocked) in err
    assert "Traceback" not in err


SOFTMAX_PATHS_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    from koopbound import bounds, cli, trainer
    from koopbound.network import GaussianHead
    path, gaussian_path, outdir = sys.argv[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["bound", path, "--n", "1500"]),
            cli.main(["inspect", path]),
            cli.main(["bound", gaussian_path, "--n", "1500"]),
            cli.main(["inspect", gaussian_path]),
        ]
        scipy_after_bound = sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        codes.append(
            cli.main(["train", "--task", "digits", "--epochs", "1", "--outdir", outdir]))
    loaded = [m for m in ("scipy.integrate", "scipy.optimize", "scipy.sparse")
              if m in sys.modules]
    net = trainer.build_network([3, 3, 6], GaussianHead(), seed=0)
    g_norm = bounds.default_constants(net, 100).g_norm
    print(json.dumps({"codes": codes, "scipy_after_bound": scipy_after_bound,
                      "loaded": loaded, "g_norm": g_norm}))
""")


def test_softmax_commands_do_not_load_quadrature(tmp_path):
    """bound and inspect, on a softmax-head and on a Gaussian-head net, import
    no scipy module at all, and digits training never imports scipy.integrate,
    nor the optimize and sparse packages it pulls in; the Gaussian-head norm
    computed in that process equals this one's."""
    path, gaussian_path = tmp_path / "net.json", tmp_path / "gaussian.json"
    weightio.save_weights(_digits_net(), path)
    weightio.save_weights(build_network([3, 3, 6], GaussianHead(), seed=2), gaussian_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SOFTMAX_PATHS_SCRIPT, str(path), str(gaussian_path),
         str(tmp_path / "run")],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert doc["scipy_after_bound"] == []
    assert doc["loaded"] == []
    expected = bounds.default_constants(build_network([3, 3, 6], GaussianHead(), seed=0), 100)
    assert doc["g_norm"] == expected.g_norm


class TestTrainCommand:
    def test_artifacts_and_byte_identity(self, tmp_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            code = run_cli(
                "train", "--task", "synthetic", "--seed", "0",
                "--epochs", "3", "--outdir", str(d),
            )
            assert code == 0
        for name in ("metrics.csv", "weights.json", "spectrum.csv",
                     "bound_vs_generror.svg"):
            assert (d1 / name).exists()
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        capsys.readouterr()

    def test_seed_sweep_writes_correlation_summary(self, tmp_path, capsys):
        code = run_cli(
            "train", "--task", "synthetic", "--seeds", "0,1",
            "--epochs", "3", "--outdir", str(tmp_path / "sweep"),
        )
        assert code == 0
        summary = (tmp_path / "sweep" / "correlation_summary.csv").read_text()
        lines = summary.splitlines()
        assert lines[0] == "seed,pearson_bound_generror"
        assert len(lines) == 3
        assert (tmp_path / "sweep" / "seed0" / "metrics.csv").exists()
        capsys.readouterr()

    def test_config_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "learning_rate": 0.01}))
        code = run_cli(
            "train", "--task", "synthetic", "--config", str(cfg),
            "--outdir", str(tmp_path / "run"),
        )
        assert code == 0
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 3  # header + 2 epochs
        capsys.readouterr()

    def test_config_seed_is_usage_error(self, tmp_path, capsys):
        # the seed comes from --seed or --seeds, which would silently override it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "epochs": 1}))
        for flags in ((), ("--seeds", "1,2")):
            code = run_cli(
                "train", "--task", "synthetic", "--config", str(cfg), *flags,
                "--outdir", str(tmp_path / "run"),
            )
            assert code == cli.EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: --config") and "--seed" in err
            assert not (tmp_path / "run").exists()

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"momentum": 0.9}))
        code = run_cli(
            "train", "--task", "synthetic", "--config", str(cfg),
            "--outdir", str(tmp_path / "run"),
        )
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("task,doc", [
        ("synthetic", {"optimizer": "foo"}),
        ("synthetic", {"head_loss": "hinge"}),
        ("synthetic", {"regularizer": "l2"}),
        ("synthetic", {"batch_size": 0}),
        ("synthetic", {"batch_size": -4}),
        ("synthetic", {"epochs": "3"}),
        ("synthetic", {"head_loss": "cross_entropy"}),
        ("digits", {"reg_layers": [5]}),
        ("synthetic", 5),
        ("digits", {"regularizer": "synthetic"}),
        ("digits", {"beta1": 1.0}),
        ("digits", {"beta1": -0.1}),
        ("digits", {"beta2": 1.5}),
        ("digits", {"eps": 0.0}),
        ("digits", {"eps": math.inf}),
        ("synthetic", {"learning_rate": 1e400}),
        ("synthetic", {"lam": -0.01}),
        ("synthetic", {"lam": math.nan}),
        ("digits", {"lam1": math.inf}),
        ("digits", {"lam2": -1.0}),
        ("synthetic", {"epochs": True}),
        ("synthetic", {"learning_rate": True}),
        ("synthetic", {"batch_size": True}),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, task, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(
            "train", "--task", task, "--config", str(cfg),
            "--outdir", str(tmp_path / "run"),
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "train", "--task", "synthetic", "--epochs", "0",
            "--outdir", str(tmp_path / "run"),
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seeds", ["a,b", "1,,2", "1.5", "3,3", ""])
    def test_malformed_seeds_is_usage_error(self, tmp_path, capsys, seeds):
        code = run_cli(
            "train", "--task", "synthetic", "--seeds", seeds,
            "--outdir", str(tmp_path / "run"),
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --seeds")
        assert not (tmp_path / "run").exists()

    def test_divergence_exit_code_with_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"learning_rate": 1e160, "epochs": 5, "regularizer": "none"}
        ))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run_cli(
                "train", "--task", "synthetic", "--config", str(cfg),
                "--outdir", str(tmp_path / "run"),
            )
        assert code == cli.EXIT_DIVERGED
        assert (tmp_path / "run" / "weights.json").exists()
        capsys.readouterr()

    def test_rank_collapse_exit_code_with_artifacts(self, tmp_path, capsys, monkeypatch):
        real = trainer.regularizer_synthetic
        calls = []

        def collapsing(net, lam):
            calls.append(1)
            if len(calls) > 15:  # 10 steps per epoch: mid epoch 2
                raise RankDeficientError("layer 1 is numerically singular", sigma_min=0.0)
            return real(net, lam)

        monkeypatch.setattr(trainer, "regularizer_synthetic", collapsing)
        out = tmp_path / "run"
        code = run_cli("train", "--task", "synthetic", "--epochs", "4", "--outdir", str(out))
        assert code == cli.EXIT_DIVERGED
        assert "1 epochs, diverged" in capsys.readouterr().out
        assert len((out / "metrics.csv").read_text().splitlines()) == 2
        assert (out / "weights.json").exists() and (out / "spectrum.csv").exists()

    def test_no_regularizer_flag_changes_result(self, tmp_path, capsys):
        base, noreg = tmp_path / "base", tmp_path / "noreg"
        run_cli("train", "--task", "synthetic", "--epochs", "3",
                "--outdir", str(base))
        run_cli("train", "--task", "synthetic", "--epochs", "3",
                "--no-regularizer", "--outdir", str(noreg))
        assert (base / "weights.json").read_bytes() != (noreg / "weights.json").read_bytes()
        capsys.readouterr()


@pytest.mark.parametrize("factors", [[1.0, 2.0, math.inf], [math.inf, math.inf]],
                         ids=["one_inf", "all_inf"])
def test_scatter_plots_finite_matrix_factors_only(tmp_path, capsys, monkeypatch, factors):
    """An epoch with a numerically rank-deficient layer logs matrix_factor inf;
    the plot leaves it out, as the Pearson summary does, and each point keeps
    its shade epoch / last epoch.  No finite epoch, no plot."""
    def inf_training(config, data, net, classification=False):
        metrics = [trainer.EpochMetrics(epoch=e, train_loss=0.5, gen_error=0.1 * e,
                                        matrix_factor=f, bound_totals={})
                   for e, f in enumerate(factors, start=1)]
        return trainer.TrainRun(config=config, metrics=metrics, net=net,
                                spectrum=diagnostics.SpectrumLog())

    monkeypatch.setattr(trainer, "train", inf_training)
    assert run_cli("train", "--task", "synthetic", "--outdir", str(tmp_path)) == 0
    capsys.readouterr()
    svg = tmp_path / "bound_vs_generror.svg"
    finite = [(e, f) for e, f in enumerate(factors, start=1) if math.isfinite(f)]
    if not finite:
        assert not svg.exists()
        return
    assert svg.read_text() == scatter_svg(
        [f for _, f in finite], [0.1 * e for e, _ in finite],
        shades=[e / len(factors) for e, _ in finite],
        xlabel="bound factor", ylabel="generalization error",
    )
    assert "nan" not in svg.read_text() and "inf" not in svg.read_text()


def test_spectrum_csv_header_matches_documented_columns(tmp_path, capsys):
    doc = cli.__doc__.split("Spectrum CSV columns:")[1].split(".\n")[0]
    documented = [name.strip() for name in doc.split(",")]
    assert run_cli("train", "--task", "synthetic", "--epochs", "1",
                   "--outdir", str(tmp_path)) == 0
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header.split(",") == documented
    capsys.readouterr()


class TestVerifyCommand:
    def test_single_suite_json_verdict(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        code = run_cli("verify", "--suite", "kernels", "--json", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        capsys.readouterr()

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_cli("verify", "--suite", "spectral") == cli.EXIT_USAGE
        capsys.readouterr()


class TestSvgArtifact:
    def test_svg_is_timestamp_free_scatter(self, tmp_path, capsys):
        run_cli("train", "--task", "synthetic", "--epochs", "3",
                "--outdir", str(tmp_path / "run"))
        svg = (tmp_path / "run" / "bound_vs_generror.svg").read_text()
        assert svg.startswith("<svg") or svg.startswith("<?xml")
        assert "circle" in svg
        assert "date" not in svg.lower() and "time" not in svg.lower()
        capsys.readouterr()

    def test_axis_labels_stay_short_near_float64_limit(self):
        # a digits sweep plots matrix_factor values of this size on the x axis
        svg = scatter_svg([4.2e117, 4.1e169], [0.1, 0.3], shades=[0.0, 1.0])
        bodies = re.findall(r">([^<]*)</text>", svg)
        assert len(bodies) == 6
        assert all(len(body) <= 12 for body in bodies)


class TestPearson:
    # shaped like a digits run's matrix_factor column, whose squares overflow float64
    XS = [2.5e162, 4.1e169, 3.0e165, 1.0e168, 7.7e166]
    YS = [0.10, 0.30, 0.20, 0.25, 0.15]

    def test_series_near_float64_limit(self):
        scaled = [x / 1e160 for x in self.XS]
        assert pearson(self.XS, self.YS) == pytest.approx(pearson(scaled, self.YS), rel=1e-15)

    def test_power_of_two_scale_is_exact(self):
        xs = [x / 1e160 for x in self.XS]
        r = pearson(xs, self.YS)
        assert pearson([math.ldexp(x, 900) for x in xs], self.YS) == r
        assert pearson(xs, [math.ldexp(y, -1000) for y in self.YS]) == r

    def test_constant_series_gives_zero(self):
        assert pearson([0.0, 0.0, 0.0], self.YS[:3]) == 0.0
        assert pearson([1e300, 1e300], [1.0, 2.0]) == 0.0
