"""Command-line surface: exit codes, artifact schemas, reproducibility."""

import json

import numpy as np
import pytest

from koopbound import bounds, cli, weightio
from koopbound.network import GaussianHead, SmoothLeakyRelu, SoftmaxHead
from koopbound.trainer import build_network


@pytest.fixture
def weightfile(tmp_path):
    net = build_network([3, 3, 6], GaussianHead(), seed=2)
    path = tmp_path / "net.json"
    weightio.save_weights(net, path)
    return str(path)


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

    def test_unknown_variant(self, weightfile, capsys):
        code = run_cli("bound", weightfile, "--n", "100", "--variants", "spectral")
        assert code == cli.EXIT_USAGE
        assert "unknown variant" in capsys.readouterr().err

    def test_bad_sigma_norms(self, weightfile, capsys):
        code = run_cli("bound", weightfile, "--n", "100", "--sigma-norms", "1.0,x")
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags", [("--n", "0"), ("--n", "5", "--g-norm", "-1"), ("--n", "5", "--sigma-norms", "1")]
    )
    def test_invalid_constants(self, weightfile, capsys, flags):
        assert run_cli("bound", weightfile, *flags) == cli.EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_activation_not_bi_lipschitz(self, tmp_path, capsys):
        act = SmoothLeakyRelu(alpha=0.1, mu=0.001)
        path = tmp_path / "net.json"
        weightio.save_weights(build_network([3, 3, 6], GaussianHead(), seed=0, activation=act), path)
        for argv in (("bound", str(path), "--n", "10"), ("inspect", str(path))):
            assert run_cli(*argv) == cli.EXIT_USAGE
            assert "not bounded away from zero" in capsys.readouterr().err


# each edit leaves a malformed file that must end in exit 2, never a traceback
MALFORMED = {
    "missing_s_in": lambda d: d.pop("s_in"),
    "alpha_out_of_range": lambda d: d["layers"][0]["activation"]["params"].update(alpha=2.0),
    "unknown_head_param": lambda d: d["head"]["params"].update(width=3),
    "non_numeric_weight": lambda d: d["layers"][0]["weights"].__setitem__(0, "x"),
    "nan_bias": lambda d: d["layers"][0]["bias"].__setitem__(0, float("nan")),
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

    def test_no_regularizer_flag_changes_result(self, tmp_path, capsys):
        base, noreg = tmp_path / "base", tmp_path / "noreg"
        run_cli("train", "--task", "synthetic", "--epochs", "3",
                "--outdir", str(base))
        run_cli("train", "--task", "synthetic", "--epochs", "3",
                "--no-regularizer", "--outdir", str(noreg))
        assert (base / "weights.json").read_bytes() != (noreg / "weights.json").read_bytes()
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
