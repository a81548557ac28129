"""scripts/golden_diff.py, the number-by-number comparison of two golden
directories, and scripts/golden.py, which writes them."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("golden_diff", _SCRIPTS / "golden_diff.py")
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)

REPORT = {"layers": [{"condition_number": 1.25, "stable_rank": 1.8}], "matrix_factor": "inf"}


@pytest.fixture
def dirs(tmp_path):
    """Two golden directories holding the same report and CSV."""
    roots = tmp_path / "a", tmp_path / "b"
    for root in roots:
        (root / "run").mkdir(parents=True)
        (root / "net.bound.json").write_text(json.dumps(REPORT, indent=2) + "\n")
        (root / "run" / "metrics.csv").write_text("epoch,train_loss\n1,0.3\n")
    return roots


def _write_report(root: Path, doc: dict) -> None:
    (root / "net.bound.json").write_text(json.dumps(doc, indent=2) + "\n")


def _drifted(rel: float) -> dict:
    doc = json.loads(json.dumps(REPORT))
    doc["layers"][0]["condition_number"] *= 1.0 + rel
    return doc


def test_identical_directories_exit_0(dirs, capsys):
    assert golden_diff.main(*map(str, dirs)) == 0
    assert capsys.readouterr().out == ""


def test_drift_within_tolerance_exits_0_and_is_printed(dirs, capsys):
    _write_report(dirs[1], _drifted(1e-13))
    assert golden_diff.main(*map(str, dirs)) == 0
    out = capsys.readouterr().out
    assert out.startswith("net.bound.json: max relative difference")
    assert 5e-14 < float(out.split()[-1]) < 2e-13


def test_drift_beyond_tolerance_exits_1(dirs, capsys):
    _write_report(dirs[1], _drifted(1e-11))
    assert golden_diff.main(*map(str, dirs)) == 1
    assert "net.bound.json: max relative difference" in capsys.readouterr().out


def test_added_json_key_is_text_difference(dirs, capsys):
    doc = json.loads(json.dumps(REPORT))
    doc["layers"][0]["koopman_factor"] = 1.0
    _write_report(dirs[1], doc)
    assert golden_diff.main(*map(str, dirs)) == 1
    assert capsys.readouterr().out == "net.bound.json: text differs\n"


@pytest.mark.parametrize("side", [0, 1])
def test_file_in_one_directory_exits_1(dirs, capsys, side):
    (dirs[side] / "run" / "spectrum.csv").write_text("epoch\n1\n")
    assert golden_diff.main(*map(str, dirs)) == 1
    assert capsys.readouterr().out == f"run/spectrum.csv: only in {dirs[side]}\n"


TRAIN_RUNS = ("synthetic", "synthetic_perlayer", "digits_reg", "digits_unreg")
GOLDEN_FILES = {
    *(f"{run}/{name}" for run in TRAIN_RUNS for name in (
        "bound_vs_generror.svg", "metrics.csv", "spectrum.csv", "weights.json")),
    *(f"{run}.train.txt" for run in TRAIN_RUNS),
    *(f"synthetic_seeds/seed{seed}/{name}" for seed in (0, 1) for name in (
        "bound_vs_generror.svg", "metrics.csv", "spectrum.csv", "weights.json")),
    "synthetic_seeds/correlation_summary.csv",
    "rank1/weights.json", "zero2/weights.json",
    *(f"{net}.{kind}" for net in (*TRAIN_RUNS, "rank1", "zero2") for kind in (
        "bound.json", "bound.csv", "inspect.csv", "inspect.txt")),
    "rank1.bound_overrides.json", "rank1.bound_overrides.csv",
    "verify.lemma1.json", "verify.dominance.json",
}


def test_golden_twice_is_byte_identical(tmp_path, capsys):
    roots = tmp_path / "a", tmp_path / "b"
    for root in roots:
        done = subprocess.run(
            [sys.executable, str(_SCRIPTS / "golden.py"), str(root)],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        written = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
        assert written == GOLDEN_FILES
    assert golden_diff.main(*map(str, roots)) == 0
    assert capsys.readouterr().out == ""
    for name in GOLDEN_FILES:
        assert (roots[0] / name).read_bytes() == (roots[1] / name).read_bytes(), name
