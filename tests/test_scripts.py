"""The study scripts in scripts/ run end to end through their main(argv)."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
EXACT = 1e-12


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_erasure(tmp_path, capsys):
    """The (D1, D1') visibility is |sin 2 theta cos chi| and the marginal never moves."""
    csv = tmp_path / "scan.csv"
    assert load("scan_erasure").main(["--steps", "5", "--csv", str(csv)]) == 0
    theta, visibility, expected, shift = np.loadtxt(csv, delimiter=",", ndmin=2).T
    assert len(theta) == 5
    assert np.abs(visibility - expected).max() <= EXACT
    assert np.abs(shift).max() <= EXACT
    assert f"wrote {csv}" in capsys.readouterr().out


def test_run_protocol(tmp_path, capsys):
    out = tmp_path / "protocol"
    assert load("run_protocol").main(["--block-size", "500", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["decode_alisha_only.csv", "decode_omniscient.csv"]
    assert "bit error rate" in capsys.readouterr().out
