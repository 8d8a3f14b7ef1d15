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


def test_ber_vs_background(capsys):
    """One row per rate; no decoder misses more bits than the seeds' schedules hold."""
    argv = ["--seeds", "3:5", "--rates", "0,0.05", "--block-size", "300", "--repeat", "1"]
    assert load("ber_vs_background").main(argv) == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert head == "20 blocks x 300 triples, window +-20 ns, seeds 3..4"
    assert columns.split() == ["rate/ns", "omniscient", "alisha", "omniscient", "misses", "at", "seeds"]
    assert [row.split()[0] for row in rows] == ["0", "0.05"]
    bits = 2 * 20  # two seeds of the default schedule's 20 bits
    for row in rows:
        rate, omniscient, alisha, *missed = row.split()
        for errors in (omniscient, alisha):
            wrong, total = map(int, errors.split("/"))
            assert total == bits and 0 <= wrong <= bits
        assert missed == ["-"] or set(missed) <= {"3", "4"}
