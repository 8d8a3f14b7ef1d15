"""Golden hashes: the default-config artifacts, pinned byte for byte.

Every command runs in-process through ``cli.main`` on the checked-in configs.
A ``manifest.json`` holds the sha256 of each file its command wrote, plus the
config digest, seed and input basenames, so one manifest hash pins all of a
command's artifacts.  ``verify`` writes no files; its stdout is hashed.

A refactor must leave every hash here unchanged.  A deliberate format change
updates them in the same change and says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from qeraser import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOUBLE = CONFIGS / "double_default.json"
SINGLE = CONFIGS / "single_default.json"

GOLDEN = {
    "patterns_double": "aadfa4d75d786d27e5bc2b043085a5f8b2a201b2859bfa7c99d78e4ec63ceb7c",
    "patterns_single": "903b5a841db20eb0197f24a8a11601b64e4f3de74da9e982c52fd2e3fea57745",
    "simulate": "021e675dedf8668b1cc4bc5a3af5f60a1de6a795e8dbf550c5c03605a38eecb9",
    "simulate_background": "9d76929b25052efb48bef6277d1f7faf1203f08143f1de04981822f2396d551f",
    "decode_omniscient": "88345314bb35185afd067752f9e292b165f1520db3f2456df36c51b96df3356a",
    "decode_alisha": "9b2aa565547658d8201673154902d1ac91fa1ccb4930d65fb72c04608de28787",
    "sweep": "908792357c2dff9450b8c84b70ce41ac62e09369f6088eb4fa860f50a0bd7b1c",
    "verify_stdout": "2fbf819c74c5220f4d960dcc795da3e6e1847c14d3d79a4fdbfe3c4f7837a1d0",
    "sweep_edges": "8e9e12c6637d94ef0b680df34ba5d41d27978e1daf6f4c0787103db973bffaca",
}


def manifest_sha(out: Path) -> str:
    return hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(["simulate", "--config", str(DOUBLE), "--out", str(out), "--seed", "0"]) == 0
    return out


@pytest.mark.parametrize("name, config", [("patterns_double", DOUBLE), ("patterns_single", SINGLE)])
def test_patterns_golden(tmp_path, name, config):
    assert cli.main(["patterns", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert manifest_sha(tmp_path) == GOLDEN[name]


def test_simulate_golden(simulated):
    assert manifest_sha(simulated) == GOLDEN["simulate"]


def test_simulate_background_golden(tmp_path):
    """Dark counts at 2e-3 per ns pin inject_background's merge byte for byte."""
    argv = [
        "simulate", "--config", str(DOUBLE), "--out", str(tmp_path), "--seed", "0",
        "--background-rate", "2e-3",
    ]
    assert cli.main(argv) == 0
    assert manifest_sha(tmp_path) == GOLDEN["simulate_background"]


@pytest.mark.parametrize("mode", ["omniscient", "alisha"])
def test_decode_golden(tmp_path, simulated, mode):
    triples = simulated / "triples.csv"
    argv = ["decode", "--config", str(DOUBLE), "--triples", str(triples), "--mode", mode, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert manifest_sha(tmp_path) == GOLDEN[f"decode_{mode}"]


def test_sweep_golden(tmp_path):
    assert cli.main(["sweep", "--config", str(DOUBLE), "--out", str(tmp_path)]) == 0
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 120
    assert manifest_sha(tmp_path) == GOLDEN["sweep"]


def test_sweep_edges_golden(tmp_path):
    """Taps of 0 and 1 on both arms reach every branch of the sweep.

    babu tap 1 leaves the erasing slices empty (NaN visibility); alisha tap 0
    empties the D3'/D4' marginal columns and tap 1 the D1'/D2' ones.
    """
    argv = [
        "sweep", "--config", str(DOUBLE), "--out", str(tmp_path),
        "--tap", "0,1", "--splitter", "0,1",
        "--tap-alisha", "0,1", "--theta-alisha", "0.0,0.5235987755982988",
    ]
    assert cli.main(argv) == 0
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 320
    assert sum(",nan," in row for row in rows) > 0
    assert manifest_sha(tmp_path) == GOLDEN["sweep_edges"]


def test_verify_golden(capsys):
    capsys.readouterr()
    assert cli.main(["verify", "--trials", "200", "--seed", "0"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == GOLDEN["verify_stdout"]
