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
    "patterns_double": "12680f9c30c1402faf9a04360e409f1726bef11a9dc79fa230e178f16eeeb5ab",
    "patterns_single": "19437c73cb6a3ec317cbe1c76aa0a19a5c3870d30a3a867370ca259b83447306",
    "simulate": "021e675dedf8668b1cc4bc5a3af5f60a1de6a795e8dbf550c5c03605a38eecb9",
    "decode_omniscient": "88345314bb35185afd067752f9e292b165f1520db3f2456df36c51b96df3356a",
    "decode_alisha": "9b2aa565547658d8201673154902d1ac91fa1ccb4930d65fb72c04608de28787",
    "sweep": "6debce23537565716eba1491c14a92bfe1d0c50e123c8835a63fba8ff6ac3ecc",
    "verify_stdout": "7e394f2cc075334201d5566493700d5ec0d7f348ed4eee7ee9e4936476abf980",
    "sweep_edges": "7e33dafabd2e7b2cd2b409c01993784f2a8da1efb3bf5cafd4ea024007e7b0ca",
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
