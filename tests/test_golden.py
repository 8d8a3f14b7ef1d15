"""Golden hashes: the default-config artifacts, pinned byte for byte.

Every command runs in-process through ``cli.main`` on the checked-in configs.
A ``manifest.json`` holds the sha256 of each file its command wrote, plus the
config digest, seed and input basenames, so one manifest hash pins all of a
command's artifacts.  ``verify`` writes no files; its stdout is hashed.

A refactor must leave every hash here unchanged.  A deliberate format change
updates them in the same change and says so in CHANGES.md.

The hashes hold on every CPU: ``test_goldens_hold_in_every_environment``
runs all of them, plus a Gaussian-envelope ``patterns``, ``sweep`` and
``verify``, in subprocesses under other OpenBLAS kernels and with numpy's
dispatched SIMD loops switched off.  Run as a script, this module prints
those runs' hashes as JSON: ``python tests/test_golden.py WORK_DIR``.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from qeraser import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOUBLE = CONFIGS / "double_default.json"
SINGLE = CONFIGS / "single_default.json"

GOLDEN = {
    "patterns_double": "4a15a9b456194e0e25b2e8ca43cd41fa44bc5ae4dfb7dccf37181b6f907fbbe0",
    "patterns_single": "eb07e2e8b43095c6ea8e84d8d272c2fc971bf49bdc418ef3d57b28f4501e80b0",
    "simulate": "61cadcfaaf3b74d6fff60f6588420f726010ab7b55123ce2560ece812101d35a",
    "simulate_background": "7e68eaa3b8d1148ac2a7bc6788bf9bcbb88aefd4d1fe24f495969e3370288246",
    "decode_omniscient": "6a1a0605a72bbcbd5ab04bb14f132cd5b2046e79f3571118ea723471e9e88a03",
    "decode_alisha": "30af981c16de8dc38faf89bec9bdc26f2085c9fe8b5d49fc08ac33ac32d9a766",
    "sweep": "79a4c4fd4ee3cef607f0032eeb8708680652746aa5119770d967425259b149d5",
    "verify_stdout": "062fd02bb880aed3640adce321dbca13eb0f5e745a09be1529dd5ba3bd850322",
    "sweep_edges": "7dd8250d3ffebf18975fe6a00b2228f99e242be771f514766ec726bd4b9d5689",
}


EDGES = ["--tap", "0,1", "--splitter", "0,1", "--tap-alisha", "0,1", "--theta-alisha", "0.0,0.5235987755982988"]


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
    assert cli.main(["sweep", "--config", str(DOUBLE), "--out", str(tmp_path), *EDGES]) == 0
    rows = [line for line in (tmp_path / "sweep.csv").read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 320
    assert sum(",nan," in row for row in rows) > 0
    assert manifest_sha(tmp_path) == GOLDEN["sweep_edges"]


def test_verify_golden(capsys):
    capsys.readouterr()
    assert cli.main(["verify", "--trials", "200", "--seed", "0"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == GOLDEN["verify_stdout"]


def run_all(work: Path) -> dict:
    """sha256 of every golden run, and of each run's stdout with work's path blanked.

    The nine GOLDEN names hash a manifest (verify_stdout its stdout); the
    gaussian_ names run the same commands on the double config with a
    Gaussian envelope, where GaussianEnvelope.profile takes part.
    """
    doc = json.loads(DOUBLE.read_text())
    doc["experiment"]["envelope"] = {"type": "gaussian", "sigma": 2.0e-3}
    gaussian = work / "gaussian.json"
    gaussian.write_text(json.dumps(doc))
    triples = str(work / "simulate" / "triples.csv")
    runs = {
        "patterns_double": ["patterns", "--config", str(DOUBLE)],
        "patterns_single": ["patterns", "--config", str(SINGLE)],
        "simulate": ["simulate", "--config", str(DOUBLE), "--seed", "0"],
        "simulate_background": ["simulate", "--config", str(DOUBLE), "--seed", "0", "--background-rate", "2e-3"],
        "decode_omniscient": ["decode", "--config", str(DOUBLE), "--triples", triples, "--mode", "omniscient"],
        "decode_alisha": ["decode", "--config", str(DOUBLE), "--triples", triples, "--mode", "alisha"],
        "sweep": ["sweep", "--config", str(DOUBLE)],
        "sweep_edges": ["sweep", "--config", str(DOUBLE), *EDGES],
        "verify_stdout": ["verify", "--trials", "200", "--seed", "0"],
        "gaussian_patterns": ["patterns", "--config", str(gaussian)],
        "gaussian_sweep": ["sweep", "--config", str(gaussian)],
        "gaussian_verify_stdout": ["verify", "--config", str(gaussian), "--trials", "200", "--seed", "0"],
    }
    hashes = {}
    for name, argv in runs.items():
        out = work / name
        writes = argv[0] != "verify"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv + ["--out", str(out)] if writes else argv) == 0, name
        text = stdout.getvalue()
        hashes[f"{name}.stdout"] = hashlib.sha256(text.replace(str(work), "WORK").encode()).hexdigest()
        hashes[name] = manifest_sha(out) if writes else hashlib.sha256(text.encode()).hexdigest()
    return hashes


def _numpy_cpu():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


DISPATCHED, CPU_FEATURES = _numpy_cpu()
X86_64 = platform.machine().lower() in ("x86_64", "amd64")
ENVIRONMENTS = [
    pytest.param({}, id="default"),
    pytest.param(
        {"OPENBLAS_CORETYPE": "Prescott"}, id="openblas-prescott",
        marks=pytest.mark.skipif(not X86_64, reason="OpenBLAS core types are x86-64 names"),
    ),
    pytest.param(
        {"OPENBLAS_CORETYPE": "Haswell"}, id="openblas-haswell",
        marks=pytest.mark.skipif(not (X86_64 and CPU_FEATURES.get("AVX2")), reason="needs x86-64 with AVX2"),
    ),
    # every dispatched feature this CPU has, so numpy runs its baseline loops only
    pytest.param(
        {"NPY_DISABLE_CPU_FEATURES": " ".join(f for f in DISPATCHED if CPU_FEATURES.get(f))},
        id="numpy-baseline-simd",
    ),
]


def run_in_subprocess(work: Path, extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    paths = [str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    argv = [sys.executable, __file__, str(work)]
    done = subprocess.run(argv, env={**env, **extra}, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def default_hashes(tmp_path_factory):
    return run_in_subprocess(tmp_path_factory.mktemp("default"), {})


@pytest.mark.parametrize("extra", ENVIRONMENTS)
def test_goldens_hold_in_every_environment(tmp_path, default_hashes, extra):
    """Every artifact and stdout is the same under any BLAS kernel or SIMD level.

    No BLAS or LAPACK call reaches an artifact, and every sum runs in a fixed
    order, so the pinned hashes are not this machine's alone.
    """
    hashes = run_in_subprocess(tmp_path, extra) if extra else default_hashes
    assert {name: hashes[name] for name in GOLDEN} == GOLDEN
    assert hashes == default_hashes


if __name__ == "__main__":
    print(json.dumps(run_all(Path(sys.argv[1]))))
