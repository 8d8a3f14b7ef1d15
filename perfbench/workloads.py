"""The benchmark's workloads: command sequences, output checks, input properties.

Each workload is a fixed sequence of steps.  A step is one ``python -m
qeraser.cli`` command, or the library-level ``rematch`` step, together with
the checks its outputs must pass.  Checks read outputs through the library's
public readers where one exists (``read_triples``), through the manifest for
file hashes, through the ``# columns=`` header of the small CSV tables, and
through the commands' printed summaries otherwise.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qeraser.analysis import (
    alisha_observable_cells,
    mutual_information,
    schedule_bit_labels,
)
from qeraser.events import emit_events, inject_background, read_triples, sample_triples
from qeraser.experiment import SwitchSchedule, config_from_dict

from rematch import batch_digest

DEFAULT_CONFIG = Path("configs") / "double_default.json"
WINDOW_NS = 20  # coincidence window of every stream workload
EXACT_TOL = 1e-12
MI_BIAS_FACTOR = 3.0


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Step:
    name: str  # unique within the workload
    metric: str  # end-to-end metric its wall time adds to
    args: tuple  # arguments after `python -m qeraser.cli`, or after rematch.py
    out: Path | None  # directory the step writes, or None
    reads: tuple = ()  # files the step reads
    checks: tuple = ()  # callables (Context, Step, StepRun) -> None
    library: bool = False  # True for the rematch step


@dataclass
class StepRun:
    rc: int
    wall_s: float
    rss_bytes: int
    stdout: str
    stderr: str


@dataclass
class Context:
    """What the checks of one pass share: the workload's inputs and what they read."""

    bits: tuple
    block_size: int
    work: Path

    @functools.cached_property
    def triples(self):
        """(TripleBatch, SimStreamHeader) of the simulated triples.csv, read once."""
        return read_triples(self.work / "sim" / "triples.csv")


def default_experiment(root: Path) -> dict:
    return json.loads((root / DEFAULT_CONFIG).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Checks shared by several steps.
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(ctx: Context, step: Step, run: StepRun) -> None:
    manifest = json.loads((step.out / "manifest.json").read_text(encoding="utf-8"))
    outputs = manifest.get("outputs", {})
    require(bool(outputs), "manifest lists no outputs")
    for name, digest in outputs.items():
        require(_sha256(step.out / name) == digest, f"manifest sha256 of {name} does not match")


def _printed(run: StepRun, pattern: str) -> str:
    match = re.search(pattern, run.stdout, re.MULTILINE)
    require(match is not None, f"output has no line matching {pattern!r}")
    return match.group(1)


def read_table(path: Path) -> tuple[dict, dict]:
    """'#'-headered CSV table -> (header key/values, column name -> strings)."""
    meta, rows = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            rows.append(line.split(","))
    names = meta["columns"].split(",")
    require(all(len(r) == len(names) for r in rows), f"{path.name}: ragged rows")
    return meta, {n: [r[i] for r in rows] for i, n in enumerate(names)}


# ---------------------------------------------------------------------------
# Stream workloads: simulate, decode twice, optionally re-match the log.
# ---------------------------------------------------------------------------


def clustered_d0(time_ns: np.ndarray, detector: np.ndarray, window_ns: int) -> tuple[int, int]:
    """(D0 records with another D0 within 2w, D0 records) of a sorted stream."""
    t = time_ns[detector == 0]  # code 0 is D0 (qeraser.events.CODE_D0)
    close = np.diff(t) <= 2 * int(window_ns)
    clustered = np.zeros(len(t), dtype=bool)
    clustered[:-1] |= close
    clustered[1:] |= close
    return int(clustered.sum()), len(t)


def check_all_matched(ctx: Context, step: Step, run: StepRun) -> None:
    sampled = len(ctx.bits) * ctx.block_size
    matched = len(ctx.triples[0])
    require(matched == sampled, f"matched {matched} of {sampled} sampled triples")
    orphans = int(_printed(run, r"^orphans (\d+)$"))
    require(orphans == 0, f"{orphans} orphan records without background")


def check_screen_mi(ctx: Context, step: Step, run: StepRun) -> None:
    triples = ctx.triples[0]
    schedule = SwitchSchedule(bits=ctx.bits, block_size=ctx.block_size)
    mi = mutual_information(schedule_bit_labels(triples, schedule), alisha_observable_cells(triples))
    require(
        mi.mi_bits <= MI_BIAS_FACTOR * mi.bias_bound,
        f"screen-side MI {mi.mi_bits:.3e} bits above {MI_BIAS_FACTOR} x bias bound {mi.bias_bound:.3e}",
    )


def check_schedule_decoded(ctx: Context, step: Step, run: StepRun) -> None:
    decoded = _printed(run, r"^decoded_bits=([01]*)$")
    expected = "".join(str(b) for b in ctx.bits)
    errors = sum(a != b for a, b in zip(decoded, expected)) + abs(len(decoded) - len(expected))
    require(errors == 0, f"omniscient decode missed {errors} of {len(expected)} bits")


def check_rematch(ctx: Context, step: Step, run: StepRun) -> None:
    result = json.loads(run.stdout.strip().splitlines()[-1])
    batch, header = ctx.triples
    require(
        result["first"]["window_ns"] == header.coincidence_window_ns,
        "rematch did not use the header window",
    )
    require(
        result["first"]["digest"] == batch_digest(batch),
        "rematch at the header window differs from triples.csv",
    )
    require(result["second"]["matched"] > 0, "rematch at the second window matched nothing")


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    bits_repeat: int
    block_size: int
    background_rate: float
    rematch: bool

    def bits(self, root: Path) -> tuple:
        return tuple(default_experiment(root)["experiment"]["schedule"]["bits"]) * self.bits_repeat

    def context(self, root: Path, work: Path) -> Context:
        return Context(bits=self.bits(root), block_size=self.block_size, work=work)

    def config_data(self, root: Path) -> dict:
        """The default config with this workload's schedule."""
        data = default_experiment(root)
        data["experiment"]["schedule"] = {"bits": list(self.bits(root)), "block_size": self.block_size}
        return data

    def prepare(self, seed: int, work: Path, root: Path) -> list[Step]:
        """Write the workload's config into work and return its steps."""
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        config.write_text(
            json.dumps(self.config_data(root), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        sim = work / "sim"
        triples = sim / "triples.csv"
        sim_checks = [check_manifest, check_screen_mi]
        if self.background_rate == 0.0:
            sim_checks.append(check_all_matched)
        steps = [
            Step(
                "simulate",
                "simulate_s",
                ("simulate", "--config", str(config), "--out", str(sim), "--seed", str(seed),
                 "--window-ns", str(WINDOW_NS), "--background-rate", repr(self.background_rate)),
                out=sim,
                reads=(config,),
                checks=tuple(sim_checks),
            )
        ]
        for mode in ("omniscient", "alisha"):
            out = work / f"decode_{mode}"
            checks = (check_manifest, check_schedule_decoded) if mode == "omniscient" else (check_manifest,)
            steps.append(
                Step(
                    f"decode_{mode}",
                    "decode_s",
                    ("decode", "--config", str(config), "--triples", str(triples),
                     "--mode", mode, "--out", str(out)),
                    out=out,
                    reads=(config, triples),
                    checks=checks,
                )
            )
        if self.rematch:
            log = sim / "events.csv"
            steps.append(
                Step(
                    "rematch",
                    "rematch_s",
                    ("--log", str(log)),
                    out=None,
                    reads=(log,),
                    checks=(check_rematch,),
                    library=True,
                )
            )
        return steps

    def properties(self, seed: int, root: Path) -> dict:
        """Input properties of the stream simulate writes, regenerated in-process."""
        config = config_from_dict(self.config_data(root))
        triples = sample_triples(config, seed=seed)
        stream = inject_background(emit_events(triples, config, seed), self.background_rate, seed)
        clustered, d0 = clustered_d0(stream.time_ns, stream.detector, WINDOW_NS)
        return {
            "triples": len(triples),
            "blocks": len(config.schedule.bits),
            "triples_per_block": self.block_size,
            "records": len(stream),
            "background_share_of_records": 1.0 - 3 * len(triples) / len(stream),
            "events.clustered_d0_frac": clustered / d0,
            "coincidence_window_ns": WINDOW_NS,
        }

    def rates(self, seconds: dict, root: Path) -> dict:
        n = len(self.bits(root)) * self.block_size
        return {"triples_per_s": n / (seconds["simulate_s"] + seconds["decode_s"])}


# ---------------------------------------------------------------------------
# Tables workload: exact tables, a settings sweep and the property suite.
# ---------------------------------------------------------------------------


def check_patterns(ctx: Context, step: Step, run: StepRun) -> None:
    _, patterns = read_table(step.out / "patterns.csv")
    probs = np.array(patterns["probability"], dtype=float)
    require(abs(probs.sum() - 1.0) <= EXACT_TOL, f"patterns sum to 1 {probs.sum() - 1.0:+.3e}")
    summed: dict = {}
    for k, x, p in zip(patterns["alisha"], patterns["bin_center_m"], probs):
        key = (k, float(x))
        summed[key] = summed.get(key, 0.0) + p
    _, marginal = read_table(step.out / "marginal.csv")
    rows = {
        (k, float(x)): float(p)
        for k, x, p in zip(marginal["alisha"], marginal["bin_center_m"], marginal["probability"])
    }
    require(rows.keys() == summed.keys(), "marginal.csv and patterns.csv cover different cells")
    worst = max(abs(rows[key] - summed[key]) for key in rows)
    require(worst <= EXACT_TOL, f"marginal.csv differs from summed patterns by {worst:.3e}")


def check_verify(ctx: Context, step: Step, run: StepRun) -> None:
    require("all properties hold" in run.stdout, "verify did not report all properties holding")


@dataclass(frozen=True)
class TablesWorkload:
    name: str
    thetas: int
    chis: int
    taps: int
    alisha_thetas: int
    alisha_taps: int
    verify_trials: int

    @property
    def sweep_points(self) -> int:
        return self.thetas * self.chis * self.taps * 2 * self.alisha_thetas * self.alisha_taps

    def context(self, root: Path, work: Path) -> Context:
        return Context(bits=(), block_size=0, work=work)

    def grid(self, seed: int) -> dict:
        """Sweep axes drawn from the seed; the splitter axis is always both states."""
        rng = random.Random(seed)

        def axis(n, lo, hi):
            return ",".join(repr(v) for v in sorted(rng.uniform(lo, hi) for _ in range(n)))

        return {
            "--theta": axis(self.thetas, 0.0, math.pi),
            "--chi": axis(self.chis, 0.0, 2.0 * math.pi),
            "--tap": axis(self.taps, 0.0, 1.0),
            "--splitter": "1,0",
            "--theta-alisha": axis(self.alisha_thetas, 0.0, 0.5 * math.pi),
            "--tap-alisha": axis(self.alisha_taps, 0.0, 1.0),
        }

    def check_sweep(self, ctx: Context, step: Step, run: StepRun) -> None:
        meta, table = read_table(step.out / "sweep.csv")
        rows = len(table["theta"])
        require(rows == self.sweep_points, f"sweep wrote {rows} rows, expected {self.sweep_points}")
        require(int(meta["n_rows"]) == rows, "sweep n_rows header disagrees with its rows")
        for column in [c for c in table if c.startswith("cancel_residual_")] + ["marginal_residual"]:
            worst = np.array(table[column], dtype=float).max()
            require(worst <= EXACT_TOL, f"sweep {column} reaches {worst:.3e}")

    def prepare(self, seed: int, work: Path, root: Path) -> list[Step]:
        config = root / DEFAULT_CONFIG
        work.mkdir(parents=True, exist_ok=True)
        sweep_args = [a for pair in self.grid(seed).items() for a in pair]
        return [
            Step(
                "patterns",
                "patterns_s",
                ("patterns", "--config", str(config), "--out", str(work / "patterns")),
                out=work / "patterns",
                reads=(config,),
                checks=(check_manifest, check_patterns),
            ),
            Step(
                "sweep",
                "sweep_s",
                ("sweep", "--config", str(config), "--out", str(work / "sweep"), *sweep_args),
                out=work / "sweep",
                reads=(config,),
                checks=(check_manifest, self.check_sweep),
            ),
            Step(
                "verify",
                "verify_s",
                ("verify", "--trials", str(self.verify_trials), "--config", str(config),
                 "--seed", str(seed)),
                out=None,
                reads=(config,),
                checks=(check_verify,),
            ),
        ]

    def properties(self, seed: int, root: Path) -> dict:
        return {"sweep_points": self.sweep_points, "verify_trials": self.verify_trials}

    def rates(self, seconds: dict, root: Path) -> dict:
        return {"sweep_points_per_s": self.sweep_points / seconds["sweep_s"]}


# Sizes follow the paper's pipeline at the ROADMAP reference size; each
# workload stresses different layers (see BENCHMARK.json for the reasons).
WORKLOADS = {
    w.name: w
    for w in (
        StreamWorkload("stream_1m", bits_repeat=1, block_size=50_000, background_rate=0.0, rematch=False),
        StreamWorkload("noisy_fine", bits_repeat=10, block_size=2_500, background_rate=2e-3, rematch=True),
        TablesWorkload(
            "tables", thetas=9, chis=8, taps=5, alisha_thetas=3, alisha_taps=2, verify_trials=10_000
        ),
    )
}
