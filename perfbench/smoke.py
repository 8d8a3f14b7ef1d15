"""Smoke test of the benchmark at tiny sizes; it asserts nothing about timing.

    python3 perfbench/smoke.py

Runs every workload run.py knows (those BENCHMARK.json lists and
``stream_1m``), shrunk to a few thousand triples or grid points, untraced
and traced.  Each result must name exactly the metrics
BENCHMARK.json lists for that mode, with the same units, and report no
failed command.  The untraced report must also carry the workload's stage
metrics (``REPORTED``) with their units, and the traced one must not put the
qeraser.cli import below the scipy.stats import it contains.  Then one
output check is broken on purpose, and the failure must be counted:
``failed`` is 1, ``failed_frac`` is 1/3 and ``correct`` is false.  Exits 0
when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "stream_1m": {"block_size": 2_000},
    "noisy_fine": {"bits_repeat": 1, "block_size": 2_000},
    "tables": {
        "thetas": 2,
        "chis": 2,
        "taps": 2,
        "alisha_thetas": 1,
        "alisha_taps": 1,
        "verify_trials": 50,
    },
}

# End-to-end metrics that only the report line carries, per workload.
REPORTED = {
    "stream_1m": {"simulate_s": "s", "decode_s": "s", "triples_per_s": "1/s", "failed_frac": "ratio"},
    "noisy_fine": {
        "simulate_s": "s",
        "decode_s": "s",
        "rematch_s": "s",
        "triples_per_s": "1/s",
        "failed_frac": "ratio",
    },
    "tables": {
        "patterns_s": "s",
        "sweep_s": "s",
        "verify_s": "s",
        "sweep_points_per_s": "1/s",
        "failed_frac": "ratio",
    },
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = [f"BENCHMARK.json lists unknown workload {entry['name']}"
                for entry in spec["workloads"] if entry["name"] not in workloads.WORKLOADS]

    def tiny(name):
        return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            out = run.run_benchmark(tiny(workload), 0, 0, trace)
            result, reported = out["result"], out["report"]["metrics"]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(expected[trace].keys() - units.keys())
                extra = sorted(units.keys() - expected[trace].keys())
                wrong = sorted(k for k in units.keys() & expected[trace].keys() if units[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{label}: {name} is not a finite number: {m['value']!r}")
            if not trace:
                for name, unit in REPORTED[workload].items():
                    if reported.get(name, {}).get("unit") != unit:
                        problems.append(f"{label}: report lacks {name} in {unit}: {reported.get(name)}")
            else:
                cli_s, scipy_s = reported["cli.import_s"]["value"], reported["cli.import_scipy_stats_s"]["value"]
                if not cli_s >= scipy_s > 0:
                    problems.append(f"{label}: cli.import_s {cli_s} not >= cli.import_scipy_stats_s {scipy_s} > 0")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: expected a clean run, got {result}")
            print(f"ok {label}: {len(units)} metrics, {result['attempted']} commands", flush=True)

    def broken_check(ctx, step, run_):
        raise workloads.CheckFailed("deliberately broken check")

    original = workloads.check_verify
    workloads.check_verify = broken_check
    try:
        out = run.run_benchmark(tiny("tables"), 0, 0, False)
    finally:
        workloads.check_verify = original
    result, failed_frac = out["result"], out["report"]["metrics"]["failed_frac"]["value"]
    if result["correct"] or result["failed"] != 1 or failed_frac != 1 / 3:
        problems.append(f"broken check not counted: {result}, failed_frac {failed_frac}")
    else:
        print("ok broken check counted: failed 1 of 3, failed_frac 1/3", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
