"""qeraser benchmark.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 50 --trace 0

Run from anywhere inside a qeraser checkout; the checkout's ``src/`` is put on
``PYTHONPATH`` and nothing is installed.  Workloads: ``noisy_fine`` and
``tables``, the two BENCHMARK.json lists, and ``stream_1m`` (see
workloads.py and README.md).

``--trace 0`` runs the workload's commands as subprocesses, repeating the
whole sequence while the next repetition still fits in ``--seconds`` of
measured time (at least once), and reports the end-to-end metrics as medians
over the repetitions.  ``setup_s`` is the median wall time of fresh
interpreters importing ``qeraser.cli``, one before each repetition and one
after the last (at least ``SETUP_SAMPLES``), so the samples spread over the
run.  Each command runs under launch.py, so its peak RSS is its own and not
this process's.  Every interpreter, the children included, runs numpy's
BLAS with one thread, so a run keeps to one busy thread on a small shared
machine.

``--trace 1`` runs the same commands in-process, once plainly and once with
every public function of the layer modules wrapped in spans (tracer.py), and
reports the per-layer metrics plus the tracing overhead between the two.
The spans of the last traced pass go to ``.perfbench_out/spans_<workload>.json``.

Every output is checked; a command that exits non-zero or fails a check
counts as failed.  Before the last line the run prints a readable report and
one ``{"report": ...}`` JSON line holding every measured value, the input
properties and an environment stamp.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy is imported anywhere; children inherit it through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REQUIRED = ("src/qeraser/cli.py", "configs/double_default.json")
IMPORTTIME_REPEATS = 3
SETUP_SAMPLES = 3  # fewest fresh-interpreter imports behind one setup_s

# Gated end-to-end metrics: each one exists on every workload.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}
# Reported per workload where it applies.
STAGE_UNITS = {
    "simulate_s": "s",
    "decode_s": "s",
    "rematch_s": "s",
    "patterns_s": "s",
    "sweep_s": "s",
    "verify_s": "s",
    "triples_per_s": "1/s",
    "sweep_points_per_s": "1/s",
    "failed_frac": "ratio",
}

CLI_COMMANDS = ("patterns", "simulate", "verify", "decode", "sweep")
LAYERS = ("cli", "experiment", "optics", "events", "analysis")
TIMED = (
    "experiment.load_config",
    "optics.joint_distribution",
    "optics.screen_marginal",
    "optics.interference_coefficient",
    "events.sample_triples",
    "events.emit_events",
    "events.inject_background",
    "events.match_coincidences",
    "events.write_event_log",
    "events.read_event_log",
    "events.write_triples",
    "events.read_triples",
    "analysis.decode_omniscient",
    "analysis.decode_alisha_only",
    "analysis.build_histogram",
    "analysis.fit_fringe",
)
CALLED = (
    "experiment.config_digest",
    "optics.joint_distribution",
    "optics.interference_coefficient",
    "events.match_coincidences",
    "analysis.build_histogram",
    "analysis.fit_fringe",
)
COUNTED = {
    "events.background_events": "count",
    "events.matched_triples": "count",
    "events.orphans": "count",
    "events.event_log_bytes": "bytes",
    "events.triples_bytes": "bytes",
    "analysis.blocks_decoded": "count",
    "analysis.low_sample_blocks": "count",
}


def per_layer_units() -> dict:
    units = {"cli.import_s": "s", "cli.import_scipy_stats_s": "s"}
    units.update({f"cli.{c}_self_s": "s" for c in CLI_COMMANDS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{name}_s": "s" for name in TIMED})
    units.update({f"{name}_calls": "count" for name in CALLED})
    units.update(COUNTED)
    units.update(
        {"events.match_yield": "ratio", "events.clustered_d0_frac": "ratio", "trace_overhead_frac": "ratio"}
    )
    return units


# ---------------------------------------------------------------------------
# Running commands.
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS bytes).

    The child runs under launch.py, which times it and takes its peak RSS
    with ``os.wait4``; on SIGTERM the launcher ends the child and reaps it.
    """
    report = stdout_path.with_suffix(".launch.json")
    report.unlink(missing_ok=True)
    launcher = [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(report)]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(launcher + argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    if not report.exists():
        raise RuntimeError(f"launch.py wrote no report for {argv}: exit code {rc}")
    measured = json.loads(report.read_text(encoding="utf-8"))
    return rc, measured["wall_s"], measured["maxrss_bytes"]


def step_argv(step) -> list:
    if step.library:
        return [sys.executable, str(ROOT / "perfbench" / "rematch.py"), *step.args]
    return [sys.executable, "-m", "qeraser.cli", *step.args]


def run_step_child(step, logs: Path):
    from workloads import StepRun

    out, err = logs / f"{step.name}.out", logs / f"{step.name}.err"
    rc, wall, rss = run_child(step_argv(step), out, err)
    return StepRun(rc, wall, rss, out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))


def run_step_in_process(step):
    """Same command in this interpreter; module attributes are looked up per call."""
    import rematch
    from qeraser import cli
    from workloads import StepRun

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = (rematch.main if step.library else cli.main)(list(step.args))
    except SystemExit as exc:  # same exit codes as the interpreter would give
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crashing command is a failed command, not a crashed benchmark
        rc = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    wall = time.perf_counter() - start
    return StepRun(int(rc or 0), wall, 0, out.getvalue(), err.getvalue())


def run_pass(workload, seed: int, work: Path, in_process: bool, tracer=None) -> dict:
    """Run the workload's steps once, then check their outputs.

    With a tracer, the steps run with the tracer's wrappers installed; the
    checks run after they are removed, so they never show up in the trace.
    The pass's ``wall_s`` is the sum of the steps' own wall times.
    """
    from tracer import OBSERVERS

    if work.exists():
        shutil.rmtree(work)
    steps = workload.prepare(seed, work, ROOT)
    logs = work / "logs"
    logs.mkdir()
    runs = {}
    if tracer is not None:
        tracer.install(OBSERVERS)
    try:
        for step in steps:
            runs[step.name] = run_step_in_process(step) if in_process else run_step_child(step, logs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = evaluate(workload, steps, runs, work)
    result["wall_s"] = sum(run.wall_s for run in runs.values())
    shutil.rmtree(work)
    return result


def evaluate(workload, steps, runs, work: Path) -> dict:
    from workloads import CheckFailed

    ctx = workload.context(ROOT, work)
    failures, seconds = {}, {}
    written = read = 0
    for step in steps:
        run = runs[step.name]
        seconds[step.metric] = seconds.get(step.metric, 0.0) + run.wall_s
        problems = [] if run.rc == 0 else [f"exit code {run.rc}: {run.stderr.strip()[-300:]}"]
        for check in step.checks if run.rc == 0 else ():
            try:
                check(ctx, step, run)
            except CheckFailed as exc:
                problems.append(f"{check.__name__}: {exc}")
            except Exception as exc:  # unreadable output fails the check, not the benchmark
                problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
        if problems:
            failures[step.name] = problems
        if step.out is not None and step.out.exists():
            written += sum(p.stat().st_size for p in step.out.rglob("*") if p.is_file())
        read += sum(p.stat().st_size for p in step.reads if p.exists())
    return {
        "seconds": seconds,
        "peak_rss_bytes": max(r.rss_bytes for r in runs.values()),
        "bytes_written_from_file_sizes": written,
        "bytes_read_from_file_sizes": read,
        "attempted": len(steps),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Measurements.
# ---------------------------------------------------------------------------


def time_import(logs: Path) -> float:
    """Wall seconds of one fresh interpreter importing qeraser.cli."""
    argv = [sys.executable, "-c", "import qeraser.cli"]
    rc, wall, _ = run_child(argv, logs / "setup.out", logs / "setup.err")
    if rc != 0:
        raise RuntimeError("import qeraser.cli failed: " + (logs / "setup.err").read_text())
    return wall


def measure_importtime(repeats: int, logs: Path) -> tuple[float, float]:
    """Median import time of qeraser.cli and of scipy.stats (-X importtime).

    The qeraser.cli figure adds up the cumulative times of the top-level
    ``qeraser*`` lines: whether the package shows as a line of its own or
    nested under ``qeraser.cli`` depends on the Python version.
    """
    argv = [sys.executable, "-X", "importtime", "-c", "import qeraser.cli"]
    cli_s, scipy_s = [], []
    for _ in range(repeats):
        rc, _, _ = run_child(argv, logs / "importtime.out", logs / "importtime.err")
        if rc != 0:
            raise RuntimeError("import qeraser.cli failed under -X importtime")
        top_qeraser = scipy = 0.0
        for line in (logs / "importtime.err").read_text().splitlines():
            parts = line.split("|")
            if not (line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit()):
                continue
            seconds, name = int(parts[1]) / 1e6, parts[2][1:]  # nesting shows as leading spaces
            if name.startswith("qeraser"):
                top_qeraser += seconds
            elif name.strip() == "scipy.stats":
                scipy = seconds
        cli_s.append(top_qeraser)
        scipy_s.append(scipy)
    return statistics.median(cli_s), statistics.median(scipy_s)


def untraced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    logs = OUT_DIR / "logs"
    setup, passes, measured = [], [], 0.0
    while not passes or measured * (len(passes) + 1) / len(passes) <= seconds:
        setup.append(time_import(logs))
        passes.append(run_pass(workload, seed, OUT_DIR / "work", in_process=False))
        measured += passes[-1]["wall_s"]
    while len(setup) < max(SETUP_SAMPLES, len(passes) + 1):
        setup.append(time_import(logs))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    medians = median_of_dicts(
        [
            {
                "wall_s": p["wall_s"],
                "peak_rss_mb": p["peak_rss_bytes"] / 1e6,
                "output_mb": p["bytes_written_from_file_sizes"] / 1e6,
                **p["seconds"],
                **workload.rates(p["seconds"], ROOT),
            }
            for p in passes
        ]
    )
    metrics = {"setup_s": statistics.median(setup), **{k: medians[k] for k in END_TO_END_UNITS if k in medians}}
    stages = {k: v for k, v in medians.items() if k not in metrics}
    report = {
        "metrics": {**metrics, **stages, "failed_frac": failed / attempted},
        "setup_samples_s": setup,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, report


def median_of_dicts(dicts: list) -> dict:
    return {key: statistics.median([d[key] for d in dicts]) for key in dicts[0]}


def layer_metrics(tracer, importtime: tuple, overhead: float, inputs: dict) -> dict:
    summary = tracer.summary()
    functions, counters = summary["functions"], tracer.counters

    def field(name, key):
        return functions.get(name, {}).get(key, 0)

    metrics = {"cli.import_s": importtime[0], "cli.import_scipy_stats_s": importtime[1]}
    commands = summary["command_self_s"]
    metrics.update({f"cli.{c}_self_s": commands.get(f"cli.cmd_{c}", 0.0) for c in CLI_COMMANDS})
    metrics.update({f"{layer}.self_s": summary["layer_self_s"].get(layer, 0.0) for layer in LAYERS})
    metrics.update({f"{name}_s": field(name, "total_s") for name in TIMED})
    metrics.update({f"{name}_calls": field(name, "calls") for name in CALLED})
    metrics.update({key: counters.get(key, 0) for key in COUNTED})
    d0 = counters.get("events.d0_records", 0)
    metrics["events.match_yield"] = counters.get("events.matched_triples", 0) / d0 if d0 else 0.0
    metrics["events.clustered_d0_frac"] = inputs.get("events.clustered_d0_frac", 0.0)
    metrics["trace_overhead_frac"] = overhead
    return metrics


def traced(workload, seed: int, seconds: float, inputs: dict) -> tuple[dict, dict]:
    from tracer import Tracer

    importtime = measure_importtime(IMPORTTIME_REPEATS, OUT_DIR / "logs")
    import qeraser.cli  # noqa: F401  (imported before timing, as the subprocesses' setup)

    pairs, tracers, measured = [], [], 0.0
    while not pairs or measured * (len(pairs) + 1) / len(pairs) <= seconds:
        tracer = Tracer()
        work = OUT_DIR / "work"
        # alternate which pass runs first, so warm-up favours neither side
        if len(pairs) % 2 == 0:
            plain = run_pass(workload, seed, work, in_process=True)
            traced_ = run_pass(workload, seed, work, in_process=True, tracer=tracer)
        else:
            traced_ = run_pass(workload, seed, work, in_process=True, tracer=tracer)
            plain = run_pass(workload, seed, work, in_process=True)
        overhead = traced_["wall_s"] / plain["wall_s"] - 1.0
        pairs.append({"plain": plain, "traced": traced_, "layers": layer_metrics(tracer, importtime, overhead, inputs)})
        tracers.append(tracer)
        measured += plain["wall_s"] + traced_["wall_s"]

    spans_path = OUT_DIR / f"spans_{workload.name}.json"
    tracers[-1].write(spans_path)
    passes = [p[side] for p in pairs for side in ("plain", "traced")]
    metrics = median_of_dicts([p["layers"] for p in pairs])
    report = {
        "metrics": metrics,
        "bindings": tracers[-1].bindings,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": [len(t.name) for t in tracers],
        "passes": passes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
    }
    return metrics, report


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git must not pick up an enclosing repo
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_benchmark(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object and the full report."""
    (OUT_DIR / "logs").mkdir(parents=True, exist_ok=True)
    inputs = workload.properties(seed, ROOT)
    if trace:
        metrics, report = traced(workload, seed, seconds, inputs)
        units = per_layer_units()
    else:
        metrics, report = untraced(workload, seed, seconds)
        units = END_TO_END_UNITS
    all_units = {**END_TO_END_UNITS, **STAGE_UNITS, **per_layer_units()}
    report["metrics"] = {name: {"value": v, "unit": all_units[name]} for name, v in report["metrics"].items()}
    report.update(workload=workload.name, inputs=inputs, environment=environment(seed))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "report": report}


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['environment']['seed']}")
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print("inputs (bytes computed from file sizes):")
    for key in ("bytes_written_from_file_sizes", "bytes_read_from_file_sizes"):
        print(f"  {key:34s} {report['passes'][0][key]}")
    for name, value in report["inputs"].items():
        print(f"  {name:34s} {value}")
    for pass_ in report["passes"]:
        for step, problems in pass_["failures"].items():
            for problem in problems:
                print(f"FAILED {step}: {problem}")
    print(json.dumps({"report": report}, sort_keys=True, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qeraser benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child stops the running command on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a qeraser checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports qeraser, so only once src/ is on the path

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("perfbench: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    out = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(out["report"])
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
