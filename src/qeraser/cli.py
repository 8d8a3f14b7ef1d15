"""Command-line front end.

Subcommands
-----------
patterns   write exact conditional pattern tables for a config
simulate   sample triples, emit a time-tagged event log, match coincidences
verify     run randomized exact-identity checks (unitarity, normalisation,
           fringe cancellation, marginal invariance); exit 0 iff all hold
decode     run a per-block decoder over a triples file
sweep      grid over babu/alisha settings; visibilities and residuals per row

Config file (JSON)::

    {
      "experiment": {
        "mode": "double_delayed_choice",        # or "single_delayed_choice"
        "geometry": {"d": 0.001, "lambda": 7e-07, "f": 1.0,
                     "L": 0.005, "n_bins": 256},
        "envelope": {"type": "uniform"},        # or {"type": "gaussian",
                                                #     "sigma": 0.002}
        "babu":   {"tap_p": 0.5, "splitter": true, "theta": 0.785398...,
                   "chi": 0.0},
        "alisha": {"tap_p": 0.5, "splitter": true, "theta": 0.785398...,
                   "chi": 0.0},
        "schedule": {"bits": [1, 0, ...], "block_size": 10000},
        "pair_rate_scale": 1.0
      }
    }

Geometry fields are metres; theta/chi parameterise the recombiner as
alpha = cos(theta), beta = sin(theta) e^{i chi}.  Every output file embeds
the sha256 digest of the canonical config serialisation so artifacts from
different configs cannot be mixed up silently; marginal tables embed the
digest of the screen-side config subset instead, because they provably do
not depend on babu's settings.  A manifest.json written next to the outputs
records command, seed, digest and the sha256 of every file; identical
manifests mean byte-identical artifacts.

Exit codes: 0 success, 1 verification failure, 2 bad usage/config/input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    LowSampleWarning,
    decode_alisha_only,
    decode_omniscient,
    fit_fringe,
    write_decode_csv,
)
from .events import (
    DEFAULT_WINDOW_NS,
    SimStreamHeader,
    inject_background,
    match_coincidences,
    read_triples,
    sample_triples,
    emit_events,
    triple_spacing_ns,
    write_event_log,
    write_triples,
)
from .experiment import (
    MODE_DOUBLE,
    config_digest,
    distribution_for,
    load_config,
    marginal_digest,
    single_choice_pattern,
)
from .optics import (
    ALISHA_LABELS,
    ArmOptics,
    BABU_LABELS,
    D1,
    D2,
    ERASING_OUTCOMES,
    SlitScreenGeometry,
    UniformEnvelope,
    alisha_marginal,
    arm_amplitudes,
    interference_coefficient,
    joint_distribution,
    screen_marginal,
    single_distribution,
    unitary_from_angle,
)

EXACT_TOL = 1e-12


def _fmt(v) -> str:
    return repr(float(v))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, details: dict, outputs: list[Path]) -> Path:
    # input files appear by basename only; the digest fields carry identity,
    # so identical runs stay byte-identical wherever they were produced
    manifest = {
        "tool": "qeraser",
        "tool_version": __version__,
        "command": command,
        **details,
        "outputs": {p.name: _sha256_file(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _load_config_or_fail(path: str):
    try:
        return load_config(path)
    except FileNotFoundError:
        raise SystemExit(f"qeraser: config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"qeraser: malformed config {path}: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:
        raise SystemExit(f"qeraser: invalid config {path}: {exc}")


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


def cmd_patterns(args) -> int:
    config = _load_config_or_fail(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    geom = config.geometry
    digest = config_digest(config)
    written: list[Path] = []

    if config.mode == MODE_DOUBLE:
        dist = distribution_for(config)
        lines = [
            f"# tool_version={__version__}",
            f"# config_digest={digest}",
            f"# mode={config.mode}",
            "# columns=babu,alisha,bin_center_m,probability",
        ]
        xs = geom.bin_centers
        for j in range(4):
            for k in range(4):
                slice_jk = dist.pattern(j, k)
                for x, p in zip(xs, slice_jk):
                    lines.append(
                        f"{BABU_LABELS[j]},{ALISHA_LABELS[k]},{_fmt(x)},{_fmt(p)}"
                    )
        path = out / "patterns.csv"
        _write_lines(path, lines)
        written.append(path)

        # written from the screen-side closed form and keyed to the screen-side
        # digest, so babu's settings cannot move a byte of this file; agreement
        # with the joint-table marginal is checked by `verify` and the sweep
        marg = screen_marginal(geom, config.envelope, config.alisha_optics)
        lines = [
            f"# tool_version={__version__}",
            f"# marginal_digest={marginal_digest(config)}",
            "# columns=alisha,bin_center_m,probability",
        ]
        for k in range(4):
            for x, p in zip(xs, marg[:, k]):
                lines.append(f"{ALISHA_LABELS[k]},{_fmt(x)},{_fmt(p)}")
        path = out / "marginal.csv"
        _write_lines(path, lines)
        written.append(path)
    else:
        lines = [
            f"# tool_version={__version__}",
            f"# config_digest={digest}",
            f"# mode={config.mode}",
            "# columns=babu,bin_center_m,probability",
        ]
        for j in ERASING_OUTCOMES:
            pattern = single_choice_pattern(j, config)
            for x, p in zip(geom.bin_centers, pattern):
                lines.append(f"{BABU_LABELS[j]},{_fmt(x)},{_fmt(p)}")
        path = out / "single_patterns.csv"
        _write_lines(path, lines)
        written.append(path)

    _write_manifest(
        out,
        "patterns",
        {"config": Path(args.config).name, "config_digest": digest},
        written,
    )
    for p in written:
        print(f"wrote {p}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = _load_config_or_fail(args.config)
    if config.schedule is None:
        raise SystemExit("qeraser: config has no schedule; nothing to simulate")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(args.seed)
    window = int(args.window_ns)
    schedule = config.schedule

    triples = sample_triples(config, seed=seed)
    stream = emit_events(triples, config, seed)
    if args.background_rate > 0.0:
        stream = inject_background(stream, args.background_rate, seed)

    spacing = triple_spacing_ns(config.pair_rate_scale)
    header = SimStreamHeader(
        seed=seed,
        config_digest=config_digest(config),
        coincidence_window_ns=window,
        bits="".join(str(b) for b in schedule.bits),
        block_size=schedule.block_size,
        spacing_ns=spacing,
        n_triples=schedule.n_triples,
        n_bins=config.geometry.n_bins,
    )

    events_path = out / "events.csv"
    write_event_log(events_path, stream, header)

    matched, orphans = match_coincidences(
        stream, window, block_size=schedule.block_size, spacing_ns=spacing
    )
    triples_path = out / "triples.csv"
    write_triples(triples_path, matched, header)

    which_path = np.mean((matched.babu >= 2) | (matched.alisha >= 2)) if len(matched) else 0.0
    print(f"sampled {len(triples)} triples over {len(schedule.bits)} blocks")
    print(f"emitted {len(stream)} event records (spacing {spacing} ns)")
    print(f"matched {len(matched)} triples in a +-{window} ns window")
    print(f"orphans {orphans.total}")
    print(f"which-path participation fraction {which_path:.6f}")
    _write_manifest(
        out,
        "simulate",
        {
            "config": Path(args.config).name,
            "config_digest": header.config_digest,
            "seed": seed,
            "window_ns": window,
            "background_rate": float(args.background_rate),
        },
        [events_path, triples_path],
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_residual: float
    detail: str = ""


def run_property_suite(
    trials: int = 1000,
    seed: int = 0,
    geom: SlitScreenGeometry | None = None,
    envelope=None,
    inject_nonunitary: bool = False,
) -> list[PropertyResult]:
    """Randomized exact-identity checks, each against a 1e-12 residual budget.

    inject_nonunitary is a test hook: it slips one non-unitary entry pair
    into the unitarity check, which must then fail with a diagnostic.
    """
    rng = np.random.default_rng(seed)
    if geom is None:
        geom = SlitScreenGeometry(
            slit_separation=1.0e-3,
            wavelength=7.0e-7,
            focal_length=1.0,
            screen_width=5.0e-3,
            n_bins=64,
        )
    if envelope is None:
        envelope = UniformEnvelope()
    results: list[PropertyResult] = []

    def rand_unitary():
        return unitary_from_angle(
            rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        )

    def rand_arm():
        return ArmOptics(
            tap_probability=rng.uniform(0.0, 1.0),
            splitter_present=bool(rng.integers(0, 2)),
            unitary=rand_unitary(),
        )

    # unitarity of angle-parameterised splitters
    worst = 0.0
    detail = ""
    passed = True
    for _ in range(trials):
        u = rand_unitary()
        worst = max(worst, abs(abs(u.alpha) ** 2 + abs(u.beta) ** 2 - 1.0))
    if inject_nonunitary:
        alpha, beta = 0.8 + 0j, 0.7 + 0j  # |a|^2+|b|^2 = 1.13: deliberately broken
        residual = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
        worst = max(worst, residual)
        detail = f"injected pair alpha={alpha}, beta={beta}, residual={residual:.3e}"
    passed = worst <= EXACT_TOL
    results.append(PropertyResult("unitarity", passed, worst, detail))

    # arm map isometry: the two path vectors stay orthonormal
    worst = 0.0
    for _ in range(trials):
        arm = rand_arm()
        va = arm_amplitudes("A", arm)
        vb = arm_amplitudes("B", arm)
        gram = np.array(
            [
                [np.vdot(va, va), np.vdot(va, vb)],
                [np.vdot(vb, va), np.vdot(vb, vb)],
            ]
        )
        worst = max(worst, float(np.abs(gram - np.eye(2)).max()))
    results.append(PropertyResult("arm-isometry", worst <= EXACT_TOL, worst))

    # joint table normalisation over random settings
    worst = 0.0
    for _ in range(max(trials // 10, 50)):
        dist = joint_distribution(geom, envelope, rand_arm(), rand_arm())
        worst = max(worst, abs(dist.total() - 1.0))
    results.append(PropertyResult("normalization", worst <= EXACT_TOL, worst))

    # fringe-coefficient cancellation over random unitary pairs
    worst = 0.0
    for _ in range(trials):
        ub, ua = rand_unitary(), rand_unitary()
        for k in ERASING_OUTCOMES:
            s = interference_coefficient(D1, k, ub, ua) + interference_coefficient(
                D2, k, ub, ua
            )
            worst = max(worst, abs(s))
    results.append(PropertyResult("pair-cancellation", worst <= EXACT_TOL, worst))

    # one-idler analogue: D1 + D2 patterns sum to the bare envelope
    worst = 0.0
    for _ in range(max(trials // 10, 50)):
        arm = rand_arm()
        table = single_distribution(geom, envelope, arm)
        summed = table[:, D1] + table[:, D2]
        flat = (1.0 - arm.tap_probability) * np.abs(
            envelope.profile(geom.bin_centers)
        ) / float(np.sum(envelope.profile(geom.bin_centers)))
        worst = max(worst, float(np.abs(summed - flat).max()))
    results.append(PropertyResult("single-cancellation", worst <= EXACT_TOL, worst))

    # screen-side marginal never moves when babu's arm changes
    worst = 0.0
    for _ in range(max(trials // 10, 50)):
        alisha = rand_arm()
        reference = screen_marginal(geom, envelope, alisha)
        for _ in range(2):
            dist = joint_distribution(geom, envelope, rand_arm(), alisha)
            worst = max(
                worst, float(np.abs(alisha_marginal(dist) - reference).max())
            )
    results.append(PropertyResult("marginal-invariance", worst <= EXACT_TOL, worst))
    return results


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise SystemExit(f"qeraser: --trials must be at least 1, got {args.trials}")
    config = _load_config_or_fail(args.config) if args.config else None
    geom = config.geometry if config else None
    envelope = config.envelope if config else None
    results = run_property_suite(
        trials=int(args.trials),
        seed=int(args.seed),
        geom=geom,
        envelope=envelope,
        inject_nonunitary=bool(args.inject_nonunitary),
    )
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} (max residual {r.max_residual:.3e}, tol {EXACT_TOL:.0e})"
        if r.detail:
            line += f" [{r.detail}]"
        print(line)
        all_passed &= r.passed
    print("all properties hold" if all_passed else "PROPERTY VIOLATION")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    config = _load_config_or_fail(args.config)
    if config.schedule is None:
        raise SystemExit("qeraser: config has no schedule to decode against")
    try:
        triples, header = read_triples(args.triples)
    except FileNotFoundError:
        raise SystemExit(f"qeraser: triples file not found: {args.triples}")
    except ValueError as exc:
        raise SystemExit(f"qeraser: bad triples file {args.triples}: {exc}")
    digest = config_digest(config)
    if header.config_digest != digest:
        raise SystemExit(
            "qeraser: triples file was produced under a different config "
            f"(file digest {header.config_digest[:12]}..., "
            f"config digest {digest[:12]}...)"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    decoder = decode_omniscient if args.mode == "omniscient" else decode_alisha_only
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LowSampleWarning)
        report = decoder(triples, config.schedule, config.geometry)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    path = out / f"decode_{args.mode}.csv"
    write_decode_csv(path, report, {"config_digest": digest, "seed": header.seed})
    print(f"decoder={args.mode}")
    print(f"decoded_bits={''.join(str(b) for b in report.decoded_bits)}")
    print(f"true_bits={''.join(str(b) for b in report.true_bits)}")
    print(f"bit_error_rate={report.bit_error_rate:.4f}")
    print(f"confidence={report.confidence:.4f}")
    _write_manifest(
        out,
        "decode",
        {
            "config": Path(args.config).name,
            "config_digest": digest,
            "triples": Path(args.triples).name,
            "mode": args.mode,
        },
        [path],
    )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_values(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise SystemExit(f"qeraser: cannot parse {what} list {text!r}")
    if not values:
        raise SystemExit(f"qeraser: empty {what} list")
    return values


_SWEEP_COLUMNS = (
    "theta,chi,tap,splitter,theta_alisha,chi_alisha,tap_alisha,"
    "vis_d1_d1p,vis_d1_d2p,vis_d2_d1p,vis_d2_d2p,"
    "cancel_residual_d1p,cancel_residual_d2p,"
    "marginal_visibility,marginal_residual"
)


def cmd_sweep(args) -> int:
    config = _load_config_or_fail(args.config)
    if config.mode != MODE_DOUBLE:
        raise SystemExit("qeraser: sweep needs a double_delayed_choice config")
    geom = config.geometry
    envelope = config.envelope
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    thetas = _parse_values(args.theta, "theta")
    chis = _parse_values(args.chi, "chi")
    taps = _parse_values(args.tap, "tap")
    splitters = [bool(int(v)) for v in _parse_values(args.splitter, "splitter")]
    a_thetas = _parse_values(args.theta_alisha, "theta-alisha") if args.theta_alisha else [config.alisha.theta]
    a_chis = _parse_values(args.chi_alisha, "chi-alisha") if args.chi_alisha else [config.alisha.chi]
    a_taps = _parse_values(args.tap_alisha, "tap-alisha") if args.tap_alisha else [config.alisha.tap_probability]

    rows = []
    references: dict = {}
    n_rows = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        for a_theta in a_thetas:
            for a_chi in a_chis:
                for a_tap in a_taps:
                    alisha = ArmOptics(
                        tap_probability=a_tap,
                        splitter_present=True,
                        unitary=unitary_from_angle(a_theta, a_chi),
                    )
                    group = (a_theta, a_chi, a_tap)
                    for theta in thetas:
                        for chi in chis:
                            for tap in taps:
                                for splitter in splitters:
                                    babu = ArmOptics(
                                        tap_probability=tap,
                                        splitter_present=splitter,
                                        unitary=unitary_from_angle(theta, chi),
                                    )
                                    dist = joint_distribution(geom, envelope, babu, alisha)
                                    vis = []
                                    for j in ERASING_OUTCOMES:
                                        for k in ERASING_OUTCOMES:
                                            slice_jk = dist.pattern(j, k)
                                            if slice_jk.sum() <= 0.0:
                                                vis.append(float("nan"))
                                            else:
                                                vis.append(fit_fringe(slice_jk, geom).visibility)
                                    ub = babu.effective_unitary
                                    ua = alisha.effective_unitary
                                    cancel = [
                                        abs(
                                            interference_coefficient(D1, k, ub, ua)
                                            + interference_coefficient(D2, k, ub, ua)
                                        )
                                        for k in ERASING_OUTCOMES
                                    ]
                                    marg = alisha_marginal(dist)
                                    if group not in references:
                                        references[group] = marg
                                    marg_residual = float(
                                        np.abs(marg - references[group]).max()
                                    )
                                    marg_vis = 0.0
                                    for k in range(4):
                                        col = marg[:, k]
                                        if col.sum() > 0.0:
                                            marg_vis = max(
                                                marg_vis, fit_fringe(col, geom).visibility
                                            )
                                    rows.append(
                                        ",".join(
                                            [
                                                _fmt(theta),
                                                _fmt(chi),
                                                _fmt(tap),
                                                str(int(splitter)),
                                                _fmt(a_theta),
                                                _fmt(a_chi),
                                                _fmt(a_tap),
                                            ]
                                            + [_fmt(v) for v in vis]
                                            + [_fmt(c) for c in cancel]
                                            + [_fmt(marg_vis), _fmt(marg_residual)]
                                        )
                                    )
                                    n_rows += 1

    digest = config_digest(config)
    lines = [
        f"# tool_version={__version__}",
        f"# config_digest={digest}",
        f"# n_rows={n_rows}",
        f"# columns={_SWEEP_COLUMNS}",
    ]
    lines.extend(rows)
    path = out / "sweep.csv"
    _write_lines(path, lines)
    print(f"wrote {path} ({n_rows} grid points)")
    _write_manifest(
        out,
        "sweep",
        {"config": Path(args.config).name, "config_digest": digest},
        [path],
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_DEFAULT_THETAS = "0.0,0.39269908169872414,0.7853981633974483,1.1780972450961724,1.5707963267948966"
_DEFAULT_CHIS = "0.0,0.7853981633974483,1.5707963267948966,2.356194490192345"
_DEFAULT_TAPS = "0.0,0.25,0.5"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeraser",
        description="Exact tables, event simulation and decoding for "
        "delayed-choice eraser coincidence experiments.",
    )
    parser.add_argument("--version", action="version", version=f"qeraser {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("patterns", help="write exact conditional pattern tables")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("simulate", help="sample triples and write event/triple logs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window-ns", type=int, default=DEFAULT_WINDOW_NS)
    p.add_argument("--background-rate", type=float, default=0.0,
                   help="dark counts per ns overlaid on the stream")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="randomized exact-identity checks")
    p.add_argument("--config")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-nonunitary", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decode", help="per-block decoding of a triples file")
    p.add_argument("--config", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--mode", choices=("omniscient", "alisha"), default="omniscient")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="grid over arm settings with residual columns")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", default=_DEFAULT_THETAS)
    p.add_argument("--chi", default=_DEFAULT_CHIS)
    p.add_argument("--tap", default=_DEFAULT_TAPS)
    p.add_argument("--splitter", default="1,0")
    p.add_argument("--theta-alisha", default="")
    p.add_argument("--chi-alisha", default="")
    p.add_argument("--tap-alisha", default="")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except ValueError as exc:
        print(f"qeraser: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
