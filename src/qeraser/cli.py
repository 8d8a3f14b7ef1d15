"""Command-line front end: patterns, simulate, verify, decode and sweep.

README.md documents each command, the config schema, the file formats, the
manifest and the exit codes (0 success, 1 verification failure, 2 bad
usage, config or input).
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from dataclasses import replace
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import __version__
from .events import (
    _EVENT_LOG,
    _MAX_INT,
    _TRIPLES,
    DEFAULT_WINDOW_NS,
    SimStreamHeader,
    _write_text,
    event_chunks,
    triple_passes,
    triple_spacing_ns,
    write_and_match,
    write_spilled_triples,
)
from .experiment import (
    MODE_DOUBLE,
    config_digest,
    default_geometry,
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
    arm_tables,
    coefficients,
    screen_basis,
    screen_marginal,
    table,
)

# imported last: loading the numpy-only layers before analysis's scipy.stats
# import leaves a command's peak RSS about 1 MB lower
from .analysis import (
    LowSampleWarning,
    _fmt,
    _write_table,
    decode_alisha_only,
    decode_omniscient,
    fringe_shape,
    unit_variance_fit,
    write_decode_csv,
)

EXACT_TOL = 1e-12

# the files each command writes into --out besides MANIFEST, in writing order;
# {mode} is decode's --mode, and patterns writes the first two names for a
# double_delayed_choice config and the third otherwise
OUTPUTS = {
    "patterns": ("patterns.csv", "marginal.csv", "single_patterns.csv"),
    "simulate": ("events.csv", "triples.csv"),
    "decode": ("decode_{mode}.csv",),
    "sweep": ("sweep.csv",),
}
MANIFEST = "manifest.json"


def _outputs(args) -> list[str]:
    """The OUTPUTS names of args.command, filled in from args."""
    return [name.format(**vars(args)) for name in OUTPUTS[args.command]]


def _publish(args, details: dict, writers) -> list[Path]:
    """Write each of _outputs(args) into --out with its writer, then MANIFEST.

    writers runs parallel to the names; a name whose writer is None is not
    written.  A writer takes the file's path and returns the sha256 of the
    bytes it wrote; the manifest lists those digests with the command, the
    config and details.  Input files appear by basename only; the digest
    fields carry identity, so identical runs stay byte-identical wherever
    they were produced.

    If a writer fails, the files this call wrote go, then the directories
    it made, deepest first, and the error is raised again.
    """
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    files = [(n, w) for n, w in zip(_outputs(args), writers, strict=True) if w is not None]
    digests = {}
    try:
        for name, write in files:
            digests[name] = write(out / name)
        manifest = {
            "tool": "qeraser",
            "tool_version": __version__,
            "command": args.command,
            "config": Path(args.config).name,
            **details,
            "outputs": digests,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write_text(out / MANIFEST, [], [text.encode("utf-8")])  # a failed write leaves no file
    except BaseException:
        for name in digests:
            (out / name).unlink()
        for directory in made:
            directory.rmdir()
        raise
    return [out / name for name in digests]


def _nearest_existing(path: Path) -> Path:
    """path, or its nearest parent that exists."""
    return next(p for p in (path, *path.parents) if p.exists())


def _load_config_or_fail(path: str):
    try:
        return load_config(path)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:
        raise ValueError(f"invalid config {path}: {exc}")


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


def cmd_patterns(args) -> int:
    config = _load_config_or_fail(args.config)
    geom = config.geometry
    digest = config_digest(config)

    xs = geom.bin_centers
    header = {"config_digest": digest, "mode": config.mode}
    writers = [None] * 3  # one per OUTPUTS name; every table is built before the first write
    if config.mode == MODE_DOUBLE:
        dist = distribution_for(config)
        rows = [
            f"{BABU_LABELS[j]},{ALISHA_LABELS[k]},{_fmt(x)},{_fmt(p)}"
            for j in range(4)
            for k in range(4)
            for x, p in zip(xs, dist.pattern(j, k))
        ]
        columns = "babu,alisha,bin_center_m,probability"
        writers[0] = partial(_write_table, header_pairs=header, columns=columns, rows=rows)

        # written from the screen-side closed form and keyed to the screen-side
        # digest, so babu's settings cannot move a byte of this file; agreement
        # with the joint-table marginal is checked by `verify` and the sweep
        marg = screen_marginal(geom, config.envelope, config.alisha)
        rows = [
            f"{ALISHA_LABELS[k]},{_fmt(x)},{_fmt(p)}"
            for k in range(4)
            for x, p in zip(xs, marg[:, k])
        ]
        marginal_header = {"marginal_digest": marginal_digest(config)}
        columns = "alisha,bin_center_m,probability"
        writers[1] = partial(_write_table, header_pairs=marginal_header, columns=columns, rows=rows)
    else:
        rows = [
            f"{BABU_LABELS[j]},{_fmt(x)},{_fmt(p)}"
            for j in ERASING_OUTCOMES
            for x, p in zip(xs, single_choice_pattern(j, config))
        ]
        columns = "babu,bin_center_m,probability"
        writers[2] = partial(_write_table, header_pairs=header, columns=columns, rows=rows)

    for path in _publish(args, {"config_digest": digest}, writers):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = _load_config_or_fail(args.config)
    if config.schedule is None:
        raise ValueError("config has no schedule; nothing to simulate")
    seed = int(args.seed)
    window = int(args.window_ns)
    schedule = config.schedule
    spacing = triple_spacing_ns(config.pair_rate_scale, schedule.n_triples)
    if 2 * window > spacing:
        # wider windows overlap, and one D0 could claim a neighbouring triple's idlers
        raise ValueError(f"--window-ns {window} is more than half the triple spacing {spacing} ns")

    # events.csv's n_rows declares the 3 n_triples records and the dark counts, which
    # fall on a run shorter than n_triples spacings
    rate = float(args.background_rate)
    expected = rate * schedule.n_triples * spacing
    if 3 * schedule.n_triples + expected > _MAX_INT:
        raise ValueError(
            f"--background-rate {rate!r} expects {expected:.3g} dark counts, "
            f"more event records than the header's n_rows can declare ({_MAX_INT})"
        )
    # the sampler's, the matcher's and the merge's own refusals, naming the flag, before
    # any work and before the header's; a nan or negative rate passes the row limit above
    if seed < 0:
        raise ValueError(f"--seed {seed}: the seed must be a non-negative integer")
    if window < 0:
        raise ValueError(f"--window-ns {window}: the window must be non-negative")
    if not rate >= 0.0:
        raise ValueError(
            f"--background-rate {rate!r}: "
            "the background rate must be finite and non-negative"
        )
    # built before any work: it refuses an integer the stream reader would refuse
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
    # the dark counts are drawn a window at a time, so only the disk bounds a run: refuse
    # one whose events.csv, triples.csv and spill could not fit where --out will be, before
    # any draw; simulate writes each triple's row twice, to its spill and to triples.csv
    rows = 3 * schedule.n_triples + expected
    need = rows * _EVENT_LOG.min_row_bytes + 2 * schedule.n_triples * _TRIPLES.min_row_bytes
    where = _nearest_existing(Path(args.out))
    free = shutil.disk_usage(where).free
    if need > free:
        raise ValueError(
            f"the run expects {rows:.3g} event records at --background-rate {rate!r} "
            f"and {schedule.n_triples} triples, at least {need:.3g} bytes of events.csv, "
            f"triples.csv and their spill, but {where} has {free} bytes free"
        )
    # the dark-count total is drawn here, before --out is touched, after one pass over
    # the delays that keeps only the last; the triples, delays and records are then
    # sampled, drawn, emitted, merged, matched and written to events.csv one chunk at a
    # time, and the matched triples' rows to a spill, an unlinked file where the free
    # bytes were counted, which triples.csv is copied from
    records, chunks = event_chunks(config, seed, rate)
    matched = which_path = orphans = None
    details = {
        "config_digest": header.config_digest,
        "seed": seed,
        "window_ns": window,
        "background_rate": rate,
    }
    with tempfile.TemporaryFile(dir=where) as spill:

        def write_events(path):
            nonlocal matched, which_path, orphans
            digest, matched, which_path, orphans = write_and_match(
                path, header, records, chunks, spill
            )
            return digest

        def write_triples(path):
            return write_spilled_triples(path, spill, header, matched)

        _publish(args, details, [write_events, write_triples])

    print(f"sampled {schedule.n_triples} triples over {len(schedule.bits)} blocks")
    print(f"emitted {records} event records (spacing {spacing} ns)")
    print(f"matched {matched} triples in a +-{window} ns window")
    print(f"orphans {orphans.total}")
    print(f"which-path participation fraction {which_path / matched if matched else 0.0:.6f}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# the largest pass of the property suite: (bin, trial) cells for the checks
# that build per-bin tables (at least one trial), trials for the per-arm ones
_PASS_CELLS = 8_192
_PASS_TRIALS = 1_024


def _pair_residuals(babu_recombiners, alisha_recombiners) -> np.ndarray:
    """(..., 2) |fringe weight of (D1, k) + (D2, k)| for alisha's k = D1', D2'.

    Zero when babu's erased terms cancel.  As in interference_coefficient, the
    weights are twice the cross row of C of the recombiner stacks, which broadcast.
    """
    weights = 2.0 * coefficients(babu_recombiners, alisha_recombiners)[2]  # (..., j, k)
    return np.abs(weights[..., 0, :] + weights[..., 1, :])


def _gram_residuals(rows: np.ndarray) -> np.ndarray:
    """|G - I| of the Gram matrix G of each stacked pair of rows (..., 2, n): C summed over n."""
    norm_a, norm_b, cross_re, cross_im = coefficients(rows).sum(axis=-1)
    return np.stack([np.abs(norm_a - 1.0), np.abs(norm_b - 1.0), np.sqrt(cross_re**2 + cross_im**2)])


def run_property_suite(
    trials: int, seed: int, geom: SlitScreenGeometry, envelope
) -> list[tuple[str, float]]:
    """Randomized exact-identity checks: (name, worst residual) per property.

    Each check takes a pass size n, draws n trials' settings in bulk from the
    one generator and returns their residuals as an array.  The checks run in
    table order, each in passes of at most its bound, and each one's worst is
    the largest residual of any pass, NaN if any residual is NaN.
    """
    rng = np.random.default_rng(seed)
    basis = screen_basis(geom, envelope)
    profile = envelope.profile(geom.bin_centers)
    bare = np.abs(profile) / float(np.sum(profile))

    def angles(*shape):
        return rng.uniform(0.0, 2.0 * math.pi, (2, *shape))

    def splitters(n):
        return arm_tables(0.0, True, *angles(n))[1]

    def arms(*shape):
        # draws tap, splitter, theta and chi in that order; verify's output depends on it
        tap = rng.uniform(0.0, 1.0, shape)
        present = rng.integers(0, 2, shape).astype(bool)
        return tap, arm_tables(tap, present, *angles(*shape))[0]

    def unitarity(n):
        # both rows of an angle-parameterised splitter are unit and orthogonal
        return _gram_residuals(splitters(n))

    def arm_isometry(n):
        # the arm's two path vectors stay orthonormal
        return _gram_residuals(arms(n)[1])

    def normalization(n):
        # E summed over bins, then contracted with babu's and alisha's C
        coeffs = coefficients(arms(n)[1], arms(n)[1])
        return np.abs(table(basis.sum(axis=0)[None], coeffs)[0].sum(axis=(-2, -1)) - 1.0)

    def pair_cancellation(n):
        return _pair_residuals(splitters(n), splitters(n))

    def single_cancellation(n):
        # one-idler analogue: D1 + D2 patterns sum to the bare envelope
        tap, amplitudes = arms(n)
        probs = table(basis, coefficients(amplitudes))  # (bin, trial, outcome)
        return np.abs(probs[..., D1] + probs[..., D2] - bare[:, None] * (1.0 - tap))

    def marginal_invariance(n):
        # the screen-side marginal never moves when babu's arm changes: two
        # babu arms per alisha arm, babu's outcome summed out of C before the table
        alisha = arms(n)[1]
        reference = screen_marginal(geom, envelope, alisha)  # (bin, trial, k)
        summed = coefficients(arms(2, n)[1], alisha).sum(axis=-2)  # (4, babu arm, trial, k)
        return np.abs(table(basis, summed) - reference[:, None])

    def worst(n, size, check):
        # np.maximum carries a NaN residual through, where max(0.0, nan) drops it
        passes = (check(min(size, n - start)).max() for start in range(0, n, size))
        return float(reduce(np.maximum, passes, 0.0))

    few = max(trials // 10, 50)
    per_bin = max(_PASS_CELLS // geom.n_bins, 1)
    checks = (
        ("unitarity", trials, _PASS_TRIALS, unitarity),
        ("arm-isometry", trials, _PASS_TRIALS, arm_isometry),
        ("normalization", few, per_bin, normalization),
        ("pair-cancellation", trials, _PASS_TRIALS, pair_cancellation),
        ("single-cancellation", few, per_bin, single_cancellation),
        ("marginal-invariance", few, per_bin, marginal_invariance),
    )
    return [(name, worst(n, size, check)) for name, n, size, check in checks]


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: the seed must be a non-negative integer")
    if args.config:
        config = _load_config_or_fail(args.config)
        geom, envelope = config.geometry, config.envelope
    else:
        geom, envelope = replace(default_geometry(), n_bins=64), UniformEnvelope()
    all_passed = True
    for name, worst in run_property_suite(int(args.trials), int(args.seed), geom, envelope):
        passed = worst <= EXACT_TOL
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name} (max residual {worst:.3e}, tol {EXACT_TOL:.0e})")
        all_passed &= passed
    print("all properties hold" if all_passed else "PROPERTY VIOLATION")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def cmd_decode(args) -> int:
    config = _load_config_or_fail(args.config)
    if config.schedule is None:
        raise ValueError("config has no schedule to decode against")
    digest = config_digest(config)
    triples = triple_passes(args.triples)

    def passes():
        # the file's faults, then its config digest, before anything the decoder refuses
        try:
            yield from triples
        except FileNotFoundError:
            raise ValueError(f"triples file not found: {args.triples}")
        except ValueError as exc:
            raise ValueError(f"bad triples file {args.triples}: {exc}")
        if triples.header.config_digest != digest:
            raise ValueError(
                "triples file was produced under a different config "
                f"(file digest {triples.header.config_digest[:12]}..., "
                f"config digest {digest[:12]}...)"
            )

    decoder = decode_omniscient if args.mode == "omniscient" else decode_alisha_only
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LowSampleWarning)
        report = decoder(passes(), config.schedule, config.geometry)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    table_header = {"config_digest": digest, "seed": triples.header.seed}
    details = {"config_digest": digest, "triples": Path(args.triples).name, "mode": args.mode}
    _publish(args, details, [lambda path: write_decode_csv(path, report, table_header)])
    print(f"decoder={args.mode}")
    print(f"decoded_bits={''.join(str(b) for b in report.decoded_bits)}")
    print(f"true_bits={''.join(str(b) for b in report.true_bits)}")
    print(f"bit_error_rate={report.bit_error_rate:.4f}")
    print(f"confidence={report.confidence:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_values(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}")
    if not values:
        raise ValueError(f"empty {what} list")
    return values


def _parse_splitters(text: str) -> list[bool]:
    values = [v for v in text.split(",") if v != ""]
    for v in values:
        if v not in ("0", "1"):
            raise ValueError(f"--splitter values must be 0 or 1, got {v!r}")
    if not values:
        raise ValueError("empty splitter list")
    return [v == "1" for v in values]


_SWEEP_COLUMNS = (
    "theta,chi,tap,splitter,theta_alisha,chi_alisha,tap_alisha,"
    "vis_d1_d1p,vis_d1_d2p,vis_d2_d1p,vis_d2_d2p,"
    "cancel_residual_d1p,cancel_residual_d2p,"
    "marginal_visibility,marginal_residual"
)


def _sweep_rows(geom: SlitScreenGeometry, envelope, babu_settings, alisha_settings) -> list[str]:
    """sweep.csv rows over alisha's settings (outer) and babu's (inner).

    Each slice is table(screen_basis, C), fitted at unit variance, so its
    (c0, c_cos, c_sin) is table(the basis's unit-variance fit, C): no table
    is built and no row is fitted.  An empty erasing slice has visibility
    NaN; the marginal's visibility is the largest over its columns that hold
    probability, and each point's marginal is compared with the first one of
    its alisha setting, in passes of at most _PASS_CELLS (bin, setting) cells.
    """
    b_theta, b_chi, b_tap, b_splitter = np.array(babu_settings, dtype=float).T
    babu_amplitudes, babu_recombiners = arm_tables(b_tap, b_splitter == 1.0, b_theta, b_chi)
    a_theta, a_chi, a_tap = np.array(alisha_settings, dtype=float).T
    alisha_amplitudes, alisha_recombiners = arm_tables(a_tap, True, a_theta, a_chi)
    basis = screen_basis(geom, envelope)
    totals, fit = basis.sum(axis=0)[None], unit_variance_fit(basis.T, geom)
    per_pass = max(_PASS_CELLS // geom.n_bins, 1)
    rows = []
    for a, a_setting in enumerate(alisha_settings):
        coeffs = coefficients(babu_amplitudes, alisha_amplitudes[a])  # (4, babu setting, j, k)
        marginals = coeffs.sum(axis=2)
        # per babu setting: the erasing slices (j outer, k inner), then the marginal's columns
        slices = np.concatenate([coeffs[..., :2, :2].reshape(4, -1, 4), marginals], axis=2)
        lit = table(totals, slices)[0] > 0.0
        fitted = np.moveaxis(table(fit, slices), 0, -1)  # (babu setting, 8, 3)
        vis = fringe_shape(fitted)[1].reshape(lit.shape)
        erasing_vis = np.where(lit[:, :4], vis[:, :4], np.nan).tolist()
        marginal_vis = np.where(lit[:, 4:], vis[:, 4:], 0.0).max(axis=1).tolist()
        reference, starts = table(basis, marginals[:, :1]), range(0, len(babu_settings), per_pass)
        passes = (table(basis, marginals[:, s : s + per_pass]) - reference for s in starts)
        residuals = np.concatenate([np.abs(p).max(axis=0).max(axis=-1) for p in passes]).tolist()
        cancel = _pair_residuals(babu_recombiners, alisha_recombiners[a]).tolist()
        for b, (theta, chi, tap, splitter) in enumerate(babu_settings):
            values = (*a_setting, *erasing_vis[b], *cancel[b], marginal_vis[b], residuals[b])
            settings = [_fmt(theta), _fmt(chi), _fmt(tap), str(int(splitter))]
            rows.append(",".join(settings + [_fmt(v) for v in values]))
    return rows


def cmd_sweep(args) -> int:
    config = _load_config_or_fail(args.config)
    if config.mode != MODE_DOUBLE:
        raise ValueError("sweep needs a double_delayed_choice config")

    thetas = _parse_values(args.theta, "theta")
    chis = _parse_values(args.chi, "chi")
    taps = _parse_values(args.tap, "tap")
    splitters = _parse_splitters(args.splitter)
    a_thetas = _parse_values(args.theta_alisha, "theta-alisha") if args.theta_alisha else [config.alisha.theta]
    a_chis = _parse_values(args.chi_alisha, "chi-alisha") if args.chi_alisha else [config.alisha.chi]
    a_taps = _parse_values(args.tap_alisha, "tap-alisha") if args.tap_alisha else [config.alisha.tap_probability]

    # every axis value through ArmOptics' own checks, so a bad one exits 2 before any work
    axes = (taps + a_taps, thetas + a_thetas, chis + a_chis)
    for tap, theta, chi in itertools.zip_longest(*axes, fillvalue=0.0):
        ArmOptics(tap, True, theta, chi)

    babu_settings = list(itertools.product(thetas, chis, taps, splitters))
    alisha_settings = list(itertools.product(a_thetas, a_chis, a_taps))
    rows = _sweep_rows(config.geometry, config.envelope, babu_settings, alisha_settings)

    digest = config_digest(config)
    table_header = {"config_digest": digest, "n_rows": len(rows)}
    writers = [lambda path: _write_table(path, table_header, _SWEEP_COLUMNS, rows)]
    [path] = _publish(args, {"config_digest": digest}, writers)
    print(f"wrote {path} ({len(rows)} grid points)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_DEFAULT_THETAS = "0.0,0.39269908169872414,0.7853981633974483,1.1780972450961724,1.5707963267948966"
_DEFAULT_CHIS = "0.0,0.7853981633974483,1.5707963267948966,2.356194490192345"
_DEFAULT_TAPS = "0.0,0.25,0.5"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ValueErrors, which main refuses like any other."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # '-' and a digit, or '-.' and a digit, start a value, as in --background-rate -1e-3
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # add_subparsers makes each command's parser a _Parser too
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
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "out"):
            # refuse an --out that is, or lies under, an existing non-directory,
            # or that holds a directory under a name the command writes, before
            # any work, with the error mkdir or open would raise at the end
            out = Path(args.out)
            found = _nearest_existing(out)
            if not found.is_dir():
                code = errno.EEXIST if found == out else errno.ENOTDIR
                raise OSError(code, os.strerror(code), str(out))
            for path in (out / name for name in (*_outputs(args), MANIFEST)):
                if path.is_dir():
                    raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        return args.func(args)
    except ValueError as exc:
        print(f"qeraser: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"qeraser: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a path that exists but is the wrong kind: a directory given as a
        # file, an existing file given as --out, an unreadable file
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"qeraser: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
