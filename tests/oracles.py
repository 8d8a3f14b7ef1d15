"""Reference implementations the library's fast paths are tested against.

The scalar amplitude routes (``signal_amplitude``, ``joint_amplitude``) build
one table cell at a time from closed forms; ``joint_distribution`` must
agree with them cell by cell.  ``signal_vectors`` and
``outcome_probabilities`` are the complex per-bin amplitude product the
tables were built with before ``E @ C``; the real form must equal it to
within a fixed bound per entry.  ``sweep_rows`` is the sweep that built a
joint table per grid point and fitted its slices with ``fit_fringes``; the
coefficient-space sweep is checked against it.  ``arm_amplitudes`` and
``interference_coefficient_factors`` are the per-path routes that
``ArmOptics.amplitudes`` and ``optics.interference_coefficient`` replaced:
they write the recombiner convention out from (alpha, beta) as Python
complex numbers, and the library's tables must equal them exactly.

The rest are the line-by-line readers, the f-string row formatters and the
full greedy matcher loop that ``qeraser.events`` used before its numpy
passes, the stream builders that concatenated per-block draws
(``sample_triples_concat``) and ordered whole streams with ``lexsort``
(``emit_events_lexsort``, ``inject_background_lexsort``),
``simulate_whole``, the whole-run pipeline that ``simulate`` ran before it
built, matched and wrote the stream one chunk at a time, the per-block
decode loop of ``qeraser.analysis``, and ``fit_fringe_one``, the
one-histogram LAPACK fit that ``analysis.fit_fringes`` replaced; the
stacked fit rounds differently and is held to it within a tolerance.
``table_floats`` and ``solve_normal_floats`` write ``optics.table`` and
``analysis.solve_normal`` out in Python floats, step by step in the same
order, and the library must equal them bit for bit.
``property_suite_loop`` is the property suite that drew and checked one
trial at a time through ``ArmOptics`` and the per-trial tables, and
``pair_residual`` its scalar cancellation residual; the stacked suite and
the sweep's cancellation columns are checked against them.
They are kept verbatim as differential oracles: the fast paths must return
the same arrays, headers, floats, orphan reports and file bytes.  The
readers here are looser than the library's grammar (Python's ``int()``
accepts ``+5``, ``1_0`` and padded fields, and ``#`` lines anywhere), so they
agree with the library on every file the writers produce; like the grammar,
they refuse a ``-`` sign, since every stream integer is unsigned.

``write_triples`` and ``write_event_log`` are no oracles: tests that need a
triples file or an event log write a whole batch or stream through them,
and so through ``simulate``'s own spill path and the library's one
event-log writer, which takes pieces.
"""

from __future__ import annotations

import cmath
import itertools
import math
import tempfile
import warnings
from functools import lru_cache, reduce

import numpy as np

from qeraser.analysis import (
    FringeFit,
    LowSampleWarning,
    _fmt,
    build_histogram,
    classify_pattern,
    fit_fringe,
    fit_fringes,
)
from qeraser.events import (
    _DOMAIN_BACKGROUND,
    _DOMAIN_CONDITIONAL,
    _DOMAIN_DELAYS,
    _DOMAIN_MARGINAL,
    _TRIPLES,
    CODE_D0,
    DETECTOR_LABELS,
    EventStream,
    OrphanReport,
    SimStreamHeader,
    TripleBatch,
    _row_bytes,
    triple_spacing_ns,
    write_spilled_triples,
)
from qeraser.events import write_event_log as write_event_log_pieces
from qeraser.experiment import MODE_DOUBLE, ExperimentConfig, distribution_for, nyquist_min_samples
from qeraser.optics import (
    D1,
    D2,
    ALISHA_LABELS,
    BABU_LABELS,
    ERASING_OUTCOMES,
    ArmOptics,
    SlitScreenGeometry,
    arm_tables,
    interference_coefficient,
    joint_distribution,
    screen_marginal,
    single_distribution,
    unitary_from_angle,
)


PATH_A = "A"
PATH_B = "B"
PATHS = (PATH_A, PATH_B)


def splitter_entries(theta: float, chi: float) -> tuple[complex, complex]:
    """(alpha, beta) = (cos(theta), sin(theta) e^{i chi}) as Python complex numbers."""
    return complex(math.cos(theta)), math.sin(theta) * cmath.exp(1j * chi)


def arm_entries(optics: ArmOptics) -> tuple[complex, complex]:
    """(alpha, beta) of an arm's recombiner; a removed splitter is the identity."""
    if optics.splitter_present:
        return splitter_entries(optics.theta, optics.chi)
    return 1.0 + 0j, 0.0 + 0j


def arm_amplitudes(path: str, optics: ArmOptics) -> np.ndarray:
    """Amplitudes [D1, D2, D3, D4] an arm attaches to one source path.

    sqrt(p) goes to the path-consistent monitor, the remaining sqrt(1-p)
    through the recombiner: path A maps to alpha*D1 + beta*D2, path B to
    -conj(beta)*D1 + conj(alpha)*D2.
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}")
    alpha, beta = arm_entries(optics)
    tap = math.sqrt(optics.tap_probability)
    keep = math.sqrt(1.0 - optics.tap_probability)
    if path == PATH_A:
        return np.array([keep * alpha, keep * beta, tap, 0.0], dtype=complex)
    return np.array(
        [-keep * beta.conjugate(), keep * alpha.conjugate(), 0.0, tap],
        dtype=complex,
    )


def arm_recombiner(optics: ArmOptics) -> np.ndarray:
    """The arm's 2x2 recombiner: arm_tables' for its one setting."""
    return arm_tables(optics.tap_probability, optics.splitter_present, optics.theta, optics.chi)[1]


def erasing_path_factors(j: int, alpha: complex, beta: complex) -> tuple[complex, complex]:
    """Recombiner factors (path A, path B) attached to an erasing outcome."""
    if j == D1:
        return alpha, -beta.conjugate()
    if j == D2:
        return beta, alpha.conjugate()
    raise ValueError(
        f"outcome {j} is a which-path monitor; only D1/D2 carry a fringe term"
    )


def interference_coefficient_factors(j: int, k: int, babu: tuple, alisha: tuple) -> float:
    """2 Re(c_A conj(c_B)) for the (j, k) slice, from (alpha, beta) pairs."""
    bca, bcb = erasing_path_factors(j, *babu)
    aca, acb = erasing_path_factors(k, *alisha)
    ca = bca * aca
    cb = bcb * acb
    return float(2.0 * (ca * cb.conjugate()).real)


def signal_amplitude(x: float, path: str, geom: SlitScreenGeometry, envelope) -> complex:
    """Screen amplitude sqrt(E(x)/Z) e^{+- i 2 pi x d/(lambda f)} for path A/B.

    Z sums the envelope over bin centres, so |amplitude|^2 evaluated on the
    bin grid is a normalised distribution per path.
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}")
    x = float(x)
    if abs(x) > geom.screen_width / 2.0:
        raise ValueError(f"x = {x!r} lies outside the screen")
    z = float(np.sum(envelope.profile(geom.bin_centers)))
    mag = math.sqrt(float(envelope.profile(x)) / z)
    ph = float(geom.phase(x))
    if path == PATH_B:
        ph = -ph
    return mag * cmath.exp(1j * ph)


def joint_amplitude(
    bin_index: int,
    j: int,
    k: int | None,
    geom: SlitScreenGeometry,
    envelope,
    babu: ArmOptics,
    alisha: ArmOptics | None = None,
) -> complex:
    """Amplitude for one (screen bin, babu outcome[, alisha outcome]) cell.

    The two source paths enter with equal weight 1/sqrt(2).  With k=None
    only babu's arm participates (the one-idler experiment).
    """
    if not 0 <= int(bin_index) < geom.n_bins:
        raise ValueError("bin index out of range")
    if not 0 <= int(j) < 4:
        raise ValueError("babu outcome out of range")
    x = geom.bin_centers[bin_index]
    psi_a = signal_amplitude(x, PATH_A, geom, envelope)
    psi_b = signal_amplitude(x, PATH_B, geom, envelope)
    amp_a = psi_a * arm_amplitudes(PATH_A, babu)[j]
    amp_b = psi_b * arm_amplitudes(PATH_B, babu)[j]
    if k is not None:
        if alisha is None:
            raise ValueError("alisha optics required when k is given")
        if not 0 <= int(k) < 4:
            raise ValueError("alisha outcome out of range")
        amp_a *= arm_amplitudes(PATH_A, alisha)[k]
        amp_b *= arm_amplitudes(PATH_B, alisha)[k]
    return complex(math.sqrt(0.5) * (amp_a + amp_b))


@lru_cache(maxsize=32)
def signal_vectors(geom: SlitScreenGeometry, envelope) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm per-bin amplitude vectors (psi_A, psi_B) at bin centres.

    Cached per (geometry, envelope), both frozen dataclasses, so a sweep or
    the property suite builds them once; the arrays are read-only.
    """
    xs = geom.bin_centers
    env = np.asarray(envelope.profile(xs), dtype=float)
    total = env.sum()
    if total <= 0.0:
        raise ValueError("envelope vanishes on every bin")
    mag = np.sqrt(env / total)
    rot = np.exp(1j * geom.phase(xs))
    vectors = mag * rot, mag * np.conjugate(rot)
    for v in vectors:
        v.flags.writeable = False
    return vectors


def outcome_probabilities(geom: SlitScreenGeometry, envelope, arms) -> np.ndarray:
    """|amplitude|^2 over (screen bin, outcome of each arm in turn).

    The two source paths enter with equal weight 1/sqrt(2); per path the
    amplitude is psi * arm_1 * arm_2 ..., multiplied in that order.
    """
    amp_a, amp_b = signal_vectors(geom, envelope)
    for arm in arms:
        amp_a = amp_a[..., None] * arm.amplitudes[0]
        amp_b = amp_b[..., None] * arm.amplitudes[1]
    amp = math.sqrt(0.5) * (amp_a + amp_b)
    return amp.real**2 + amp.imag**2


def pair_residual(k: int, babu_recombiner, alisha_recombiner) -> float:
    """|fringe weight of (D1, k) + (D2, k)|: zero when babu's erased terms cancel."""
    return abs(
        interference_coefficient(D1, k, babu_recombiner, alisha_recombiner)
        + interference_coefficient(D2, k, babu_recombiner, alisha_recombiner)
    )


def property_suite_loop(
    trials: int, seed: int, geom: SlitScreenGeometry, envelope
) -> list[tuple[str, float]]:
    """Randomized exact-identity checks: (name, worst residual) per property.

    Each check draws its own settings from one generator and returns one
    trial's residual; the checks run in table order, and each one's worst is
    folded by max from 0.0.
    """
    rng = np.random.default_rng(seed)

    def rand_unitary():
        return unitary_from_angle(
            rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        )

    def rand_arm():
        # draws tap, splitter, theta, chi in that order; verify's output depends on it
        return ArmOptics(
            rng.uniform(0.0, 1.0),
            bool(rng.integers(0, 2)),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
        )

    def unitarity():
        # both rows of an angle-parameterised splitter are unit and orthogonal
        (a, b), (c, d) = rand_unitary().tolist()
        return max(
            abs(abs(a) ** 2 + abs(b) ** 2 - 1.0),
            abs(abs(c) ** 2 + abs(d) ** 2 - 1.0),
            abs(a * c.conjugate() + b * d.conjugate()),
        )

    def arm_isometry():
        # the arm's two path vectors stay orthonormal
        va, vb = rand_arm().amplitudes
        gram = np.array(
            [
                [np.vdot(va, va), np.vdot(va, vb)],
                [np.vdot(vb, va), np.vdot(vb, vb)],
            ]
        )
        return float(np.abs(gram - np.eye(2)).max())

    def normalization():
        return abs(joint_distribution(geom, envelope, rand_arm(), rand_arm()).total() - 1.0)

    def pair_cancellation():
        ub, ua = rand_unitary(), rand_unitary()
        return max(0.0, *(pair_residual(k, ub, ua) for k in ERASING_OUTCOMES))

    def single_cancellation():
        # one-idler analogue: D1 + D2 patterns sum to the bare envelope
        arm = rand_arm()
        table = single_distribution(geom, envelope, arm)
        profile = envelope.profile(geom.bin_centers)
        flat = (1.0 - arm.tap_probability) * np.abs(profile) / float(np.sum(profile))
        return float(np.abs(table[:, D1] + table[:, D2] - flat).max())

    def marginal_invariance():
        # the screen-side marginal never moves when babu's arm changes
        alisha = rand_arm()
        reference = screen_marginal(geom, envelope, alisha)
        tables = [joint_distribution(geom, envelope, rand_arm(), alisha) for _ in range(2)]
        return max(0.0, *(float(np.abs(t.alisha_marginal() - reference).max()) for t in tables))

    few = max(trials // 10, 50)
    checks = (
        ("unitarity", trials, unitarity),
        ("arm-isometry", trials, arm_isometry),
        ("normalization", few, normalization),
        ("pair-cancellation", trials, pair_cancellation),
        ("single-cancellation", few, single_cancellation),
        ("marginal-invariance", few, marginal_invariance),
    )
    return [(name, reduce(max, (check() for _ in range(n)), 0.0)) for name, n, check in checks]


def sweep_rows(points, geom: SlitScreenGeometry, envelope, references: dict) -> list[str]:
    """sweep.csv rows for a run of grid points, every fringe fitted in one call.

    An empty erasing slice is not fitted (visibility NaN), and the alisha
    marginal's columns are fitted only where they hold probability.
    references keeps the first marginal seen per alisha setting.
    """
    tables, histograms = [], []
    for a_theta, a_chi, a_tap, theta, chi, tap, splitter in points:
        alisha = ArmOptics(a_tap, True, a_theta, a_chi)
        babu = ArmOptics(tap, splitter, theta, chi)
        dist = joint_distribution(geom, envelope, babu, alisha)
        slices = [dist.pattern(j, k) for j in ERASING_OUTCOMES for k in ERASING_OUTCOMES]
        lit = [pattern.sum() > 0.0 for pattern in slices]
        marg = dist.alisha_marginal()
        columns = [col for col in marg.T if col.sum() > 0.0]
        histograms += list(itertools.compress(slices, lit)) + columns
        tables.append((babu, alisha, lit, marg, len(columns)))

    fits = iter(fit_fringes(histograms, geom))
    rows = []
    for point, (babu, alisha, lit, marg, n_columns) in zip(points, tables):
        a_theta, a_chi, a_tap, theta, chi, tap, splitter = point
        vis = [next(fits).visibility if fitted else float("nan") for fitted in lit]
        marg_vis = max([0.0] + [next(fits).visibility for _ in range(n_columns)])
        ub, ua = arm_recombiner(babu), arm_recombiner(alisha)
        cancel = [pair_residual(k, ub, ua) for k in ERASING_OUTCOMES]
        reference = references.setdefault((a_theta, a_chi, a_tap), marg)
        marg_residual = float(np.abs(marg - reference).max())
        rows.append(
            ",".join(
                [_fmt(theta), _fmt(chi), _fmt(tap), str(int(splitter))]
                + [_fmt(v) for v in (a_theta, a_chi, a_tap, *vis, *cancel, marg_vis, marg_residual)]
            )
        )
    return rows


def sample_triples_concat(config: ExperimentConfig, seed: int = 0) -> TripleBatch:
    """Draw block_size triples per schedule bit from the exact joint table.

    Deterministic for a given (config, seed): block b consumes the spawned
    streams (0, b) and (1, b) only, so blocks could be generated in any order
    with identical output.
    """
    if config.mode != MODE_DOUBLE:
        raise ValueError("triple sampling needs a double_delayed_choice config")
    schedule = config.schedule
    if schedule is None:
        raise ValueError("no switch schedule given")
    if int(seed) < 0:
        raise ValueError("seed must be a non-negative integer")
    seed = int(seed)

    marg_flat = screen_marginal(config.geometry, config.envelope, config.alisha).ravel()
    marg_cum = np.cumsum(marg_flat)
    marg_cum /= marg_cum[-1]

    cond_cum = {}
    for bit in sorted(set(schedule.bits)):
        probs = distribution_for(config, splitter_present=bool(bit)).probs
        cond = probs.transpose(0, 2, 1).reshape(-1, 4).copy()  # row = (bin, k)
        rowsum = cond.sum(axis=1, keepdims=True)
        np.divide(cond, rowsum, out=cond, where=rowsum > 0)
        cond[rowsum[:, 0] == 0] = 0.25  # rows with zero marginal are never drawn
        cum = np.cumsum(cond, axis=1)
        cum[:, -1] = 1.0
        cond_cum[int(bit)] = cum

    n = schedule.block_size
    xs, js, ks, blocks = [], [], [], []
    for b, bit in enumerate(schedule.bits):
        rng_m = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_DOMAIN_MARGINAL, b))
        )
        rng_c = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_DOMAIN_CONDITIONAL, b))
        )
        flat = np.searchsorted(marg_cum, rng_m.random(n), side="right")
        np.clip(flat, 0, marg_flat.size - 1, out=flat)
        rows = cond_cum[int(bit)][flat]
        j = (rows <= rng_c.random(n)[:, None]).sum(axis=1)
        np.clip(j, 0, 3, out=j)
        xs.append(flat // 4)
        ks.append(flat % 4)
        js.append(j)
        blocks.append(np.full(n, b, dtype=np.int64))

    x_bin = np.concatenate(xs)
    return TripleBatch(
        triple_id=np.arange(len(x_bin), dtype=np.int64),
        x_bin=x_bin,
        babu=np.concatenate(js),
        alisha=np.concatenate(ks),
        block_index=np.concatenate(blocks),
    )


def emit_events_lexsort(triples: TripleBatch, config: ExperimentConfig, seed: int = 0) -> EventStream:
    """Unroll triples into a time-sorted stream of single detections.

    Triple t sits at t * spacing; its screen record comes first and the two
    idler records lag by independent integer delays in [1, 10] ns.  Delay
    draws depend only on (seed, triple position), never on outcomes, so two
    runs differing only in babu's settings share identical timestamps.
    """
    n = len(triples)
    spacing = triple_spacing_ns(config.pair_rate_scale)
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_DOMAIN_DELAYS, 0))
    )
    delays = rng.integers(1, 11, size=(n, 2))
    base = np.arange(n, dtype=np.int64) * spacing
    times = np.concatenate([base, base + delays[:, 0], base + delays[:, 1]])
    codes = np.concatenate(
        [
            np.zeros(n, dtype=np.int64),
            triples.babu + 1,
            triples.alisha + 5,
        ]
    )
    x_bin = np.concatenate([triples.x_bin, np.full(2 * n, -1, dtype=np.int64)])
    rank = np.concatenate(
        [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), np.full(n, 2, dtype=np.int64)]
    )
    order = np.lexsort((rank, times))
    return EventStream(
        detector=codes[order],
        time_ns=times[order],
        x_bin=x_bin[order],
        n_bins=config.geometry.n_bins,
    )


def inject_background_lexsort(stream: EventStream, rate_per_ns: float, seed: int = 0) -> EventStream:
    """Overlay Poisson dark counts on an existing stream; see background_lexsort."""
    return background_lexsort(stream, rate_per_ns, seed)[0]


def background_lexsort(stream: EventStream, rate_per_ns: float, seed: int = 0) -> tuple:
    """(stream with Poisson dark counts overlaid, which of its records are dark counts).

    Original records keep their content and order.  Rate 0 returns the
    stream as is.  The dark counts are drawn as the library draws them: the
    total, then per window of the span (as many as the total fills at
    ``events._DARK_WINDOW`` apiece) a binomial share of what is left, its
    times, codes and bins.  One stable lexsort by (time, dark) merges all,
    so at each time the originals keep their order and the dark counts
    follow in draw order.
    """
    from qeraser import events

    rate = float(rate_per_ns)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"background rate must be finite and non-negative, got {rate!r}")
    if rate == 0.0 or len(stream) < 2:
        return stream, np.zeros(len(stream), dtype=bool)
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_DOMAIN_BACKGROUND, 0))
    )
    t0 = int(stream.time_ns[0])
    t1 = int(stream.time_ns[-1])
    n_bg = int(rng.poisson(rate * (t1 - t0)))
    n_windows = max(1, math.ceil(n_bg / events._DARK_WINDOW))
    edges = [t0 + j * (t1 - t0 + 1) // n_windows for j in range(n_windows + 1)]
    bg_times, bg_codes, bg_x_all = [], [], []
    left = n_bg
    for lo, hi in zip(edges, edges[1:]):
        k = int(rng.binomial(left, (hi - lo) / (t1 + 1 - lo)))
        left -= k
        bg_times.append(rng.integers(lo, hi, size=k))
        bg_codes.append(rng.integers(0, len(DETECTOR_LABELS), size=k))
        bg_x_all.append(rng.integers(0, stream.n_bins, size=k))
    assert left == 0
    bg_times, bg_codes, bg_x_all = map(np.concatenate, (bg_times, bg_codes, bg_x_all))
    bg_x = np.where(bg_codes == CODE_D0, bg_x_all, -1)

    all_t = np.concatenate([stream.time_ns, bg_times])
    all_code = np.concatenate([stream.detector, bg_codes])
    all_x = np.concatenate([stream.x_bin, bg_x])
    is_bg = np.concatenate([np.zeros(len(stream), dtype=bool), np.ones(n_bg, dtype=bool)])
    order = np.lexsort((is_bg, all_t))
    noisy = EventStream(
        detector=all_code[order],
        time_ns=all_t[order],
        x_bin=all_x[order],
        n_bins=stream.n_bins,
    )
    return noisy, is_bg[order]


def match_coincidences_loop(
    stream: EventStream,
    window_ns: int = 20,
    *,
    block_size: int,
    spacing_ns: int,
) -> tuple[TripleBatch, OrphanReport]:
    """Greedy earliest-first matcher, one Python iteration per D0 record."""
    w = int(window_ns)
    if w < 0:
        raise ValueError("window must be non-negative")
    t = stream.time_ns
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise ValueError("event stream is not time-sorted")

    codes = stream.detector
    d0_pos = np.flatnonzero(codes == CODE_D0)
    b_pos = np.flatnonzero((codes >= 1) & (codes <= 4))
    a_pos = np.flatnonzero(codes >= 5)

    td = t[d0_pos].tolist()
    xd = stream.x_bin[d0_pos].tolist()
    tb = t[b_pos].tolist()
    cb = codes[b_pos].tolist()
    ta = t[a_pos].tolist()
    ca = codes[a_pos].tolist()

    nb, na = len(tb), len(ta)
    used_b = np.zeros(nb, dtype=bool)
    used_a = np.zeros(na, dtype=bool)
    used_d = np.zeros(len(td), dtype=bool)

    xs, js, ks, blocks = [], [], [], []
    matched = 0
    pb = pa = 0
    for di, t0 in enumerate(td):
        while pb < nb and tb[pb] < t0 - w:
            pb += 1
        while pa < na and ta[pa] < t0 - w:
            pa += 1
        if pb < nb and tb[pb] <= t0 + w and pa < na and ta[pa] <= t0 + w:
            used_d[di] = True
            used_b[pb] = True
            used_a[pa] = True
            xs.append(xd[di])
            js.append(cb[pb] - 1)
            ks.append(ca[pa] - 5)
            blocks.append(t0 // (int(spacing_ns) * int(block_size)))
            matched += 1
            pb += 1
            pa += 1

    orphan_pos = np.concatenate([d0_pos[~used_d], b_pos[~used_b], a_pos[~used_a]])
    counts: dict = {}
    for code in codes[orphan_pos]:
        label = DETECTOR_LABELS[int(code)]
        counts[label] = counts.get(label, 0) + 1
    # the labels that have orphans, in DETECTOR_LABELS order
    by_detector = {label: counts[label] for label in DETECTOR_LABELS if label in counts}
    report = OrphanReport(total=int(orphan_pos.size), by_detector=by_detector)
    batch = TripleBatch(
        triple_id=np.arange(matched, dtype=np.int64),
        x_bin=np.array(xs, dtype=np.int64),
        babu=np.array(js, dtype=np.int64),
        alisha=np.array(ks, dtype=np.int64),
        block_index=np.array(blocks, dtype=np.int64),
    )
    return batch, report


def simulate_whole(config: ExperimentConfig, header: SimStreamHeader, rate_per_ns: float):
    """The whole-run simulate that the chunked stream path replaced.

    Samples, emits, injects and matches the whole run at once, through the
    whole-run oracles above, at the header's seed, window, block size and
    spacing, and writes both files with the f-string formatters.  Returns
    (events.csv bytes, triples.csv bytes, simulate's stdout, orphans).
    """
    from dataclasses import fields

    from qeraser import __version__

    seed, window = header.seed, header.coincidence_window_ns
    triples = sample_triples_concat(config, seed)
    stream = inject_background_lexsort(emit_events_lexsort(triples, config, seed), rate_per_ns, seed)
    matched, orphans = match_coincidences_loop(
        stream, window, block_size=header.block_size, spacing_ns=header.spacing_ns
    )

    def text(tag, labels, columns, n_rows, rows):
        lines = [tag, f"tool_version={__version__}"]
        lines += [f"{f.name}={getattr(header, f.name)}" for f in fields(header)]
        lines += [f"n_rows={n_rows}", *labels, f"columns={columns}"]
        return ("".join(f"# {line}\n" for line in lines) + rows).encode("utf-8")

    events_csv = text(
        "qeraser-event-log v3",
        EVENT_LABEL_LINES,
        "detector,time_ns,x_bin",
        len(stream),
        event_log_rows(stream),
    )
    columns = "block_index,x_bin,babu,alisha"
    triples_csv = text(
        "qeraser-triples v3", TRIPLE_LABEL_LINES, columns, len(matched), triples_rows(matched)
    )
    which_path = np.mean((matched.babu >= 2) | (matched.alisha >= 2)) if len(matched) else 0.0
    stdout = (
        f"sampled {len(triples)} triples over {len(config.schedule.bits)} blocks\n"
        f"emitted {len(stream)} event records (spacing {header.spacing_ns} ns)\n"
        f"matched {len(matched)} triples in a +-{window} ns window\n"
        f"orphans {orphans.total}\n"
        f"which-path participation fraction {which_path:.6f}\n"
    )
    return events_csv, triples_csv, stdout, orphans


def _parse_header(fh) -> tuple[dict, list[str]]:
    """Read '#' lines anywhere; returns (key->value, remaining data lines)."""
    meta: dict = {}
    data: list[str] = []
    for raw in fh:
        line = raw.rstrip("\n")
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if line:
            data.append(line)
    return meta, data


def _uint(field: str) -> int:
    """int(field), refusing a sign: a stream integer is unsigned."""
    if field.strip().startswith("-"):
        raise ValueError(f"bad integer {field!r}")
    return int(field)


def _header_from_meta(meta: dict) -> SimStreamHeader:
    try:
        return SimStreamHeader(
            seed=_uint(meta["seed"]),
            config_digest=meta["config_digest"],
            coincidence_window_ns=_uint(meta["coincidence_window_ns"]),
            rng_algorithm=meta["rng_algorithm"],
            bits=meta["bits"],
            block_size=_uint(meta["block_size"]),
            spacing_ns=_uint(meta["spacing_ns"]),
            n_triples=_uint(meta["n_triples"]),
            n_bins=_uint(meta["n_bins"]),
        )
    except KeyError as exc:
        raise ValueError(f"stream header missing field {exc}") from exc


# the header lines that name each channel column's labels, in index order
EVENT_LABEL_LINES = ["detector_labels=" + ",".join(DETECTOR_LABELS)]
TRIPLE_LABEL_LINES = ["babu_labels=" + ",".join(BABU_LABELS), "alisha_labels=" + ",".join(ALISHA_LABELS)]


def event_log_rows(stream: EventStream) -> str:
    """Event-log data rows, one f-string per row; detector is its channel number."""
    columns = (stream.detector, stream.time_ns, stream.x_bin)
    return "".join(
        f"{d},{t},{x if d == CODE_D0 else ''}\n" for d, t, x in zip(*(c.tolist() for c in columns))
    )


def triples_rows(batch: TripleBatch) -> str:
    """Triples data rows, one f-string per row; triple_id is not written."""
    columns = (batch.block_index, batch.x_bin, batch.babu, batch.alisha)
    return "".join(f"{b},{x},{j},{k}\n" for b, x, j, k in zip(*(c.tolist() for c in columns)))


def _check_labels(meta: dict, lines: list) -> None:
    """Refuse a header (meta) that does not hold each key=value line of lines."""
    for line in lines:
        key, want = line.split("=", 1)
        if meta.get(key) != want:
            raise ValueError(f"stream header {key} {meta.get(key)!r} is not {want!r}")


# per stream file kind: each channel field's position and labels, and v1's id column
_CHANNELS = {
    "qeraser-event-log": {0: DETECTOR_LABELS},
    "qeraser-triples": {2: BABU_LABELS, 3: ALISHA_LABELS},
}
_V1_ID = {"qeraser-event-log": "event_id", "qeraser-triples": "triple_id"}


def _split_v3(text: str) -> tuple:
    """A v3 stream file's (kind, header lines, data rows), each line with its end."""
    lines = text.splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")]
    kind, version = head[0][2:].split()
    assert version == "v3", head[0]
    return kind, head, lines[len(head) :]


def as_v2(text: str) -> str:
    """A v3 stream file's text in the v2 layout: tagged v2, no labels lines, each channel its label.

    These are the bytes the v2 writer gave for the same records.
    """
    kind, head, rows = _split_v3(text)
    channels = _CHANNELS[kind]

    def row(line):
        fields = line.rstrip("\n").split(",")
        for i, labels in channels.items():
            fields[i] = labels[int(fields[i])]
        return ",".join(fields) + "\n"

    head = [f"# {kind} v2\n"] + [line for line in head[1:] if "_labels=" not in line]
    return "".join(head) + "".join(row(line) for line in rows)


def as_v1(text: str) -> str:
    """A v3 stream file's text in the v1 layout: as_v2's, tagged v1, each row's number first."""
    kind = _split_v3(text)[0]
    lines = as_v2(text).splitlines(keepends=True)
    n_head = sum(line.startswith("#") for line in lines)
    head = "".join(lines[:n_head]).replace(" v2\n", " v1\n", 1)
    head = head.replace("# columns=", f"# columns={_V1_ID[kind]},")
    return head + "".join(f"{i},{row}" for i, row in enumerate(lines[n_head:]))


def write_triples(path, batch: TripleBatch, header: SimStreamHeader) -> str:
    """Write batch as the triples file at path as simulate does: rows to a spill, then copied.

    A field outside the row grammar is refused before the file is opened.
    Returns the file's sha256 hex.
    """
    with tempfile.TemporaryFile() as spill:
        spill.writelines(_row_bytes(_TRIPLES, vars(batch), 0))
        return write_spilled_triples(path, spill, header, len(batch))


def write_event_log(path, stream: EventStream, header: SimStreamHeader) -> str:
    """Write stream whole as the event log at path, as one piece; the file's sha256 hex."""
    return write_event_log_pieces(path, [vars(stream)], header, len(stream))


def read_event_log_lines(path) -> tuple[EventStream, SimStreamHeader]:
    """Event-log reader with one split and three int() calls per row, each refusing a sign."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, data = _parse_header(fh)
    header = _header_from_meta(meta)
    _check_labels(meta, EVENT_LABEL_LINES)
    declared = _uint(meta["n_rows"]) if "n_rows" in meta else -1
    if declared != len(data):
        raise ValueError(
            f"event log declares {declared} rows but contains {len(data)}; "
            "file is truncated or corrupt"
        )
    det, ts, xs = [], [], []
    for line in data:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed event row: {line!r}")
        code = _uint(parts[0])
        has_x = parts[2] != ""
        if has_x != (code == CODE_D0):
            raise ValueError(f"x_bin presence inconsistent with detector: {line!r}")
        det.append(code)
        ts.append(_uint(parts[1]))
        xs.append(_uint(parts[2]) if has_x else -1)
    return EventStream(detector=det, time_ns=ts, x_bin=xs, n_bins=header.n_bins), header


def read_triples_lines(path) -> tuple[TripleBatch, SimStreamHeader]:
    """Triples reader with one split and four int() calls per row, each refusing a sign.

    triple_id is the row number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        meta, data = _parse_header(fh)
    header = _header_from_meta(meta)
    _check_labels(meta, TRIPLE_LABEL_LINES)
    declared = _uint(meta["n_rows"]) if "n_rows" in meta else -1
    if declared != len(data):
        raise ValueError(
            f"triples file declares {declared} rows but contains {len(data)}; "
            "file is truncated or corrupt"
        )
    blk, xb, jj, kk = [], [], [], []
    for line in data:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed triple row: {line!r}")
        blk.append(_uint(parts[0]))
        xb.append(_uint(parts[1]))
        jj.append(_uint(parts[2]))
        kk.append(_uint(parts[3]))
    tid = np.arange(len(data))
    batch = TripleBatch(triple_id=tid, x_bin=xb, babu=jj, alisha=kk, block_index=blk)
    return batch, header


def decode_per_block(triples, schedule, geom, babu_filter, alisha_filter):
    """(decoded, visibility, stderr) tuples from one build_histogram and fit_fringe per block."""
    decoded, vis, err = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        for b in range(len(schedule.bits)):
            in_block = triples.block_index == b
            counts = build_histogram(
                TripleBatch(**{name: column[in_block] for name, column in vars(triples).items()}),
                geom.n_bins,
                babu=babu_filter,
                alisha=alisha_filter,
            )
            if counts.sum() == 0:
                decoded.append(0)
                vis.append(0.0)
                err.append(float("inf"))
                continue
            fit = fit_fringe(counts, geom)
            decoded.append(1 if classify_pattern(fit) == "interference" else 0)
            vis.append(fit.visibility)
            err.append(fit.standard_error)
    return tuple(decoded), tuple(vis), tuple(err)


def fit_fringe_one(counts, geom: SlitScreenGeometry) -> FringeFit:
    """One histogram's fringe fit by LAPACK, as ``analysis.fit_fringe`` once did it.

    A first lstsq pass, then one 3x3 solve and inverse; ``fit_fringes``
    must agree with it to within rounding.
    """
    y = np.asarray(counts, dtype=float)
    if y.ndim != 1 or len(y) != geom.n_bins:
        raise ValueError("histogram length does not match the screen binning")
    total = float(y.sum())
    if total <= 0.0:
        raise ValueError("empty histogram; nothing to fit")
    if total < nyquist_min_samples(geom):
        warnings.warn(
            f"{total:.0f} counts is below the sampling bound "
            f"{nyquist_min_samples(geom)}; fringe fit is undersampled",
            LowSampleWarning,
            stacklevel=2,
        )
    u = geom.fringe_frequency * geom.bin_centers
    design = np.column_stack([np.ones_like(u), np.cos(u), np.sin(u)])
    coeff = np.linalg.lstsq(design, y, rcond=None)[0]
    var = np.clip(design @ coeff, 1.0, None)
    weighted = design / var[:, None]
    normal = design.T @ weighted
    coeff = np.linalg.solve(normal, weighted.T @ y)
    cov = np.linalg.inv(normal)

    c0, c_cos, c_sin = (float(v) for v in coeff)
    amplitude = math.hypot(c_cos, c_sin)
    phase = math.atan2(c_sin, c_cos)
    if amplitude > 0.0:
        grad = np.array([c_cos / amplitude, c_sin / amplitude])
        var_amp = float(grad @ cov[1:, 1:] @ grad)
    else:
        var_amp = float(0.5 * (cov[1, 1] + cov[2, 2]))
    visibility = 0.0 if c0 <= 0.0 else min(max(amplitude / c0, 0.0), 1.0)
    return FringeFit(
        mean_level=c0,
        amplitude=amplitude,
        phase=phase,
        visibility=visibility,
        standard_error=math.sqrt(max(var_amp, 0.0)),
    )


def table_floats(basis, coeffs) -> list[list[float]]:
    """``optics.table`` of an (r, T) basis and (T, c) coefficients in Python floats.

    Entry (i, c) is basis[i][0] * coeffs[0][c] + basis[i][1] * coeffs[1][c]
    + ..., added left to right.
    """
    rows = []
    for b in basis:
        row = []
        for c in range(len(coeffs[0])):
            total = b[0] * coeffs[0][c]
            for t in range(1, len(coeffs)):
                total = total + b[t] * coeffs[t][c]
            row.append(total)
        rows.append(row)
    return rows


def solve_normal_floats(normal, rhs) -> tuple[float, float, float]:
    """One 3x3 system by Gaussian elimination in column order, in Python floats."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = normal
    b0, b1, b2 = rhs
    f = a10 / a00
    a11, a12, b1 = a11 - f * a01, a12 - f * a02, b1 - f * b0
    f = a20 / a00
    a21, a22, b2 = a21 - f * a01, a22 - f * a02, b2 - f * b0
    f = a21 / a11
    a22, b2 = a22 - f * a12, b2 - f * b1
    x2 = b2 / a22
    x1 = (b1 - a12 * x2) / a11
    x0 = (b0 - a01 * x1 - a02 * x2) / a00
    return x0, x1, x2
