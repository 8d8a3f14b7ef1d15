"""Statistical analysis: histograms, fringe fits, decoders, information bounds.

The decoding question is always the same: given a pile of triples, does a
selected screen slice show a fringe or a featureless clump?  Counts are fit
against {1, cos(w x), sin(w x)} at the known doubled spatial frequency
w = 4 pi d / (lambda f); visibility is fitted amplitude over fitted mean.
An omniscient decoder that slices on both idler outcomes reads the switch
schedule perfectly, while a screen-plus-local-idler decoder sees flat blocks
only, and the mutual-information estimate quantifies that there is nothing
left to read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from .events import TripleBatch, _header_lines, _write_text
from .experiment import SwitchSchedule, nyquist_min_samples
from .optics import SlitScreenGeometry, table

VISIBILITY_THRESHOLD = 0.5
AMPLITUDE_SIGMAS = 3.0


class LowSampleWarning(UserWarning):
    """Fewer detections than the sampling bound 2L/d; fit is undersampled."""


def _select(columns: dict, babu=None, alisha=None) -> np.ndarray:
    """Mask of the triples (columns) in one slice; None leaves that column unrestricted."""
    mask = np.ones(len(columns["x_bin"]), dtype=bool)
    for value, column in ((babu, columns["babu"]), (alisha, columns["alisha"])):
        if value is not None:
            mask &= column == int(value)  # int() refuses a set, which would select nothing
    return mask


def build_histogram(triples: TripleBatch, n_bins: int, babu=None, alisha=None) -> np.ndarray:
    """Screen-position counts over a selected subset of triples.

    babu/alisha take one index, or None for no restriction; (babu=j,
    alisha=k) is the usual coincidence slice and alisha-only selection is
    what a screen-side observer can actually form.
    """
    x = triples.x_bin[_select(vars(triples), babu, alisha)]
    if len(x) and (x.min() < 0 or x.max() >= n_bins):
        raise ValueError("x_bin outside the screen binning")
    return np.bincount(x, minlength=n_bins)


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fringe parameters for one screen slice."""

    mean_level: float
    amplitude: float
    phase: float
    visibility: float
    standard_error: float

    @property
    def significant(self) -> bool:
        return self.amplitude > AMPLITUDE_SIGMAS * self.standard_error


def fringe_design(geom: SlitScreenGeometry) -> np.ndarray:
    """(3, n_bins) fringe model rows [1, cos u, sin u] at u = fringe_frequency * bin centre."""
    u = geom.fringe_frequency * geom.bin_centers
    return np.stack([np.ones_like(u), np.cos(u), np.sin(u)])


def solve_normal(normal, rhs) -> np.ndarray:
    """x on a new first axis, where normal @ x = rhs, for stacked 3x3 positive definite systems.

    Entries are scalars or arrays that broadcast.  Gaussian elimination in
    column order, elementwise, no pivoting: each system rounds as if alone.
    """
    a, b = [list(row) for row in normal], list(rhs)
    for col in range(3):
        if not np.all(a[col][col] > 0.0):
            raise ValueError("the fringe fit is singular: the screen spans too little of a fringe")
        for row in range(col + 1, 3):
            factor = a[row][col] / a[col][col]
            for j in range(col + 1, 3):
                a[row][j] = a[row][j] - factor * a[col][j]
            b[row] = b[row] - factor * b[col]
    x2 = b[2] / a[2][2]
    x1 = (b[1] - a[1][2] * x2) / a[1][1]
    x0 = (b[0] - a[0][1] * x1 - a[0][2] * x2) / a[0][0]
    return np.stack(np.broadcast_arrays(x0, x1, x2))


def unit_variance_fit(rows, geom: SlitScreenGeometry) -> np.ndarray:
    """(3, m) least-squares (c0, c_cos, c_sin) of each of m rows at unit variance.

    fit_fringes' first pass, and its whole fit of a probability row.  It is
    linear: the fit of table(rows.T, c) is table(this fit, c), up to rounding.
    """
    y, design = np.ascontiguousarray(rows, dtype=float), fringe_design(geom)
    normal = [[(d * e).sum() for e in design] for d in design]
    return solve_normal(normal, [(d * y).sum(axis=-1) for d in design])


def fringe_shape(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude and visibility of each (c0, c_cos, c_sin) row.

    The amplitude is math.hypot(c_cos, c_sin) (np.hypot differs in the last
    bit for some pairs); the visibility is amplitude / c0 clipped to [0, 1],
    and 0 where c0 <= 0.
    """
    c0, c_cos, c_sin = np.asarray(coeffs, dtype=float).reshape(-1, 3).T
    amplitudes = np.fromiter(map(math.hypot, c_cos, c_sin), dtype=float, count=len(c0))
    ratio = np.divide(amplitudes, c0, out=np.zeros_like(c0), where=c0 > 0.0)
    return amplitudes, np.clip(ratio, 0.0, 1.0)


def fit_fringes(rows, geom: SlitScreenGeometry) -> list[FringeFit]:
    """Fit each row of counts to c0 + A cos(w x - phase) at the fixed fringe frequency.

    Plain least squares first; one reweighted pass with Poisson variances
    taken from the first-pass model (observed-count weights would bias the
    amplitude wherever bins run empty).  standard_error is the propagated
    error of the amplitude.  Noiseless model input is recovered exactly.

    Both passes run stacked, every sum along a row's contiguous last axis,
    so each row is fitted to the last bit as it would be alone.  Rows below
    the sampling bound are fitted without a warning; fit_fringe warns.
    """
    ys = [np.asarray(row, dtype=float) for row in rows]
    for y in ys:
        if y.ndim != 1 or len(y) != geom.n_bins:
            raise ValueError("histogram length does not match the screen binning")
    if any(float(y.sum()) <= 0.0 for y in ys):
        raise ValueError("empty histogram; nothing to fit")
    if not ys:
        return []
    y, design = np.array(ys), fringe_design(geom)
    var = np.clip(table(unit_variance_fit(y, geom).T, design), 1.0, None)
    weighted = [d / var for d in design]
    normal = [[(w * d).sum(axis=-1) for d in design] for w in weighted]
    coeffs = solve_normal(normal, [(w * y).sum(axis=-1) for w in weighted])
    # columns 1 and 2 of each normal matrix's inverse: the fringe block of the covariance
    (i11, i12), (i21, i22) = solve_normal(normal, np.eye(3)[:, 1:, None])[1:]
    amplitudes, visibilities = fringe_shape(coeffs.T)
    resolved = amplitudes > 0.0
    # amplitude variance grad . cov . grad along the unit fringe direction; a
    # zero amplitude has no direction and takes the mean of the two variances
    g_cos, g_sin = (np.divide(c, amplitudes, out=np.zeros_like(c), where=resolved) for c in coeffs[1:])
    along = (g_cos * i11 + g_sin * i21) * g_cos + (g_cos * i12 + g_sin * i22) * g_sin
    var_amp = np.where(resolved, along, 0.5 * (i11 + i22))
    return [
        FringeFit(
            mean_level=c0,
            amplitude=amplitude,
            phase=math.atan2(c_sin, c_cos),
            visibility=visibility,
            standard_error=math.sqrt(max(var, 0.0)),
        )
        for (c0, c_cos, c_sin), amplitude, visibility, var in zip(
            coeffs.T.tolist(), amplitudes.tolist(), visibilities.tolist(), var_amp.tolist()
        )
    ]


def fit_fringe(counts, geom: SlitScreenGeometry) -> FringeFit:
    """fit_fringes on one row of counts, with a LowSampleWarning at the
    caller's line when the row holds fewer counts than the sampling bound."""
    y = np.asarray(counts, dtype=float)
    fit = fit_fringes([y], geom)[0]
    total = float(y.sum())
    bound = nyquist_min_samples(geom)
    if total < bound:
        warnings.warn(
            f"{total:.0f} counts is below the sampling bound {bound}; "
            "fringe fit is undersampled",
            LowSampleWarning,
            stacklevel=2,
        )
    return fit


def classify_pattern(fit: FringeFit) -> str:
    """'interference' only when visibility clears VISIBILITY_THRESHOLD and the
    amplitude is resolved above noise; everything else is a 'clump'."""
    if fit.visibility > VISIBILITY_THRESHOLD and fit.significant:
        return "interference"
    return "clump"


def _check_blocks(blocks: np.ndarray, n_blocks: int) -> None:
    """Every triple's block must be one of the schedule's blocks."""
    outside = (blocks < 0) | (blocks >= n_blocks)
    if outside.any():
        raise ValueError(
            f"triple block index {int(blocks[np.argmax(outside)])} is outside "
            f"the schedule's {n_blocks} blocks"
        )


@dataclass(frozen=True)
class DecodeReport:
    selector: str
    decoded_bits: tuple
    true_bits: tuple
    bit_error_rate: float
    per_block_visibility: tuple
    per_block_stderr: tuple
    confidence: float  # fraction of blocks whose decoded slice meets the sampling bound


def _decode(
    triples,
    schedule: SwitchSchedule,
    geom: SlitScreenGeometry,
    babu_filter,
    alisha_filter,
    selector: str,
) -> DecodeReport:
    """The per-block fringe test on one coincidence slice of triples.

    triples is a TripleBatch, or consecutive passes of one set of triples'
    columns, such as triple_passes reads.  Each pass is reduced to the
    slice's (block, x_bin) count grid, whose row b is the slice's histogram
    over block b; only that sum is held.  A block's row total is the count
    the fit rests on, which confidence and the LowSampleWarning weigh
    against the sampling bound.  A bad block or x_bin is refused once every
    pass is in, a block first, as over the whole set.
    """
    n_blocks, n_bins = len(schedule.bits), geom.n_bins
    grid = np.zeros(n_blocks * n_bins, dtype=np.int64)
    bad_blocks, bad_bin = None, False  # the first pass with a bad block; a bad selected x_bin
    for part in [vars(triples)] if isinstance(triples, TripleBatch) else triples:
        blocks, x = part["block_index"], part["x_bin"]
        known = (blocks >= 0) & (blocks < n_blocks)
        if bad_blocks is None and not known.all():
            bad_blocks = blocks
        selected = _select(part, babu_filter, alisha_filter)
        on_screen = (x >= 0) & (x < n_bins)
        bad_bin |= bool((selected & ~on_screen).any())
        selected &= known & on_screen
        grid += np.bincount(blocks[selected] * n_bins + x[selected], minlength=n_blocks * n_bins)
    if bad_blocks is not None:
        _check_blocks(bad_blocks, n_blocks)
    grid = grid.reshape(n_blocks, n_bins)
    counts = grid.sum(axis=1)
    bound = nyquist_min_samples(geom)
    low = [b for b in range(n_blocks) if counts[b] < bound]
    if low:
        warnings.warn(
            f"blocks {low} hold fewer than {bound} triples in the decoded slice; "
            "decoded bits there are low-confidence",
            LowSampleWarning,
            stacklevel=3,
        )
    if bad_bin:
        raise ValueError("x_bin outside the screen binning")
    lit = counts > 0
    fits = iter(fit_fringes(grid[lit], geom))
    # an empty block has no fit: it decodes as 0, with no error bar
    blocks = [next(fits) if fitted else None for fitted in lit]
    decoded = tuple(int(f is not None and classify_pattern(f) == "interference") for f in blocks)
    true_bits = tuple(schedule.bits)
    errors = sum(1 for d, t in zip(decoded, true_bits) if d != t)
    return DecodeReport(
        selector=selector,
        decoded_bits=decoded,
        true_bits=true_bits,
        bit_error_rate=errors / n_blocks,
        per_block_visibility=tuple(0.0 if f is None else f.visibility for f in blocks),
        per_block_stderr=tuple(float("inf") if f is None else f.standard_error for f in blocks),
        confidence=float(np.mean(counts >= bound)),
    )


def decode_omniscient(
    triples, schedule: SwitchSchedule, geom: SlitScreenGeometry
) -> DecodeReport:
    """Per-block fringe test on the (D1, D1') coincidence slice.

    Needs both idler outcomes, i.e. classical records from both arms.
    triples is a TripleBatch or its passes, as _decode takes them."""
    return _decode(triples, schedule, geom, 0, 0, "omniscient")


def decode_alisha_only(
    triples, schedule: SwitchSchedule, geom: SlitScreenGeometry
) -> DecodeReport:
    """Same per-block test on what the screen side alone can select: D1'.

    triples is a TripleBatch or its passes, as _decode takes them."""
    return _decode(triples, schedule, geom, None, 0, "alisha_only")


# ---------------------------------------------------------------------------
# Information accounting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MIEstimate:
    mi_bits: float
    bias_bound: float  # first-order plug-in bias (K-1)(M-1) / (2 n ln 2)
    n_samples: int
    n_labels: int
    n_cells: int


def mutual_information(labels, cells) -> MIEstimate:
    """Plug-in mutual information (bits) between labels and observable cells.

    Reports the standard first-order bias bound alongside; an estimate at or
    below its own bias bound carries no usable information.
    """
    labels = np.asarray(labels)
    cells = np.asarray(cells)
    if labels.shape != cells.shape or labels.ndim != 1:
        raise ValueError("labels and cells must be matching 1-d arrays")
    n = len(labels)
    if n == 0:
        raise ValueError("no samples")
    u_labels, li = np.unique(labels, return_inverse=True)
    u_cells, ci = np.unique(cells, return_inverse=True)
    k, m = len(u_labels), len(u_cells)
    if k < 2:
        raise ValueError("need at least two distinct labels")
    joint = np.zeros((k, m))
    np.add.at(joint, (li, ci), 1.0)
    joint /= n
    pl = joint.sum(axis=1, keepdims=True)
    pc = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log2(joint[nz] / (pl * pc)[nz])))
    return MIEstimate(
        mi_bits=max(mi, 0.0),
        bias_bound=(k - 1) * (m - 1) / (2.0 * n * math.log(2.0)),
        n_samples=n,
        n_labels=k,
        n_cells=m,
    )


def schedule_bit_labels(triples: TripleBatch, schedule: SwitchSchedule) -> np.ndarray:
    """Per-triple bit label looked up from the block index."""
    bits = np.asarray(schedule.bits, dtype=np.int64)
    _check_blocks(triples.block_index, len(bits))
    return bits[triples.block_index]


def alisha_observable_cells(triples: TripleBatch) -> np.ndarray:
    """Flattened (x_bin, alisha outcome) cell ids: all a screen-side decoder has.

    In int64, so no int32 x_bin wraps.
    """
    return triples.x_bin.astype(np.int64) * 4 + triples.alisha


def omniscient_observable_cells(triples: TripleBatch) -> np.ndarray:
    """Flattened (x_bin, babu outcome, alisha outcome) cell ids, in int64."""
    return (triples.x_bin.astype(np.int64) * 4 + triples.babu) * 4 + triples.alisha


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    pvalue: float
    n_cells_used: int


def chi_square_fit(observed, expected_probs, min_expected: float = 5.0) -> ChiSquareResult:
    """Goodness of fit of observed counts against an exact probability table.

    Cells with expected count below min_expected are pooled into one bucket,
    the usual validity condition for the chi-square approximation.  An
    observation in a zero-probability cell fails outright (pvalue 0).
    """
    obs = np.asarray(observed, dtype=float).ravel()
    probs = np.asarray(expected_probs, dtype=float).ravel()
    if obs.shape != probs.shape:
        raise ValueError("observed and expected tables differ in shape")
    n = obs.sum()
    if n <= 0:
        raise ValueError("no observations")
    exp = probs / probs.sum() * n
    impossible = (exp == 0) & (obs > 0)
    if np.any(impossible):
        return ChiSquareResult(
            statistic=float("inf"), dof=0, pvalue=0.0, n_cells_used=0
        )
    keep = exp >= min_expected
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    cells = int(keep.sum())
    pooled_exp = float(exp[~keep].sum())
    if pooled_exp > 0:
        pooled_obs = float(obs[~keep].sum())
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        cells += 1
    dof = max(cells - 1, 1)
    return ChiSquareResult(
        statistic=stat,
        dof=dof,
        pvalue=float(_chi2_dist.sf(stat, dof)),
        n_cells_used=cells,
    )


# ---------------------------------------------------------------------------
# Tabular writers: '#'-headered comma-separated text, floats via repr.
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return repr(float(v))


def _write_table(path, header_pairs: dict, columns: str, rows: list[str]) -> str:
    body = "\n".join([*rows, ""]).encode("utf-8")  # each row ends in "\n"
    return _write_text(path, _header_lines(header_pairs, columns), [body])


def write_decode_csv(path, report: DecodeReport, header: dict) -> str:
    meta = {**header, "selector": report.selector, "bit_error_rate": _fmt(report.bit_error_rate)}
    meta["confidence"] = _fmt(report.confidence)
    blocks = zip(report.per_block_visibility, report.per_block_stderr, report.decoded_bits, report.true_bits)
    rows = [f"{b},{_fmt(v)},{_fmt(e)},{d},{t}" for b, (v, e, d, t) in enumerate(blocks)]
    return _write_table(path, meta, "block,visibility,stderr,decoded,true", rows)
