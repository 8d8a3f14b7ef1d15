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
from pathlib import Path

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from .events import TripleBatch
from .experiment import SwitchSchedule, nyquist_min_samples
from .optics import ALISHA_LABELS, BABU_LABELS, SlitScreenGeometry

VISIBILITY_THRESHOLD = 0.5
AMPLITUDE_SIGMAS = 3.0


class LowSampleWarning(UserWarning):
    """Fewer detections than the sampling bound 2L/d; fit is undersampled."""


@dataclass(frozen=True, eq=False)
class Histogram:
    counts: np.ndarray
    selector: str

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def _as_filter(value) -> set | None:
    if value is None:
        return None
    if np.isscalar(value):
        return {int(value)}
    return {int(v) for v in value}


def build_histogram(
    triples: TripleBatch,
    n_bins: int,
    babu=None,
    alisha=None,
    block=None,
) -> Histogram:
    """Screen-position histogram over a selected subset of triples.

    babu/alisha/block accept a single index, a set of indices, or None for
    no restriction; (babu=j, alisha=k) is the usual coincidence slice and
    alisha-only selection is what a screen-side observer can actually form.
    """
    mask = np.ones(len(triples), dtype=bool)
    parts = []
    for name, values, column, labels in (
        ("babu", _as_filter(babu), triples.babu, BABU_LABELS),
        ("alisha", _as_filter(alisha), triples.alisha, ALISHA_LABELS),
        ("block", _as_filter(block), triples.block_index, None),
    ):
        if values is None:
            continue
        mask &= np.isin(column, sorted(values))
        if labels is None:
            parts.append(f"{name}={sorted(values)}")
        else:
            parts.append(f"{name}={'+'.join(labels[v] for v in sorted(values))}")
    selector = " ".join(parts) if parts else "all"
    x = triples.x_bin[mask]
    if len(x) and (x.min() < 0 or x.max() >= n_bins):
        raise ValueError("x_bin outside the screen binning")
    counts = np.bincount(x, minlength=n_bins)
    return Histogram(counts=counts, selector=selector)


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


def fit_fringe(data, geom: SlitScreenGeometry) -> FringeFit:
    """Fit counts to c0 + A cos(w x - phase) at the fixed fringe frequency.

    Plain least squares first; one reweighted pass with Poisson variances
    taken from the first-pass model (observed-count weights would bias the
    amplitude wherever bins run empty).  standard_error is the propagated
    error of the amplitude.  Noiseless model input is recovered exactly.
    """
    counts = data.counts if isinstance(data, Histogram) else data
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


def classify_pattern(fit: FringeFit, visibility_threshold: float = VISIBILITY_THRESHOLD) -> str:
    """'interference' only when visibility clears the threshold and the
    amplitude is resolved above noise; everything else is a 'clump'."""
    if fit.visibility > visibility_threshold and fit.significant:
        return "interference"
    return "clump"


@dataclass(frozen=True)
class DecodeReport:
    selector: str
    decoded_bits: tuple
    true_bits: tuple
    bit_error_rate: float
    per_block_visibility: tuple
    per_block_stderr: tuple
    confidence: float  # fraction of blocks meeting the sampling bound


def _decode(
    triples: TripleBatch,
    schedule: SwitchSchedule,
    geom: SlitScreenGeometry,
    babu_filter,
    alisha_filter,
    selector: str,
) -> DecodeReport:
    n_blocks = len(schedule.bits)
    if n_blocks == 0:
        raise ValueError("schedule has no bits to decode")
    blocks = triples.block_index
    outside = (blocks < 0) | (blocks >= n_blocks)
    if outside.any():
        raise ValueError(
            f"triple block index {int(blocks[np.argmax(outside)])} is outside "
            f"the schedule's {n_blocks} blocks"
        )
    bound = nyquist_min_samples(geom)
    counts = np.bincount(blocks, minlength=n_blocks)
    low = [b for b in range(n_blocks) if counts[b] < bound]
    if low:
        warnings.warn(
            f"blocks {low} hold fewer than {bound} triples; "
            "decoded bits there are low-confidence",
            LowSampleWarning,
            stacklevel=3,
        )
    # (block, x_bin) counts of the selected slice in one pass; row b is the
    # histogram build_histogram gives for block b
    selected = np.ones(len(triples), dtype=bool)
    for value, column in ((babu_filter, triples.babu), (alisha_filter, triples.alisha)):
        if value is not None:
            selected &= column == value
    x = triples.x_bin[selected]
    if len(x) and (x.min() < 0 or x.max() >= geom.n_bins):
        raise ValueError("x_bin outside the screen binning")
    grid = np.bincount(
        blocks[selected] * geom.n_bins + x, minlength=n_blocks * geom.n_bins
    ).reshape(n_blocks, geom.n_bins)
    decoded, vis, err = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        for counts_b in grid:
            if not counts_b.any():
                decoded.append(0)
                vis.append(0.0)
                err.append(float("inf"))
                continue
            fit = fit_fringe(counts_b, geom)
            decoded.append(1 if classify_pattern(fit) == "interference" else 0)
            vis.append(fit.visibility)
            err.append(fit.standard_error)
    true_bits = tuple(schedule.bits)
    errors = sum(1 for d, t in zip(decoded, true_bits) if d != t)
    return DecodeReport(
        selector=selector,
        decoded_bits=tuple(decoded),
        true_bits=true_bits,
        bit_error_rate=errors / n_blocks,
        per_block_visibility=tuple(vis),
        per_block_stderr=tuple(err),
        confidence=float(np.mean(counts >= bound)),
    )


def decode_omniscient(
    triples: TripleBatch, schedule: SwitchSchedule, geom: SlitScreenGeometry
) -> DecodeReport:
    """Per-block fringe test on the (D1, D1') coincidence slice.

    Needs both idler outcomes, i.e. classical records from both arms."""
    return _decode(triples, schedule, geom, 0, 0, "omniscient")


def decode_alisha_only(
    triples: TripleBatch, schedule: SwitchSchedule, geom: SlitScreenGeometry
) -> DecodeReport:
    """Same per-block test on what the screen side alone can select: D1'."""
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
    mi = float(np.sum(joint[nz] * np.log2(joint[nz] / (pl @ pc)[nz])))
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
    if len(triples) and triples.block_index.max() >= len(bits):
        raise ValueError("triple block index outside the schedule")
    return bits[triples.block_index]


def alisha_observable_cells(triples: TripleBatch) -> np.ndarray:
    """Flattened (x_bin, alisha outcome) cell ids: all a screen-side decoder has."""
    return triples.x_bin * 4 + triples.alisha


def omniscient_observable_cells(triples: TripleBatch) -> np.ndarray:
    """Flattened (x_bin, babu outcome, alisha outcome) cell ids."""
    return (triples.x_bin * 4 + triples.babu) * 4 + triples.alisha


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


def _write_table(path, header_pairs: dict, columns: str, rows: list[str]) -> None:
    from . import __version__

    lines = [f"# tool_version={__version__}"]
    for key, value in header_pairs.items():
        lines.append(f"# {key}={value}")
    lines.append(f"# columns={columns}")
    lines.extend(rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_histogram_csv(path, hist: Histogram, geom: SlitScreenGeometry, header: dict) -> None:
    rows = [
        f"{_fmt(x)},{int(c)}"
        for x, c in zip(geom.bin_centers, hist.counts)
    ]
    meta = dict(header)
    meta["selector"] = hist.selector
    _write_table(path, meta, "bin_center_m,count", rows)


def write_fit_csv(path, fit: FringeFit, header: dict) -> None:
    row = ",".join(
        _fmt(v)
        for v in (
            fit.mean_level,
            fit.amplitude,
            fit.phase,
            fit.visibility,
            fit.standard_error,
        )
    )
    _write_table(
        path, dict(header), "mean_level,amplitude,phase_rad,visibility,standard_error", [row]
    )


def write_decode_csv(path, report: DecodeReport, header: dict) -> None:
    meta = dict(header)
    meta["selector"] = report.selector
    meta["bit_error_rate"] = _fmt(report.bit_error_rate)
    meta["confidence"] = _fmt(report.confidence)
    rows = []
    for b in range(len(report.true_bits)):
        rows.append(
            f"{b},{_fmt(report.per_block_visibility[b])},"
            f"{_fmt(report.per_block_stderr[b])},"
            f"{report.decoded_bits[b]},{report.true_bits[b]}"
        )
    _write_table(path, meta, "block,visibility,stderr,decoded,true", rows)
