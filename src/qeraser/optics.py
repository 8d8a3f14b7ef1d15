"""Exact amplitude model for two-path interference with tapped idler arms.

Everything here is closed-form linear algebra on small arrays: no sampling,
no fitting.  A two-path source feeds a binned far-field screen, and each of
up to two observers receives an idler that first passes a which-path tap and
then, optionally, a recombining splitter that erases the path label.  The
module builds every exact outcome table as E @ C, a real per-bin screen basis
times a real coefficient array of the arm settings, and exposes the signed
fringe coefficients whose pairwise cancellation makes the screen marginal
blind to everything done on the remote arm.  Every step is a float64
ufunc in a fixed order, so each table rounds the same on every CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Finest screen binning accepted; a pattern table at this size already holds
# over a million rows, and far larger counts would not fit in memory.
MAX_BINS = 65_536

# Arm outcome indices.  D1/D2 sit behind the recombining splitter (path label
# erased); D3/D4 are the tap monitors, path-consistent by construction
# (D3 fires only for path A, D4 only for path B).
D1, D2, D3, D4 = 0, 1, 2, 3
ERASING_OUTCOMES = (D1, D2)
BABU_LABELS = ("D1", "D2", "D3", "D4")
ALISHA_LABELS = ("D1'", "D2'", "D3'", "D4'")


def _recombiner(alpha, beta) -> np.ndarray:
    """Read-only (..., 2, 2) recombiners [[alpha, beta], [-conj(beta), conj(alpha)]].

    Rows are the source paths A and B, columns the outcomes D1 and D2: path A
    maps to alpha*D1 + beta*D2, path B to -conj(beta)*D1 + conj(alpha)*D2,
    which is unitary whenever |alpha|^2 + |beta|^2 = 1.
    """
    rows = [np.stack([alpha, beta], axis=-1), np.stack([-np.conj(beta), np.conj(alpha)], axis=-1)]
    matrix = np.stack(rows, axis=-2)
    matrix.flags.writeable = False
    return matrix


def arm_tables(tap, splitter, theta, chi) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (..., 2, 4) amplitudes and (..., 2, 2) recombiners of stacked arms.

    The arguments are the config schema's (tap_p, splitter, theta, chi),
    array-valued and broadcast together, and taken as valid (ArmOptics checks
    one arm's).  The recombiner has alpha = cos(theta) and
    beta = sin(theta) e^{i chi}, or is the identity with the splitter out;
    sqrt(1-p) goes through it, the remaining sqrt(p) to the path-consistent
    monitor.  Every step is elementwise, so each arm of a stack gets the
    values it gets alone (the 0-d case).
    """
    tap, splitter, theta, chi = np.broadcast_arrays(tap, splitter, theta, chi)
    alpha = np.where(splitter, np.cos(theta), 1.0).astype(complex)
    beta = np.where(splitter, np.sin(theta) * np.exp(1j * chi), 0.0)
    recombiner = _recombiner(alpha, beta)
    amplitudes = np.zeros((*tap.shape, 2, 4), dtype=complex)
    amplitudes[..., :2] = np.sqrt(1.0 - tap)[..., None, None] * recombiner
    amplitudes[..., 0, D3] = amplitudes[..., 1, D4] = np.sqrt(tap)
    amplitudes.flags.writeable = False
    return amplitudes, recombiner


def unitary_from_angle(theta, chi) -> np.ndarray:
    """Recombiner with alpha = cos(theta), beta = sin(theta) e^{i chi}; stacks over arrays.

    theta = pi/4, chi = 0 is the balanced splitter; theta = 0 is a pass-through.
    """
    return arm_tables(0.0, True, theta, chi)[1]


@dataclass(frozen=True)
class ArmOptics:
    """One observer's idler arm: which-path tap plus optional recombiner.

    The fields are the config schema's (tap_p, splitter, theta, chi); the
    amplitude table is arm_tables' 0-d case, built once per arm, read-only.
    """

    tap_probability: float
    splitter_present: bool = True
    theta: float = math.pi / 4.0
    chi: float = 0.0

    def __post_init__(self):
        p = float(self.tap_probability)
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValueError(f"tap probability {p!r} outside [0, 1]")
        for name in ("theta", "chi"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "tap_probability", p)
        object.__setattr__(self, "splitter_present", bool(self.splitter_present))

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """(2, 4) amplitudes [D1, D2, D3, D4] the arm attaches to paths A and B.

        The two rows are orthonormal; that orthogonality is what kills every
        cross term in the remote marginal.
        """
        return arm_tables(self.tap_probability, self.splitter_present, self.theta, self.chi)[0]


@dataclass(frozen=True)
class SlitScreenGeometry:
    """Two-slit far-field geometry with a binned detection screen.

    All lengths in metres.  Screen positions are reported at bin centres
    x_i = -L/2 + (i + 1/2) L / n_bins.
    """

    slit_separation: float
    wavelength: float
    focal_length: float
    screen_width: float
    n_bins: int

    def __post_init__(self):
        for name in ("slit_separation", "wavelength", "focal_length", "screen_width"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")
            object.__setattr__(self, name, v)
        n = int(self.n_bins)
        if not 1 <= n <= MAX_BINS:
            raise ValueError(f"n_bins must be between 1 and {MAX_BINS}, got {n}")
        object.__setattr__(self, "n_bins", n)
        # phase(L), in phase()'s order of operations, bounds every bin's phase; the fringe
        # frequency, and nyquist_min_samples' 2 L / d, must be finite too
        edge = 2.0 * math.pi * self.screen_width * self.slit_separation
        scale = self.wavelength * self.focal_length  # may underflow to 0
        if not (scale > 0.0 and math.isfinite(edge / scale) and math.isfinite(self.fringe_frequency)):
            raise ValueError("screen phase overflows: d * L / (lambda * f) is too large")
        if not math.isfinite(2.0 * self.screen_width / self.slit_separation):
            raise ValueError("screen width over slit separation overflows: L / d is too large")

    @cached_property
    def bin_centers(self) -> np.ndarray:
        L, n = self.screen_width, self.n_bins
        xs = -L / 2.0 + (np.arange(n) + 0.5) * (L / n)
        xs.flags.writeable = False
        return xs

    def phase(self, x):
        """Single-path screen phase 2 pi x d / (lambda f); path B carries -phase."""
        return (
            2.0
            * math.pi
            * np.asarray(x, dtype=float)
            * self.slit_separation
            / (self.wavelength * self.focal_length)
        )

    @property
    def fringe_frequency(self) -> float:
        """Angular spatial frequency of intensity fringes: 4 pi d / (lambda f)."""
        return (
            4.0 * math.pi * self.slit_separation
            / (self.wavelength * self.focal_length)
        )


@dataclass(frozen=True)
class UniformEnvelope:
    """Flat illumination across the screen."""

    def profile(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class GaussianEnvelope:
    """Gaussian illumination centred on the screen, width sigma in metres."""

    sigma: float

    def __post_init__(self):
        s = float(self.sigma)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "sigma", s)

    def profile(self, x):
        # math.exp per value: numpy's exp loop rounds differently on some CPUs
        with np.errstate(over="ignore"):  # a tiny sigma overflows (x / sigma)**2 to inf, exp(-inf) is 0
            return np.vectorize(math.exp, otypes=[float])(-0.5 * (np.asarray(x, dtype=float) / self.sigma) ** 2)


@lru_cache(maxsize=32)
def screen_basis(geom: SlitScreenGeometry, envelope) -> np.ndarray:
    """Read-only (n_bins, 4) screen basis E of every exact table.

    E = [|psi_A|^2/2, |psi_B|^2/2, Re psi_A psi_B*, -Im psi_A psi_B*], where
    psi_A, psi_B = sqrt(w) e^{+-i phase} are the unit-norm path amplitudes at
    bin centres and w is the envelope normalised over the bins, so
    psi_A psi_B* = w e^{2 i phase}.  Cached per (geometry, envelope).
    """
    xs = geom.bin_centers
    env = np.asarray(envelope.profile(xs), dtype=float)
    total = env.sum()
    if total <= 0.0:
        raise ValueError("envelope vanishes on every bin")
    w, fringe = env / total, 2.0 * geom.phase(xs)
    basis = np.column_stack([0.5 * w, 0.5 * w, w * np.cos(fringe), -w * np.sin(fringe)])
    basis.flags.writeable = False
    return basis


def coefficients(babu: np.ndarray, alisha: np.ndarray | None = None) -> np.ndarray:
    """Coefficient array C, so that table(screen_basis(...), C) is the exact outcome table.

    Takes babu's and optionally alisha's (..., 2, n) amplitude tables or
    recombiners, whose leading axes broadcast.  c_A, c_B are the amplitudes
    the arms give paths A and B per outcome (babu's j, then alisha's k), and
    C stacks [|c_A|^2, |c_B|^2, Re c_A c_B*, Im c_A c_B*] on a new first
    axis, every complex product formed from real parts.  Summed over babu's
    j, the cross rows vanish: his path rows are orthogonal.
    """
    re, im, path = babu.real, babu.imag, -2
    if alisha is not None:  # babu's j on a new axis before alisha's k
        k_re, k_im = alisha.real[..., None, :], alisha.imag[..., None, :]
        re, im = re[..., None], im[..., None]
        re, im, path = re * k_re - im * k_im, re * k_im + im * k_re, -3
    (a_re, b_re), (a_im, b_im) = np.moveaxis(re, path, 0), np.moveaxis(im, path, 0)
    norms = a_re * a_re + a_im * a_im, b_re * b_re + b_im * b_im
    return np.stack([*norms, a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im])


def table(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(r, ...) sum over t of basis[:, t] * coeffs[t], for an (r, T) basis: basis @ coeffs.

    The terms are added left to right, one rounding per product and per sum,
    so an entry rounds the same in any stack and on any CPU.
    """
    column = (slice(None),) + (None,) * (np.ndim(coeffs) - 1)
    out = basis[:, 0][column] * coeffs[0]
    for t in range(1, len(coeffs)):
        out += basis[:, t][column] * coeffs[t]
    return out


@dataclass(frozen=True, eq=False)
class CoincidenceDistribution:
    """Exact joint table P(screen bin, babu outcome, alisha outcome)."""

    probs: np.ndarray  # (n_bins, 4, 4) real, non-negative, sums to 1

    def pattern(self, j: int, k: int) -> np.ndarray:
        """Screen slice for one fixed (babu, alisha) outcome pair."""
        return self.probs[:, j, k]

    def alisha_marginal(self) -> np.ndarray:
        """(n_bins, 4) table with babu's outcome summed out.  Not renormalised."""
        return self.probs.sum(axis=1)

    def total(self) -> float:
        return float(self.probs.sum())


def joint_distribution(
    geom: SlitScreenGeometry, envelope, babu: ArmOptics, alisha: ArmOptics
) -> CoincidenceDistribution:
    """Exact (n_bins, 4, 4) coincidence table E @ C; entries sum to 1."""
    probs = table(screen_basis(geom, envelope), coefficients(babu.amplitudes, alisha.amplitudes))
    probs.flags.writeable = False
    return CoincidenceDistribution(probs)


def single_distribution(
    geom: SlitScreenGeometry, envelope, babu: ArmOptics
) -> np.ndarray:
    """Exact (n_bins, 4) outcome table E @ C for the one-idler experiment."""
    return table(screen_basis(geom, envelope), coefficients(babu.amplitudes))


def screen_marginal(geom: SlitScreenGeometry, envelope, alisha) -> np.ndarray:
    """Screen-side (n_bins, ..., 4) marginal computed without reference to babu's arm.

    alisha is an ArmOptics or a (..., 2, 4) stack of arm_tables amplitudes.
    Summed over babu's outcomes, C keeps only alisha's |amplitude|^2 rows, so
    the marginal is E's first two columns times those rows.  Agreement with
    the joint table's alisha_marginal() over arbitrary babu settings is the
    no-signalling identity.
    """
    amplitudes = alisha.amplitudes if isinstance(alisha, ArmOptics) else alisha
    return table(screen_basis(geom, envelope)[:, :2], coefficients(amplitudes)[:2])


def interference_coefficient(
    j: int, k: int, babu_recombiner: np.ndarray, alisha_recombiner: np.ndarray
) -> float:
    """Signed weight of the cos(2*phase) fringe in the (j, k) coincidence slice.

    Each erasing pair's slice is envelope * (|c_A|^2 + |c_B|^2
    + 2 Re(c_A conj(c_B) e^{2 i phase})) with c_A, c_B the recombiner
    columns j (babu) and k (alisha) multiplied path by path; this returns
    2 Re(c_A conj(c_B)), twice the cross row of the recombiners' C.
    Equal-index pairs come out as +(2 Re of the four-factor product), mixed
    pairs as the same value negated, so the sum over j at fixed k cancels
    identically.
    """
    for outcome in (j, k):
        if outcome not in ERASING_OUTCOMES:
            raise ValueError(
                f"outcome {outcome} is a which-path monitor; only D1/D2 carry a fringe term"
            )
    return 2.0 * float(coefficients(babu_recombiner, alisha_recombiner)[2, j, k])
