"""Exact amplitude model for two-path interference with tapped idler arms.

Everything here is closed-form linear algebra on small arrays: no sampling,
no fitting.  A two-path source feeds a binned far-field screen, and each of
up to two observers receives an idler that first passes a which-path tap and
then, optionally, a recombining splitter that erases the path label.  The
module builds the exact joint outcome table and exposes the signed fringe
coefficients whose pairwise cancellation makes the screen marginal blind to
everything done on the remote arm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

UNITARITY_TOL = 1e-12

# Finest screen binning accepted; a pattern table at this size already holds
# over a million rows, and far larger counts would not fit in memory.
MAX_BINS = 65_536

PATH_A = "A"
PATH_B = "B"
PATHS = (PATH_A, PATH_B)

# Arm outcome indices.  D1/D2 sit behind the recombining splitter (path label
# erased); D3/D4 are the tap monitors, path-consistent by construction
# (D3 fires only for path A, D4 only for path B).
D1, D2, D3, D4 = 0, 1, 2, 3
ERASING_OUTCOMES = (D1, D2)
BABU_LABELS = ("D1", "D2", "D3", "D4")
ALISHA_LABELS = ("D1'", "D2'", "D3'", "D4'")


@dataclass(frozen=True)
class BeamSplitterUnitary:
    """2x2 recombiner on the path basis.

    Convention: path A maps to alpha*D1 + beta*D2, path B maps to
    -conj(beta)*D1 + conj(alpha)*D2.  Any (alpha, beta) with
    |alpha|^2 + |beta|^2 = 1 gives a unitary map.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        if not all(map(math.isfinite, (a.real, a.imag, b.real, b.imag))):
            raise ValueError("beam splitter entries must be finite")
        norm = abs(a) ** 2 + abs(b) ** 2
        if abs(norm - 1.0) > UNITARITY_TOL:
            raise ValueError(
                f"|alpha|^2 + |beta|^2 = {norm!r} violates unitarity"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def matrix(self) -> np.ndarray:
        a, b = self.alpha, self.beta
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def unitary_from_angle(theta: float, chi: float) -> BeamSplitterUnitary:
    """Mixing angle and relative phase: alpha = cos(theta), beta = sin(theta) e^{i chi}.

    theta = pi/4, chi = 0 is the balanced splitter; theta = 0 is a pass-through.
    """
    return BeamSplitterUnitary(
        complex(math.cos(theta)), math.sin(theta) * cmath.exp(1j * chi)
    )


IDENTITY_SPLITTER = BeamSplitterUnitary(1.0 + 0j, 0.0 + 0j)


@dataclass(frozen=True)
class ArmOptics:
    """One observer's idler arm: which-path tap plus optional recombiner.

    The fields are the config schema's (tap_p, splitter, theta, chi); the
    recombiner is unitary_from_angle(theta, chi), built once per arm.
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
    def unitary(self) -> BeamSplitterUnitary:
        return unitary_from_angle(self.theta, self.chi)

    @property
    def effective_unitary(self) -> BeamSplitterUnitary:
        """Removing the splitter hard-wires D1 to path A and D2 to path B."""
        return self.unitary if self.splitter_present else IDENTITY_SPLITTER


def arm_amplitudes(path: str, optics: ArmOptics) -> np.ndarray:
    """Amplitudes [D1, D2, D3, D4] an arm attaches to one source path.

    sqrt(p) goes to the path-consistent monitor, the remaining sqrt(1-p)
    through the effective recombiner.  The two vectors returned for the two
    paths of a fixed arm are orthonormal; that orthogonality is what kills
    every cross term in the remote marginal.
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}")
    u = optics.effective_unitary
    tap = math.sqrt(optics.tap_probability)
    keep = math.sqrt(1.0 - optics.tap_probability)
    if path == PATH_A:
        return np.array([keep * u.alpha, keep * u.beta, tap, 0.0], dtype=complex)
    return np.array(
        [-keep * u.beta.conjugate(), keep * u.alpha.conjugate(), 0.0, tap],
        dtype=complex,
    )


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
        # phase(L), in phase()'s order of operations, bounds every bin's phase
        edge = 2.0 * math.pi * self.screen_width * self.slit_separation
        if not math.isfinite(edge / (self.wavelength * self.focal_length)):
            raise ValueError("screen phase overflows: d * L / (lambda * f) is too large")

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
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x / self.sigma) ** 2)


@lru_cache(maxsize=32)
def _signal_vectors(geom: SlitScreenGeometry, envelope) -> tuple[np.ndarray, np.ndarray]:
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


@dataclass(frozen=True, eq=False)
class CoincidenceDistribution:
    """Exact joint table P(screen bin, babu outcome, alisha outcome)."""

    probs: np.ndarray  # (n_bins, 4, 4) real, non-negative, sums to 1
    geometry: SlitScreenGeometry
    envelope: object
    babu: ArmOptics
    alisha: ArmOptics

    def pattern(self, j: int, k: int) -> np.ndarray:
        """Screen slice for one fixed (babu, alisha) outcome pair."""
        return self.probs[:, j, k]

    def alisha_marginal(self) -> np.ndarray:
        """(n_bins, 4) table with babu's outcome summed out.  Not renormalised."""
        return self.probs.sum(axis=1)

    def total(self) -> float:
        return float(self.probs.sum())


def _outcome_probabilities(geom: SlitScreenGeometry, envelope, arms) -> np.ndarray:
    """|amplitude|^2 over (screen bin, outcome of each arm in turn).

    The two source paths enter with equal weight 1/sqrt(2); per path the
    amplitude is psi * arm_1 * arm_2 ..., multiplied in that order.
    """
    amp_a, amp_b = _signal_vectors(geom, envelope)
    for arm in arms:
        amp_a = amp_a[..., None] * arm_amplitudes(PATH_A, arm)
        amp_b = amp_b[..., None] * arm_amplitudes(PATH_B, arm)
    amp = math.sqrt(0.5) * (amp_a + amp_b)
    return amp.real**2 + amp.imag**2


def joint_distribution(
    geom: SlitScreenGeometry, envelope, babu: ArmOptics, alisha: ArmOptics
) -> CoincidenceDistribution:
    """Exact (n_bins, 4, 4) coincidence table; entries sum to 1."""
    probs = _outcome_probabilities(geom, envelope, (babu, alisha))
    probs.flags.writeable = False
    return CoincidenceDistribution(
        probs=probs, geometry=geom, envelope=envelope, babu=babu, alisha=alisha
    )


def single_distribution(
    geom: SlitScreenGeometry, envelope, babu: ArmOptics
) -> np.ndarray:
    """Exact (n_bins, 4) outcome table for the one-idler experiment."""
    return _outcome_probabilities(geom, envelope, (babu,))


def screen_marginal(
    geom: SlitScreenGeometry, envelope, alisha: ArmOptics
) -> np.ndarray:
    """Screen-side (n_bins, 4) marginal computed without reference to babu's arm.

    Orthonormality of babu's two path vectors collapses his outcome sum to
    (|psi_A|^2 |a_k^A|^2 + |psi_B|^2 |a_k^B|^2) / 2: no cross term survives,
    whatever sits in the other arm.  Agreement with the joint table's
    alisha_marginal() over arbitrary babu settings is the no-signalling
    identity.
    """
    psi_a, psi_b = _signal_vectors(geom, envelope)
    wa = np.abs(arm_amplitudes(PATH_A, alisha)) ** 2
    wb = np.abs(arm_amplitudes(PATH_B, alisha)) ** 2
    ea = psi_a.real**2 + psi_a.imag**2
    eb = psi_b.real**2 + psi_b.imag**2
    return 0.5 * (ea[:, None] * wa[None, :] + eb[:, None] * wb[None, :])


def _erasing_path_factors(j: int, unitary: BeamSplitterUnitary) -> tuple[complex, complex]:
    """Unitary factors (path A, path B) attached to an erasing outcome."""
    if j == D1:
        return unitary.alpha, -unitary.beta.conjugate()
    if j == D2:
        return unitary.beta, unitary.alpha.conjugate()
    raise ValueError(
        f"outcome {j} is a which-path monitor; only D1/D2 carry a fringe term"
    )


def interference_coefficient(
    j: int,
    k: int,
    babu_unitary: BeamSplitterUnitary,
    alisha_unitary: BeamSplitterUnitary,
) -> float:
    """Signed weight of the cos(2*phase) fringe in the (j, k) coincidence slice.

    Each erasing pair's slice is envelope * (|c_A|^2 + |c_B|^2
    + 2 Re(c_A conj(c_B) e^{2 i phase})) with c_A, c_B the unitary factors on
    the two source paths; this returns 2 Re(c_A conj(c_B)).  Equal-index
    pairs come out as +(2 Re of the four-factor product), mixed pairs as the
    same value negated, so the sum over j at fixed k cancels identically.
    """
    bca, bcb = _erasing_path_factors(j, babu_unitary)
    aca, acb = _erasing_path_factors(k, alisha_unitary)
    ca = bca * aca
    cb = bcb * acb
    return float(2.0 * (ca * cb.conjugate()).real)
