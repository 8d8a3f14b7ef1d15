"""Experiment description layer: configs, schedules, closed-form references.

Ties the amplitude model to runnable experiments: a serialisable
configuration (geometry, envelope, both arms, switch schedule), the shared
three-party path state, closed-form per-bin rates for the balanced setup,
and the sampling bound that says how many detections resolve one fringe.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .optics import (
    ArmOptics,
    CoincidenceDistribution,
    D1,
    D2,
    D3,
    D4,
    ERASING_OUTCOMES,
    GaussianEnvelope,
    SlitScreenGeometry,
    UniformEnvelope,
    joint_distribution,
    single_distribution,
    unitary_from_angle,
)

MODE_SINGLE = "single_delayed_choice"
MODE_DOUBLE = "double_delayed_choice"
MODES = (MODE_SINGLE, MODE_DOUBLE)

# Balanced 20-bit payload used by the default protocol run.
DEFAULT_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0)


@dataclass(frozen=True)
class ArmSettings:
    """Config-level arm description; angles rather than matrix entries."""

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

    def optics(self) -> ArmOptics:
        return ArmOptics(
            tap_probability=self.tap_probability,
            splitter_present=self.splitter_present,
            unitary=unitary_from_angle(self.theta, self.chi),
        )


@dataclass(frozen=True)
class SwitchSchedule:
    """Per-block splitter program for babu's arm: bit 1 = splitter in place."""

    bits: tuple[int, ...]
    block_size: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("schedule bits must be 0 or 1")
        if int(self.block_size) < 1:
            raise ValueError("block_size must be >= 1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "block_size", int(self.block_size))

    @property
    def n_triples(self) -> int:
        return len(self.bits) * self.block_size


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    geometry: SlitScreenGeometry
    envelope: object
    babu: ArmSettings
    alisha: ArmSettings
    schedule: SwitchSchedule | None = None
    pair_rate_scale: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        s = float(self.pair_rate_scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError("pair_rate_scale must be positive")
        object.__setattr__(self, "pair_rate_scale", s)

    @property
    def babu_optics(self) -> ArmOptics:
        return self.babu.optics()

    @property
    def alisha_optics(self) -> ArmOptics:
        return self.alisha.optics()


def default_geometry() -> SlitScreenGeometry:
    return SlitScreenGeometry(
        slit_separation=1.0e-3,
        wavelength=7.0e-7,
        focal_length=1.0,
        screen_width=5.0e-3,
        n_bins=256,
    )


def default_config(mode: str = MODE_DOUBLE) -> ExperimentConfig:
    """Balanced taps and splitters on both arms, 20-block switch schedule."""
    return ExperimentConfig(
        mode=mode,
        geometry=default_geometry(),
        envelope=UniformEnvelope(),
        babu=ArmSettings(tap_probability=0.5),
        alisha=ArmSettings(tap_probability=0.5),
        schedule=SwitchSchedule(bits=DEFAULT_BITS, block_size=10_000),
        pair_rate_scale=1.0,
    )


# ---------------------------------------------------------------------------
# Serialisation.  The on-disk schema uses the short conventional field names
# (d, lambda, f, L, tap_p, ...); see the CLI module docstring for the layout.
# ---------------------------------------------------------------------------


def _envelope_to_dict(envelope) -> dict:
    if isinstance(envelope, UniformEnvelope):
        return {"type": "uniform"}
    if isinstance(envelope, GaussianEnvelope):
        return {"type": "gaussian", "sigma": envelope.sigma}
    raise ValueError(f"unsupported envelope {envelope!r}")


def _envelope_from_obj(obj):
    if obj == "uniform" or obj is None:
        return UniformEnvelope()
    if isinstance(obj, dict):
        kind = obj.get("type")
        if kind == "uniform":
            return UniformEnvelope()
        if kind == "gaussian":
            if "sigma" not in obj:
                raise ValueError("gaussian envelope needs a sigma field")
            return GaussianEnvelope(sigma=float(obj["sigma"]))
    raise ValueError(f"unsupported envelope description {obj!r}")


def _arm_to_dict(arm: ArmSettings) -> dict:
    return {
        "tap_p": arm.tap_probability,
        "splitter": arm.splitter_present,
        "theta": arm.theta,
        "chi": arm.chi,
    }


def _arm_from_dict(obj: dict, which: str) -> ArmSettings:
    if not isinstance(obj, dict):
        raise ValueError(f"{which} section must be an object")
    splitter = obj.get("splitter", True)
    if not isinstance(splitter, bool):
        raise ValueError(f"{which}.splitter must be true or false, got {splitter!r}")
    try:
        return ArmSettings(
            tap_probability=float(obj["tap_p"]),
            splitter_present=splitter,
            theta=float(obj.get("theta", math.pi / 4.0)),
            chi=float(obj.get("chi", 0.0)),
        )
    except KeyError as exc:
        raise ValueError(f"{which} section missing field {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    g = config.geometry
    doc = {
        "mode": config.mode,
        "geometry": {
            "d": g.slit_separation,
            "lambda": g.wavelength,
            "f": g.focal_length,
            "L": g.screen_width,
            "n_bins": g.n_bins,
        },
        "envelope": _envelope_to_dict(config.envelope),
        "babu": _arm_to_dict(config.babu),
        "alisha": _arm_to_dict(config.alisha),
        "pair_rate_scale": config.pair_rate_scale,
    }
    if config.schedule is not None:
        doc["schedule"] = {
            "bits": list(config.schedule.bits),
            "block_size": config.schedule.block_size,
        }
    return {"experiment": doc}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict) or "experiment" not in data:
        raise ValueError("config must contain a top-level 'experiment' object")
    doc = data["experiment"]
    if not isinstance(doc, dict):
        raise ValueError("'experiment' must be an object")
    mode = doc.get("mode", MODE_DOUBLE)
    geo = doc.get("geometry")
    if not isinstance(geo, dict):
        raise ValueError("geometry section missing")
    try:
        geometry = SlitScreenGeometry(
            slit_separation=float(geo["d"]),
            wavelength=float(geo["lambda"]),
            focal_length=float(geo["f"]),
            screen_width=float(geo["L"]),
            n_bins=int(geo["n_bins"]),
        )
    except KeyError as exc:
        raise ValueError(f"geometry section missing field {exc}") from exc
    schedule = None
    if "schedule" in doc and doc["schedule"] is not None:
        sch = doc["schedule"]
        try:
            schedule = SwitchSchedule(
                bits=tuple(int(b) for b in sch["bits"]),
                block_size=int(sch["block_size"]),
            )
        except KeyError as exc:
            raise ValueError(f"schedule section missing field {exc}") from exc
    return ExperimentConfig(
        mode=mode,
        geometry=geometry,
        envelope=_envelope_from_obj(doc.get("envelope")),
        babu=_arm_from_dict(doc.get("babu", {"tap_p": 0.5}), "babu"),
        alisha=_arm_from_dict(doc.get("alisha", {"tap_p": 0.5}), "alisha"),
        schedule=schedule,
        pair_rate_scale=float(doc.get("pair_rate_scale", 1.0)),
    )


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_dict(data)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_digest(config: ExperimentConfig) -> str:
    """Hash over the canonical config serialisation; embedded in output files."""
    return _digest(config_to_dict(config))


def marginal_digest(config: ExperimentConfig) -> str:
    """Hash over the screen-side config subset only.

    The screen/alisha marginal provably does not depend on babu's settings,
    so marginal tables are keyed to (geometry, envelope, alisha) and stay
    byte-identical when only babu's arm changes.
    """
    doc = config_to_dict(config)["experiment"]
    subset = {
        "mode": doc["mode"],
        "geometry": doc["geometry"],
        "envelope": doc["envelope"],
        "alisha": doc["alisha"],
    }
    return _digest(subset)


# ---------------------------------------------------------------------------
# Shared path state and closed-form references.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GhzPathState:
    """Three-party path state: signal and both idlers share one branch label."""

    amplitudes: dict

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, key: tuple[str, str, str]) -> complex:
        return self.amplitudes.get(key, 0.0 + 0j)

    def statevector(self) -> np.ndarray:
        """(8,) vector over (slot1, slot2, slot3) with A -> 0, B -> 1."""
        vec = np.zeros(8, dtype=complex)
        for key, amp in self.amplitudes.items():
            idx = 0
            for slot in key:
                idx = 2 * idx + (0 if slot == "A" else 1)
            vec[idx] = amp
        return vec


def ghz_state() -> GhzPathState:
    """Equal superposition of all-A and all-B; no other branch is populated."""
    r = math.sqrt(0.5)
    return GhzPathState(amplitudes={("A", "A", "A"): r, ("B", "B", "B"): r})


def ideal_rate(
    j: int,
    k: int,
    x,
    geom: SlitScreenGeometry,
    tap_babu: float = 0.5,
    tap_alisha: float = 0.5,
):
    """Closed-form per-bin coincidence rate for balanced splitters, flat envelope.

    Written independently of the amplitude machinery (straight trig on the
    screen phase) so the two routes can be checked against each other.
    Erasing pairs carry cos^2/sin^2 fringes; any which-path participation is
    flat; the two cross monitors never fire together.
    """
    p = float(tap_babu)
    q = float(tap_alisha)
    for v in (p, q):
        if not 0.0 <= v <= 1.0:
            raise ValueError("tap probabilities must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > geom.screen_width / 2.0):
        raise ValueError("x lies outside the screen")
    n = geom.n_bins
    ph = geom.phase(x)
    if j in ERASING_OUTCOMES and k in ERASING_OUTCOMES:
        trig = np.cos(ph) if j == k else np.sin(ph)
        return (1.0 - p) * (1.0 - q) * trig**2 / (2.0 * n)
    flat = np.ones_like(ph)
    if j in ERASING_OUTCOMES:  # babu erased, alisha tapped: single path, no fringe
        return (1.0 - p) * q / (4.0 * n) * flat
    if k in ERASING_OUTCOMES:
        return p * (1.0 - q) / (4.0 * n) * flat
    if (j, k) in ((D3, D3), (D4, D4)):
        return p * q / (2.0 * n) * flat
    return 0.0 * flat  # (D3, D4') and (D4, D3') demand opposite paths


def single_choice_pattern(j: int, config: ExperimentConfig) -> np.ndarray:
    """Erasing-outcome screen pattern for the one-idler experiment.

    Returns P(bin | idler left through the recombiner) for outcome j, the
    D1/D2 pair being normalised jointly.
    """
    if config.mode != MODE_SINGLE:
        raise ValueError("single_choice_pattern needs a single_delayed_choice config")
    if j not in ERASING_OUTCOMES:
        raise ValueError("only D1/D2 patterns are defined here")
    table = single_distribution(config.geometry, config.envelope, config.babu_optics)
    erased = table[:, [D1, D2]]
    total = erased.sum()
    if total <= 0.0:
        raise ValueError("tap takes everything; no erased amplitude remains")
    return erased[:, 0 if j == D1 else 1] / total


def nyquist_min_samples(geom: SlitScreenGeometry) -> int:
    """Minimum detections 2L/d needed to resolve the finest screen fringes.

    Below this count a per-block fringe fit is undersampled and decoders
    flag the block as low-confidence.
    """
    r = 2.0 * geom.screen_width / geom.slit_separation
    # snap float-division artifacts (e.g. 400.00000000000006) before ceil
    return int(math.ceil(r - 1e-12 * max(1.0, abs(r)) - 1e-12))


def expand_schedule(schedule: SwitchSchedule, base: ArmOptics) -> list[ArmOptics]:
    """Per-triple arm optics: triple t gets splitter_present = bits[t // N]."""
    if not schedule.bits:
        raise ValueError("schedule has no bits")
    variants = {
        0: replace(base, splitter_present=False),
        1: replace(base, splitter_present=True),
    }
    out: list[ArmOptics] = []
    for bit in schedule.bits:
        out.extend([variants[bit]] * schedule.block_size)
    return out


def distribution_for(
    config: ExperimentConfig, splitter_present: bool | None = None
) -> CoincidenceDistribution:
    """Joint table for a two-idler config, optionally overriding babu's splitter."""
    if config.mode != MODE_DOUBLE:
        raise ValueError("joint tables exist only for double_delayed_choice configs")
    babu = config.babu_optics
    if splitter_present is not None:
        babu = replace(babu, splitter_present=splitter_present)
    return joint_distribution(config.geometry, config.envelope, babu, config.alisha_optics)
