"""Experiment description layer: configs, schedules, closed-form references.

Ties the amplitude model to runnable experiments: a serialisable
configuration (geometry, envelope, both arms, switch schedule), closed-form
per-bin rates for the balanced setup, and the sampling bound that says how
many detections resolve one fringe.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

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
)

MODE_SINGLE = "single_delayed_choice"
MODE_DOUBLE = "double_delayed_choice"
MODES = (MODE_SINGLE, MODE_DOUBLE)

# Balanced 20-bit payload used by the default protocol run.
DEFAULT_BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0)


@dataclass(frozen=True)
class SwitchSchedule:
    """Per-block splitter program for babu's arm: bit 1 = splitter in place."""

    bits: tuple[int, ...]
    block_size: int

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise ValueError("schedule bits must not be empty")
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
    babu: ArmOptics
    alisha: ArmOptics
    schedule: SwitchSchedule | None = None
    pair_rate_scale: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        s = float(self.pair_rate_scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError("pair_rate_scale must be positive")
        object.__setattr__(self, "pair_rate_scale", s)


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
        babu=ArmOptics(tap_probability=0.5),
        alisha=ArmOptics(tap_probability=0.5),
        schedule=SwitchSchedule(bits=DEFAULT_BITS, block_size=10_000),
        pair_rate_scale=1.0,
    )


# ---------------------------------------------------------------------------
# Serialisation.  The on-disk schema uses the short conventional field names
# (d, lambda, f, L, tap_p, ...); README's Configuration section shows the layout.
# ---------------------------------------------------------------------------

# each section's file keys, in file order, and the fields they hold: what
# config_to_dict writes and config_from_dict reads; the experiment section's
# keys are ExperimentConfig's fields
_GEOMETRY_KEYS = {
    "d": "slit_separation",
    "lambda": "wavelength",
    "f": "focal_length",
    "L": "screen_width",
    "n_bins": "n_bins",
}
_ARM_KEYS = {"tap_p": "tap_probability", "splitter": "splitter_present", "theta": "theta", "chi": "chi"}
_SCHEDULE_KEYS = {"bits": "bits", "block_size": "block_size"}


def _section(obj, keys: dict) -> dict:
    """obj's config section: each file key with its field's value, a tuple as a list."""
    values = ((key, getattr(obj, field)) for key, field in keys.items())
    return {key: list(value) if isinstance(value, tuple) else value for key, value in values}


def _envelope_to_dict(envelope) -> dict:
    if isinstance(envelope, UniformEnvelope):
        return {"type": "uniform"}
    if isinstance(envelope, GaussianEnvelope):
        return {"type": "gaussian", "sigma": envelope.sigma}
    raise ValueError(f"unsupported envelope {envelope!r}")


def _unknown_key(path: str, key: str) -> ValueError:
    name = key if key.isprintable() else repr(key)  # a newline would split the message
    return ValueError(f"unknown key {path}{'.' if path else ''}{name}")


def _fields(obj, path: str, required, optional=()) -> dict:
    """obj as an object holding every required key and no key outside the schema."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must be an object")
    for key in obj:
        if key not in required and key not in optional:
            raise _unknown_key(path, key)
    for key in required:
        if key not in obj:
            raise ValueError(f"{path} section missing field {key!r}")
    return obj


def _number(value, path: str) -> float:
    """A JSON number (int or float, never a bool or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{path} is too large for a float") from None


def _integer(value, path: str) -> int:
    """A JSON integer; 256.0, "256" and true are refused, not coerced.

    At most 18 digits, the stream files' integer grammar, so every count a
    config sets can be written to a stream header and read back.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path} must be an integer, got {value!r}")
    if abs(value) >= 10**18:
        raise ValueError(f"{path} has more than 18 digits")
    return value


def _envelope_from_obj(obj):
    if obj == "uniform" or obj is None:
        return UniformEnvelope()
    if isinstance(obj, dict):
        kind = obj.get("type")
        if kind == "uniform":
            _fields(obj, "experiment.envelope", ("type",))
            return UniformEnvelope()
        if kind == "gaussian":
            _fields(obj, "experiment.envelope", ("type", "sigma"))
            return GaussianEnvelope(sigma=_number(obj["sigma"], "experiment.envelope.sigma"))
    raise ValueError(f"unsupported envelope description {obj!r}")


def _arm_from_dict(obj, path: str) -> ArmOptics:
    """An arm from its config section; a key left out takes ArmOptics' default."""
    obj = _fields(obj, path, ("tap_p",), _ARM_KEYS)
    if not isinstance(obj.get("splitter", True), bool):
        raise ValueError(f"{path}.splitter must be true or false, got {obj['splitter']!r}")
    return ArmOptics(
        **{
            field: obj[key] if key == "splitter" else _number(obj[key], f"{path}.{key}")
            for key, field in _ARM_KEYS.items()
            if key in obj
        }
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    doc = {
        "mode": config.mode,
        "geometry": _section(config.geometry, _GEOMETRY_KEYS),
        "envelope": _envelope_to_dict(config.envelope),
        "babu": _section(config.babu, _ARM_KEYS),
        "alisha": _section(config.alisha, _ARM_KEYS),
        "pair_rate_scale": config.pair_rate_scale,
    }
    if config.schedule is not None:
        doc["schedule"] = _section(config.schedule, _SCHEDULE_KEYS)
    return {"experiment": doc}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Read the config schema strictly.

    A key outside the schema, a missing field or a value of the wrong JSON
    type is an error that names its key path, e.g. experiment.babu.tapp.
    """
    if not isinstance(data, dict) or "experiment" not in data:
        raise ValueError("config must contain a top-level 'experiment' object")
    for key in data:
        if key != "experiment":
            raise _unknown_key("", key)
    keys = [f.name for f in fields(ExperimentConfig)]
    doc = _fields(data["experiment"], "experiment", ("geometry",), keys)
    geo = _fields(doc["geometry"], "experiment.geometry", _GEOMETRY_KEYS)
    n_bins = _integer(geo["n_bins"], "experiment.geometry.n_bins")
    if n_bins < 3:
        raise ValueError(
            "experiment.geometry.n_bins must be at least 3 "
            f"(the fringe fit has three parameters), got {n_bins}"
        )
    geometry = SlitScreenGeometry(
        **{
            field: n_bins if key == "n_bins" else _number(geo[key], f"experiment.geometry.{key}")
            for key, field in _GEOMETRY_KEYS.items()
        }
    )
    schedule = None
    if doc.get("schedule") is not None:
        sch = _fields(doc["schedule"], "experiment.schedule", _SCHEDULE_KEYS)
        if not isinstance(sch["bits"], list):
            raise ValueError("experiment.schedule.bits must be a list")
        schedule = SwitchSchedule(
            bits=tuple(
                _integer(b, f"experiment.schedule.bits[{i}]") for i, b in enumerate(sch["bits"])
            ),
            block_size=_integer(sch["block_size"], "experiment.schedule.block_size"),
        )
    return ExperimentConfig(
        mode=doc.get("mode", MODE_DOUBLE),
        geometry=geometry,
        envelope=_envelope_from_obj(doc.get("envelope")),
        babu=_arm_from_dict(doc.get("babu", {"tap_p": 0.5}), "experiment.babu"),
        alisha=_arm_from_dict(doc.get("alisha", {"tap_p": 0.5}), "experiment.alisha"),
        schedule=schedule,
        pair_rate_scale=_number(doc.get("pair_rate_scale", 1.0), "experiment.pair_rate_scale"),
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
# Closed-form references.
# ---------------------------------------------------------------------------


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
    table = single_distribution(config.geometry, config.envelope, config.babu)
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


def distribution_for(
    config: ExperimentConfig, splitter_present: bool | None = None
) -> CoincidenceDistribution:
    """Joint table for a two-idler config, optionally overriding babu's splitter."""
    if config.mode != MODE_DOUBLE:
        raise ValueError("joint tables exist only for double_delayed_choice configs")
    babu = config.babu
    if splitter_present is not None:
        babu = replace(babu, splitter_present=splitter_present)
    return joint_distribution(config.geometry, config.envelope, babu, config.alisha)
