import math

import pytest

from qeraser.experiment import (
    ExperimentConfig,
    MODE_DOUBLE,
    SwitchSchedule,
    default_config,
    default_geometry,
)
from qeraser.optics import ArmOptics, SlitScreenGeometry, UniformEnvelope


@pytest.fixture
def geom():
    return default_geometry()


@pytest.fixture
def small_geom():
    # 32 bins keeps brute-force oracles cheap; still several fringe periods
    return SlitScreenGeometry(
        slit_separation=1.0e-3,
        wavelength=7.0e-7,
        focal_length=1.0,
        screen_width=5.0e-3,
        n_bins=32,
    )


@pytest.fixture
def envelope():
    return UniformEnvelope()


@pytest.fixture
def balanced_arm():
    return ArmOptics(tap_probability=0.5)


@pytest.fixture
def config():
    return default_config()


def make_config(bits, block_size, tap_babu=0.5, tap_alisha=0.5) -> ExperimentConfig:
    return ExperimentConfig(
        mode=MODE_DOUBLE,
        geometry=default_geometry(),
        envelope=UniformEnvelope(),
        babu=ArmOptics(tap_probability=tap_babu),
        alisha=ArmOptics(tap_probability=tap_alisha),
        schedule=SwitchSchedule(bits=tuple(bits), block_size=block_size),
    )


@pytest.fixture
def small_config():
    return make_config(bits=(1, 0, 1, 0), block_size=2000)


def angle_pairs(rng, n):
    """Random (theta, chi) draws covering the full splitter family."""
    return zip(
        rng.uniform(0.0, 2.0 * math.pi, n),
        rng.uniform(0.0, 2.0 * math.pi, n),
    )
