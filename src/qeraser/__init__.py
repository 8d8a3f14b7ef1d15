"""Coincidence simulator and analysis kit for delayed-choice eraser optics.

The package splits into four layers:

- optics: exact amplitudes and probability tables for the two-path
  interferometer with tap couplers and removable recombiners
- experiment: run configuration, serialisation, closed-form references
- events: seeded sampling, time-tagged event streams, coincidence matching
- analysis: fringe fitting, per-block decoding, information-rate estimates
"""

__version__ = "0.1.0"

from .optics import (
    ALISHA_LABELS,
    ArmOptics,
    BABU_LABELS,
    BeamSplitterUnitary,
    CoincidenceDistribution,
    GaussianEnvelope,
    IDENTITY_SPLITTER,
    SlitScreenGeometry,
    UniformEnvelope,
    arm_amplitudes,
    interference_coefficient,
    joint_distribution,
    screen_marginal,
    single_distribution,
    unitary_from_angle,
)
from .experiment import (
    ExperimentConfig,
    MODE_DOUBLE,
    MODE_SINGLE,
    SwitchSchedule,
    config_digest,
    default_config,
    default_geometry,
    load_config,
    nyquist_min_samples,
    save_config,
)
from .events import (
    EventStream,
    SimStreamHeader,
    TripleBatch,
    emit_events,
    inject_background,
    match_coincidences,
    read_event_log,
    read_triples,
    sample_triples,
    write_event_log,
    write_triples,
)
from .analysis import (
    DecodeReport,
    FringeFit,
    LowSampleWarning,
    MIEstimate,
    build_histogram,
    chi_square_fit,
    classify_pattern,
    decode_alisha_only,
    decode_omniscient,
    fit_fringe,
    mutual_information,
)

__all__ = [
    "__version__",
    "ALISHA_LABELS",
    "ArmOptics",
    "BABU_LABELS",
    "BeamSplitterUnitary",
    "CoincidenceDistribution",
    "DecodeReport",
    "EventStream",
    "ExperimentConfig",
    "FringeFit",
    "GaussianEnvelope",
    "IDENTITY_SPLITTER",
    "LowSampleWarning",
    "MIEstimate",
    "MODE_DOUBLE",
    "MODE_SINGLE",
    "SimStreamHeader",
    "SlitScreenGeometry",
    "SwitchSchedule",
    "TripleBatch",
    "UniformEnvelope",
    "arm_amplitudes",
    "build_histogram",
    "chi_square_fit",
    "classify_pattern",
    "config_digest",
    "decode_alisha_only",
    "decode_omniscient",
    "default_config",
    "default_geometry",
    "emit_events",
    "fit_fringe",
    "inject_background",
    "interference_coefficient",
    "joint_distribution",
    "load_config",
    "match_coincidences",
    "mutual_information",
    "nyquist_min_samples",
    "read_event_log",
    "read_triples",
    "sample_triples",
    "save_config",
    "screen_marginal",
    "single_distribution",
    "unitary_from_angle",
    "write_event_log",
    "write_triples",
]
