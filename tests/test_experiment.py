import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qeraser.experiment import (
    DEFAULT_BITS,
    ExperimentConfig,
    MODE_DOUBLE,
    MODE_SINGLE,
    SwitchSchedule,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_config,
    default_geometry,
    distribution_for,
    ideal_rate,
    load_config,
    marginal_digest,
    nyquist_min_samples,
    save_config,
    single_choice_pattern,
)
from qeraser.optics import (
    ArmOptics,
    D1,
    D2,
    D3,
    GaussianEnvelope,
    SlitScreenGeometry,
    UniformEnvelope,
)

EXACT = 1e-12


# ---------------------------------------------------------------------------
# closed-form rates vs the amplitude machinery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("taps", [(0.5, 0.5), (0.0, 0.0), (0.3, 0.8)])
def test_ideal_rate_matches_joint_distribution(geom, envelope, taps):
    p, q = taps
    from qeraser.optics import joint_distribution

    dist = joint_distribution(geom, envelope, ArmOptics(p), ArmOptics(q))
    xs = geom.bin_centers
    for j in range(4):
        for k in range(4):
            ref = ideal_rate(j, k, xs, geom, tap_babu=p, tap_alisha=q)
            np.testing.assert_allclose(dist.pattern(j, k), ref, atol=EXACT)


def test_ideal_rate_validation(geom):
    with pytest.raises(ValueError, match="tap"):
        ideal_rate(D1, D1, 0.0, geom, tap_babu=1.2)
    with pytest.raises(ValueError, match="outside"):
        ideal_rate(D1, D1, geom.screen_width, geom)


# ---------------------------------------------------------------------------
# one-idler patterns
# ---------------------------------------------------------------------------


def test_single_patterns_trig_forms():
    cfg = default_config(MODE_SINGLE)
    g = cfg.geometry
    ph = g.phase(g.bin_centers)
    p1 = single_choice_pattern(D1, cfg)
    p2 = single_choice_pattern(D2, cfg)
    np.testing.assert_allclose(p1, np.sin(ph) ** 2 / g.n_bins, atol=EXACT)
    np.testing.assert_allclose(p2, np.cos(ph) ** 2 / g.n_bins, atol=EXACT)
    np.testing.assert_allclose(p1 + p2, 1.0 / g.n_bins, atol=EXACT)


def test_single_pattern_tap_invariant():
    # the tap thins the erased beam uniformly; the conditional shape is fixed
    base = default_config(MODE_SINGLE)
    import dataclasses

    thin = dataclasses.replace(base, babu=ArmOptics(tap_probability=0.9))
    np.testing.assert_allclose(
        single_choice_pattern(D1, base), single_choice_pattern(D1, thin), atol=EXACT
    )


def test_single_pattern_rejects_bad_requests():
    with pytest.raises(ValueError, match="single"):
        single_choice_pattern(D1, default_config(MODE_DOUBLE))
    with pytest.raises(ValueError, match="D1/D2"):
        single_choice_pattern(D3, default_config(MODE_SINGLE))
    import dataclasses

    starved = dataclasses.replace(
        default_config(MODE_SINGLE), babu=ArmOptics(tap_probability=1.0)
    )
    with pytest.raises(ValueError, match="tap"):
        single_choice_pattern(D1, starved)


# ---------------------------------------------------------------------------
# sampling bound
# ---------------------------------------------------------------------------


def test_nyquist_values():
    assert nyquist_min_samples(default_geometry()) == 10
    wide = SlitScreenGeometry(0.001, 7e-7, 1.0, 0.1, 256)
    assert nyquist_min_samples(wide) == 200
    square = SlitScreenGeometry(1e-3, 7e-7, 1.0, 1e-3, 16)
    assert nyquist_min_samples(square) == 2


def test_nyquist_rounds_up_fractions():
    g = SlitScreenGeometry(1e-3, 7e-7, 1.0, 2.6e-3, 16)  # 2L/d = 5.2
    assert nyquist_min_samples(g) == 6


def test_nyquist_immune_to_float_ulp():
    # 2 * 0.07 / 0.0007 evaluates to 200.00000000000003; ceil must not see 201
    high = SlitScreenGeometry(0.0007, 7e-7, 1.0, 0.07, 16)
    assert 2.0 * high.screen_width / high.slit_separation > 200.0
    assert nyquist_min_samples(high) == 200
    # and the ulp-low twin still rounds up to the true integer
    low = SlitScreenGeometry(0.001, 7e-7, 1.0, 0.35, 16)
    assert 2.0 * low.screen_width / low.slit_separation < 700.0
    assert nyquist_min_samples(low) == 700


@given(m=st.integers(min_value=1, max_value=10_000))
def test_nyquist_exact_integers(m):
    g = SlitScreenGeometry(2.0, 7e-7, 1.0, float(m), 4)
    assert nyquist_min_samples(g) == m


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        SwitchSchedule(bits=(0, 2), block_size=5)
    with pytest.raises(ValueError, match="block_size"):
        SwitchSchedule(bits=(1,), block_size=0)
    sch = SwitchSchedule(bits=(1, 0, 1), block_size=4)
    assert sch.n_triples == 12


def test_default_bits_balanced():
    assert len(DEFAULT_BITS) == 20
    assert sum(DEFAULT_BITS) == 10


# ---------------------------------------------------------------------------
# config round-trips and digests
# ---------------------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = default_config()
    path = tmp_path / "c.json"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_config_roundtrip_gaussian(tmp_path):
    import dataclasses

    cfg = dataclasses.replace(default_config(), envelope=GaussianEnvelope(2e-3))
    path = tmp_path / "g.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_envelope_shorthand():
    doc = config_to_dict(default_config())
    doc["experiment"]["envelope"] = "uniform"
    assert config_from_dict(doc).envelope == UniformEnvelope()


def test_config_digest_tracks_babu_marginal_digest_does_not():
    cfg = default_config()
    doc = config_to_dict(cfg)
    doc["experiment"]["babu"]["splitter"] = False
    toggled = config_from_dict(doc)
    assert config_digest(toggled) != config_digest(cfg)
    assert marginal_digest(toggled) == marginal_digest(cfg)
    doc["experiment"]["alisha"]["tap_p"] = 0.25
    moved = config_from_dict(doc)
    assert marginal_digest(moved) != marginal_digest(cfg)


def test_config_from_dict_errors():
    with pytest.raises(ValueError, match="experiment"):
        config_from_dict({})
    with pytest.raises(ValueError, match="geometry"):
        config_from_dict({"experiment": {"mode": MODE_DOUBLE}})
    doc = config_to_dict(default_config())
    doc["experiment"]["envelope"] = {"type": "gaussian"}
    with pytest.raises(ValueError, match="sigma"):
        config_from_dict(doc)
    doc = config_to_dict(default_config())
    doc["experiment"]["mode"] = "triple_delayed_choice"
    with pytest.raises(ValueError, match="mode"):
        config_from_dict(doc)


def mutated(path: str, value):
    """The default config document with the value at a dotted key path set."""
    doc = config_to_dict(default_config())
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "path",
    [
        "extra",
        "experiment.seed",
        "experiment.geometry.width",
        "experiment.envelope.sigma",
        "experiment.babu.tapp",
        "experiment.alisha.phase",
        "experiment.schedule.repeat",
    ],
)
def test_config_rejects_unknown_keys(path):
    with pytest.raises(ValueError, match=f"^unknown key {path}$"):
        config_from_dict(mutated(path, 0.9))


def test_config_rejects_unknown_gaussian_key():
    doc = mutated("experiment.envelope", {"type": "gaussian", "sigma": 2e-3, "mu": 0.0})
    with pytest.raises(ValueError, match="unknown key experiment.envelope.mu"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        ("experiment.babu.tap_p", "0.5"),
        ("experiment.alisha.theta", None),
        ("experiment.babu.chi", [0.0]),
        ("experiment.geometry.d", True),
        ("experiment.geometry.lambda", "7e-07"),
        ("experiment.pair_rate_scale", "1"),
        ("experiment.envelope", {"type": "gaussian", "sigma": "0.002"}),
    ],
)
def test_config_numbers_must_be_json_numbers(path, value):
    where = "experiment.envelope.sigma" if path == "experiment.envelope" else path
    with pytest.raises(ValueError, match=f"{where} must be a number"):
        config_from_dict(mutated(path, value))


@pytest.mark.parametrize(
    "path, value",
    [
        ("experiment.geometry.n_bins", 256.7),
        ("experiment.geometry.n_bins", 256.0),
        ("experiment.geometry.n_bins", "256"),
        ("experiment.schedule.block_size", 10000.0),
        ("experiment.schedule.block_size", True),
        ("experiment.schedule.bits", [1, 0, "1"]),
        ("experiment.schedule.bits", [1, 0.0]),
    ],
)
def test_config_counts_must_be_json_integers(path, value):
    with pytest.raises(ValueError, match=r"must be an integer"):
        config_from_dict(mutated(path, value))


def test_config_bits_must_be_a_list():
    with pytest.raises(ValueError, match="bits must be a list"):
        config_from_dict(mutated("experiment.schedule.bits", "1011"))


def test_config_integer_numbers_accepted():
    # a JSON integer is a number: "tap_p": 1 reads as 1.0
    cfg = config_from_dict(mutated("experiment.babu.tap_p", 1))
    assert cfg.babu.tap_probability == 1.0
    assert config_digest(cfg) == config_digest(config_from_dict(mutated("experiment.babu.tap_p", 1.0)))


def test_config_huge_integer_is_a_value_error():
    with pytest.raises(ValueError, match="too large"):
        config_from_dict(mutated("experiment.geometry.L", 10**400))


def test_save_config_canonical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_config(default_config(), a)
    save_config(default_config(), b)
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # stays plain JSON


def test_distribution_for_override():
    cfg = default_config()
    with_split = distribution_for(cfg, splitter_present=True)
    without = distribution_for(cfg, splitter_present=False)
    # fringe peak minus flat level: (1-p)(1-q)/(4n) per cell at the default taps
    assert abs(np.abs(with_split.probs - without.probs).max() - 0.25 / (4 * 256)) <= EXACT
    with pytest.raises(ValueError, match="double"):
        distribution_for(default_config(MODE_SINGLE))


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(
            mode="bogus",
            geometry=default_geometry(),
            envelope=UniformEnvelope(),
            babu=ArmOptics(0.5),
            alisha=ArmOptics(0.5),
        )
    with pytest.raises(ValueError, match="pair_rate_scale"):
        ExperimentConfig(
            mode=MODE_DOUBLE,
            geometry=default_geometry(),
            envelope=UniformEnvelope(),
            babu=ArmOptics(0.5),
            alisha=ArmOptics(0.5),
            pair_rate_scale=0.0,
        )
