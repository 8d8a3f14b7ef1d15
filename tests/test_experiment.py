import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeraser import cli
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


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("experiment.geometry.n_bins", 10**18, "experiment.geometry.n_bins has more than 18 digits"),
        ("experiment.schedule.block_size", -(10**30), "experiment.schedule.block_size has more than 18 digits"),
        ("experiment.geometry.n_bins", 65_537, "n_bins must be between 1 and 65536, got 65537"),
        ("experiment.geometry.d", 10**308, "screen phase overflows: d * L / (lambda * f) is too large"),
        ("experiment.babu.tapp\nx", 1, "unknown key experiment.babu.'tapp\\nx'"),
    ],
)
def test_config_bounds_and_printable_messages(path, value, message):
    with pytest.raises(ValueError) as caught:
        config_from_dict(mutated(path, value))
    assert str(caught.value) == message


@pytest.mark.parametrize("n_bins", [1, 2])
def test_config_refuses_fewer_bins_than_fringe_parameters(tmp_path, n_bins):
    path = tmp_path / "few.json"
    path.write_text(json.dumps(mutated("experiment.geometry.n_bins", n_bins)))
    with pytest.raises(ValueError) as caught:
        load_config(path)
    assert str(caught.value) == (
        "experiment.geometry.n_bins must be at least 3 "
        f"(the fringe fit has three parameters), got {n_bins}"
    )
    assert config_from_dict(mutated("experiment.geometry.n_bins", 3)).geometry.n_bins == 3


def test_config_largest_accepted_counts():
    cfg = config_from_dict(mutated("experiment.geometry.n_bins", 65_536))
    assert cfg.geometry.n_bins == 65_536
    cfg = config_from_dict(mutated("experiment.schedule.block_size", 10**18 - 1))
    assert cfg.schedule.block_size == 10**18 - 1


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


# ---------------------------------------------------------------------------
# config fuzz: every malformed document is one ValueError line, patterns exit 2
# ---------------------------------------------------------------------------

SECTIONS = {
    "": ("experiment",),
    "experiment": ("mode", "geometry", "envelope", "babu", "alisha", "schedule", "pair_rate_scale"),
    "experiment.geometry": ("d", "lambda", "f", "L", "n_bins"),
    "experiment.envelope": ("type", "sigma"),
    "experiment.babu": ("tap_p", "splitter", "theta", "chi"),
    "experiment.alisha": ("tap_p", "splitter", "theta", "chi"),
    "experiment.schedule": ("bits", "block_size"),
}
ARM_NUMBERS = [f"experiment.{arm}.{key}" for arm in ("babu", "alisha") for key in ("tap_p", "theta", "chi")]
GEOMETRY_NUMBERS = [f"experiment.geometry.{key}" for key in ("d", "lambda", "f", "L")]
NUMBERS = GEOMETRY_NUMBERS + ARM_NUMBERS + ["experiment.pair_rate_scale", "experiment.envelope.sigma"]
INTEGERS = ["experiment.geometry.n_bins", "experiment.schedule.block_size", "experiment.schedule.bits.3"]
REQUIRED = ["experiment", "experiment.geometry", "experiment.babu.tap_p", "experiment.alisha.tap_p",
            "experiment.schedule.bits", "experiment.schedule.block_size", "experiment.envelope.sigma"]
REQUIRED += GEOMETRY_NUMBERS + ["experiment.geometry.n_bins"]

json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
not_a_number = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8), st.lists(json_leaf, max_size=2),
    st.dictionaries(st.text(max_size=4), json_leaf, max_size=2),
)
huge = st.integers(min_value=10**18, max_value=10**1000)


def fuzz_base():
    """The default document with a Gaussian envelope, so every key path exists."""
    doc = config_to_dict(default_config())
    doc["experiment"]["envelope"] = {"type": "gaussian", "sigma": 2e-3}
    return doc


def node_at(doc, path: str):
    """(container, key) of a dotted path; a digit part indexes a list."""
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, int(last) if isinstance(node, list) else last


@st.composite
def malformed_documents(draw):
    """A valid document with one change that makes it malformed."""
    doc = fuzz_base()
    kind = draw(st.sampled_from(
        ["type", "integer_type", "bool_type", "mode", "section", "unknown", "huge_integer",
         "huge_number", "nonfinite", "missing"]
    ))
    if kind == "type":
        node, key = node_at(doc, draw(st.sampled_from(NUMBERS)))
        node[key] = draw(not_a_number)
    elif kind == "integer_type":
        node, key = node_at(doc, draw(st.sampled_from(INTEGERS)))
        node[key] = draw(not_a_number | st.floats())
    elif kind == "bool_type":
        node, key = node_at(doc, draw(st.sampled_from(["experiment.babu.splitter", "experiment.alisha.splitter"])))
        node[key] = draw(st.one_of(st.integers(), st.floats(), st.text(max_size=6), st.none()))
    elif kind == "mode":
        doc["experiment"]["mode"] = draw(json_value.filter(lambda v: v not in (MODE_DOUBLE, MODE_SINGLE)))
    elif kind == "section":
        node, key = node_at(doc, draw(st.sampled_from(list(SECTIONS)[1:])))
        allowed_none = key in ("envelope", "schedule", "babu", "alisha")
        node[key] = draw(json_leaf.filter(lambda v: not (v is None and allowed_none) and v != "uniform")
                         | st.lists(json_leaf, max_size=2))
    elif kind == "unknown":
        section = draw(st.sampled_from(list(SECTIONS)))
        node = doc if section == "" else node_at(doc, section)[0][section.split(".")[-1]]
        node[draw(st.text(max_size=10).filter(lambda k: k not in SECTIONS[section]))] = draw(json_value)
    elif kind == "huge_integer":
        node, key = node_at(doc, draw(st.sampled_from(INTEGERS + ARM_NUMBERS[:1] + ARM_NUMBERS[3:4])))
        node[key] = draw(huge) * draw(st.sampled_from([1, -1]))
    elif kind == "huge_number":
        node, key = node_at(doc, draw(st.sampled_from(NUMBERS)))
        node[key] = draw(st.integers(min_value=10**309, max_value=10**1000)) * draw(st.sampled_from([1, -1]))
    elif kind == "nonfinite":
        node, key = node_at(doc, draw(st.sampled_from(NUMBERS)))
        node[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    else:
        node, key = node_at(doc, draw(st.sampled_from(REQUIRED)))
        del node[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=malformed_documents())
def test_malformed_config_is_one_value_error_line(doc):
    with pytest.raises(ValueError) as caught:
        config_from_dict(doc)
    message = str(caught.value)
    assert message and "\n" not in message


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_json_value_anywhere_reads_or_is_one_value_error_line(data):
    """Any JSON value put at any key path gives a config or a one-line ValueError."""
    doc = fuzz_base()
    paths = [f"{s}.{k}".lstrip(".") for s, keys in SECTIONS.items() for k in keys] + ["experiment.schedule.bits.0"]
    node, key = node_at(doc, data.draw(st.sampled_from(paths)))
    node[key] = data.draw(json_value | huge | st.floats())
    try:
        config_from_dict(doc)
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc)


@settings(max_examples=40, deadline=None)
@given(doc=malformed_documents())
def test_patterns_exits_2_on_malformed_config(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["patterns", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 2
        assert stderr.getvalue().startswith(f"qeraser: invalid config {path}: ")
        assert stderr.getvalue().count("\n") == 1
        assert not (Path(tmp) / "out").exists()
