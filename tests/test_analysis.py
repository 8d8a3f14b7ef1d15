import math
import warnings

import numpy as np
import pytest

from qeraser.analysis import (
    ChiSquareResult,
    FringeFit,
    LowSampleWarning,
    alisha_observable_cells,
    build_histogram,
    chi_square_fit,
    classify_pattern,
    decode_alisha_only,
    decode_omniscient,
    fit_fringe,
    mutual_information,
    omniscient_observable_cells,
    schedule_bit_labels,
    write_decode_csv,
    write_fit_csv,
    write_histogram_csv,
)
from qeraser.events import TripleBatch, sample_triples
from qeraser.experiment import SwitchSchedule, default_geometry, nyquist_min_samples

from conftest import make_config

EXACT = 1e-12


def cosine_counts(geom, scale, phase=0.0, vis=1.0):
    u = geom.fringe_frequency * geom.bin_centers
    return scale * (1.0 + vis * np.cos(u - phase))


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def batch(x, j, k, blocks=None):
    n = len(x)
    return TripleBatch(
        triple_id=np.arange(n),
        x_bin=x,
        babu=j,
        alisha=k,
        block_index=np.zeros(n, dtype=int) if blocks is None else blocks,
    )


def test_histogram_partition(small_config):
    tr = sample_triples(small_config, seed=0)
    n_bins = small_config.geometry.n_bins
    whole = build_histogram(tr, n_bins)
    parts = sum(
        build_histogram(tr, n_bins, babu=j, alisha=k).counts
        for j in range(4)
        for k in range(4)
    )
    np.testing.assert_array_equal(whole.counts, parts)
    np.testing.assert_array_equal(whole.counts, np.bincount(tr.x_bin, minlength=n_bins))
    assert whole.selector == "all"


def test_histogram_filters():
    tr = batch(
        x=[0, 1, 2, 3, 0, 1],
        j=[0, 0, 1, 1, 2, 3],
        k=[0, 1, 0, 1, 0, 1],
        blocks=np.array([0, 0, 0, 1, 1, 1]),
    )
    h = build_histogram(tr, 4, babu={0, 1}, alisha=1, block=0)
    np.testing.assert_array_equal(h.counts, [0, 1, 0, 0])
    assert h.selector == "babu=D1+D2 alisha=D2' block=[0]"


def test_histogram_rejects_out_of_range():
    tr = batch(x=[5], j=[0], k=[0])
    with pytest.raises(ValueError, match="binning"):
        build_histogram(tr, 4)


# ---------------------------------------------------------------------------
# fringe fits
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_model(geom):
    for phase, vis in ((0.0, 1.0), (math.pi, 1.0), (0.8, 0.4), (-2.0, 0.05)):
        fit = fit_fringe(cosine_counts(geom, 500.0, phase, vis), geom)
        assert abs(fit.visibility - vis) <= 1e-9
        assert abs(fit.mean_level - 500.0) <= 1e-6
        # phases compare on the circle
        d = (fit.phase - phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(d) <= 1e-9


def test_fit_flat_input(geom):
    fit = fit_fringe(np.full(geom.n_bins, 250.0), geom)
    assert fit.visibility <= EXACT
    assert abs(fit.mean_level - 250.0) <= 1e-9


def test_fit_histogram_input(geom):
    counts = np.rint(cosine_counts(geom, 300.0)).astype(int)
    from qeraser.analysis import Histogram

    fit = fit_fringe(Histogram(counts=counts, selector="t"), geom)
    assert fit.visibility > 0.99


def test_fit_rejects_bad_input(geom):
    with pytest.raises(ValueError, match="empty"):
        fit_fringe(np.zeros(geom.n_bins), geom)
    with pytest.raises(ValueError, match="length"):
        fit_fringe(np.ones(10), geom)


def test_fit_low_sample_warning(geom):
    bound = nyquist_min_samples(geom)
    thin = np.zeros(geom.n_bins)
    thin[:bound - 1] = 1.0
    with pytest.warns(LowSampleWarning):
        fit_fringe(thin, geom)
    enough = np.zeros(geom.n_bins)
    enough[:bound] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", LowSampleWarning)
        fit_fringe(enough, geom)  # exactly at the bound: no warning


def test_fit_error_bar_calibration(geom):
    """Poisson scatter around a known fringe: the fitted amplitude should
    land within a few standard errors of the truth."""
    rng = np.random.default_rng(8)
    truth = cosine_counts(geom, 40.0, 0.3, 0.7)
    fit = fit_fringe(rng.poisson(truth).astype(float), geom)
    assert abs(fit.amplitude - 40.0 * 0.7) <= 4 * fit.standard_error
    assert fit.significant


def test_classify_boundaries():
    strong = FringeFit(100.0, 80.0, 0.0, 0.8, 1.0)
    weak_vis = FringeFit(100.0, 30.0, 0.0, 0.3, 1.0)
    insignificant = FringeFit(100.0, 80.0, 0.0, 0.8, 50.0)
    assert classify_pattern(strong) == "interference"
    assert classify_pattern(weak_vis) == "clump"
    assert classify_pattern(insignificant) == "clump"
    assert classify_pattern(weak_vis, visibility_threshold=0.2) == "interference"


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def test_decode_omniscient_reads_schedule():
    cfg = make_config(bits=(1, 0, 0, 1, 1, 0), block_size=2000)
    tr = sample_triples(cfg, seed=0)
    report = decode_omniscient(tr, cfg.schedule, cfg.geometry)
    assert report.decoded_bits == (1, 0, 0, 1, 1, 0)
    assert report.bit_error_rate == 0.0
    assert report.confidence == 1.0
    assert report.selector == "omniscient"


def test_decode_alisha_sees_nothing():
    cfg = make_config(bits=(1, 0, 1, 0, 1, 0), block_size=2000)
    tr = sample_triples(cfg, seed=0)
    report = decode_alisha_only(tr, cfg.schedule, cfg.geometry)
    assert report.decoded_bits == (0,) * 6
    assert report.bit_error_rate == 0.5


def test_decode_alisha_identical_across_schedules():
    """The screen-side report must not budge when the payload flips."""
    a = make_config(bits=(0,) * 5, block_size=1500)
    b = make_config(bits=(1,) * 5, block_size=1500)
    ra = decode_alisha_only(sample_triples(a, seed=4), a.schedule, a.geometry)
    rb = decode_alisha_only(sample_triples(b, seed=4), b.schedule, b.geometry)
    assert ra.decoded_bits == rb.decoded_bits
    assert ra.per_block_visibility == rb.per_block_visibility
    assert ra.per_block_stderr == rb.per_block_stderr


def test_decode_warns_on_thin_blocks(geom):
    sch = SwitchSchedule(bits=(1, 1), block_size=5)
    bound = nyquist_min_samples(geom)
    assert 5 < bound  # the premise of this test
    tr = batch(
        x=list(range(10)),
        j=[0] * 10,
        k=[0] * 10,
        blocks=np.repeat([0, 1], 5),
    )
    with pytest.warns(LowSampleWarning, match=r"blocks \[0, 1\]"):
        report = decode_omniscient(tr, sch, geom)
    assert report.confidence == 0.0


def test_decode_empty_block_is_zero_bit(geom):
    sch = SwitchSchedule(bits=(1, 1), block_size=100)
    x = np.arange(100) % geom.n_bins
    tr = batch(x=x, j=[0] * 100, k=[0] * 100, blocks=np.zeros(100, dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        report = decode_omniscient(tr, sch, geom)
    assert report.decoded_bits[1] == 0
    assert report.per_block_visibility[1] == 0.0
    assert math.isinf(report.per_block_stderr[1])


@pytest.mark.parametrize("block", [4, -1])
def test_decode_rejects_out_of_schedule_block(geom, block):
    tr = batch(x=np.arange(6), j=[0] * 6, k=[0] * 6, blocks=[0, 1, block, 2, block, 3])
    schedule = SwitchSchedule(bits=(1, 0, 1, 0), block_size=2)
    for decode in (decode_omniscient, decode_alisha_only):
        with pytest.raises(ValueError, match=rf"block index {block} is outside"):
            decode(tr, schedule, geom)


# ---------------------------------------------------------------------------
# information accounting
# ---------------------------------------------------------------------------


def test_mi_bias_bound_frozen():
    labels = np.arange(200_000) % 2
    cells = np.arange(200_000) % 1024
    est = mutual_information(labels, cells)
    assert est.n_labels == 2 and est.n_cells == 1024
    assert abs(est.bias_bound - 0.003689692567073524) <= 1e-15


def test_mi_deterministic_dependence_is_one_bit():
    cells = np.arange(4096)
    labels = cells % 2
    est = mutual_information(labels, cells % 64)
    assert abs(est.mi_bits - 1.0) <= EXACT


def test_mi_independent_stays_below_bias_bound():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 50_000)
    cells = rng.integers(0, 64, 50_000)
    est = mutual_information(labels, cells)
    assert est.mi_bits <= est.bias_bound


def test_mi_monotone_under_coarsening():
    """Merging cells can only destroy information about the label."""
    cfg = make_config(bits=(1, 0, 1, 0), block_size=5000)
    tr = sample_triples(cfg, seed=0)
    bits = schedule_bit_labels(tr, cfg.schedule)
    fine = mutual_information(bits, omniscient_observable_cells(tr))
    coarse = mutual_information(bits, alisha_observable_cells(tr))
    assert fine.mi_bits > coarse.mi_bits


def test_mi_validation():
    with pytest.raises(ValueError, match="matching"):
        mutual_information([0, 1], [0])
    with pytest.raises(ValueError, match="samples"):
        mutual_information([], [])
    with pytest.raises(ValueError, match="labels"):
        mutual_information([1, 1, 1], [0, 1, 2])


def test_schedule_bit_labels_roundtrip():
    cfg = make_config(bits=(1, 0, 1), block_size=10)
    tr = sample_triples(cfg, seed=0)
    bits = schedule_bit_labels(tr, cfg.schedule)
    np.testing.assert_array_equal(bits, np.repeat([1, 0, 1], 10))
    with pytest.raises(ValueError, match="outside"):
        schedule_bit_labels(tr, SwitchSchedule(bits=(1,), block_size=10))


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def test_chi_square_exact_proportions():
    probs = np.array([0.5, 0.3, 0.2])
    res = chi_square_fit(probs * 1000, probs)
    assert res.statistic <= EXACT
    assert res.pvalue > 0.999


def test_chi_square_detects_wrong_law():
    rng = np.random.default_rng(0)
    probs = np.full(16, 1 / 16)
    skewed = rng.multinomial(10_000, np.linspace(1, 3, 16) / np.linspace(1, 3, 16).sum())
    assert chi_square_fit(skewed, probs).pvalue < 1e-6


def test_chi_square_impossible_cell():
    res = chi_square_fit([10, 5, 1], [0.7, 0.3, 0.0])
    assert res.pvalue == 0.0
    assert math.isinf(res.statistic)


def test_chi_square_pools_thin_cells():
    # two cells expect 2.5 counts each and must be pooled into one bucket
    probs = np.array([0.4975, 0.4975, 0.0025, 0.0025])
    obs = np.array([497.0, 498.0, 3.0, 2.0])
    res = chi_square_fit(obs, probs)
    assert res.n_cells_used == 3
    assert res.dof == 2
    assert isinstance(res, ChiSquareResult)


def test_chi_square_validation():
    with pytest.raises(ValueError, match="shape"):
        chi_square_fit([1, 2], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="observations"):
        chi_square_fit([0, 0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# table writers
# ---------------------------------------------------------------------------


def test_writers_byte_stable(tmp_path, geom):
    counts = np.rint(cosine_counts(geom, 120.0)).astype(int)
    from qeraser.analysis import Histogram

    hist = Histogram(counts=counts, selector="babu=D1 alisha=D1'")
    fit = fit_fringe(hist, geom)
    cfg = make_config(bits=(1, 0), block_size=50)
    tr = sample_triples(cfg, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        report = decode_omniscient(tr, cfg.schedule, cfg.geometry)

    for name, write in (
        ("hist", lambda p: write_histogram_csv(p, hist, geom, {"seed": 0})),
        ("fit", lambda p: write_fit_csv(p, fit, {"seed": 0})),
        ("dec", lambda p: write_decode_csv(p, report, {"seed": 0})),
    ):
        p1, p2 = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        write(p1)
        write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("# tool_version=")
        assert "# columns=" in text
