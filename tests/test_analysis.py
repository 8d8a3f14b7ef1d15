import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    fit_fringes,
    fringe_design,
    fringe_shape,
    mutual_information,
    omniscient_observable_cells,
    schedule_bit_labels,
    solve_normal,
    unit_variance_fit,
    _write_table,
    write_decode_csv,
)
from qeraser.events import TripleBatch, sample_triples
from qeraser.experiment import SwitchSchedule, default_geometry, nyquist_min_samples
from qeraser.optics import ArmOptics, SlitScreenGeometry, UniformEnvelope, joint_distribution, table

from conftest import make_config
from oracles import fit_fringe_one, solve_normal_floats, table_floats

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
        build_histogram(tr, n_bins, babu=j, alisha=k)
        for j in range(4)
        for k in range(4)
    )
    np.testing.assert_array_equal(whole, parts)
    np.testing.assert_array_equal(whole, np.bincount(tr.x_bin, minlength=n_bins))


def test_histogram_filters():
    tr = batch(
        x=[0, 1, 2, 3, 0, 1],
        j=[0, 0, 1, 1, 2, 3],
        k=[0, 1, 0, 1, 0, 1],
        blocks=np.array([0, 0, 0, 1, 1, 1]),
    )
    with pytest.raises(TypeError):
        build_histogram(tr, 4, babu={0, 1})  # one index per filter; a set is refused


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
    fit = fit_fringe(counts, geom)
    assert fit.visibility > 0.99


def test_fit_rejects_bad_input(geom):
    with pytest.raises(ValueError, match="empty"):
        fit_fringe(np.zeros(geom.n_bins), geom)
    with pytest.raises(ValueError, match="length"):
        fit_fringe(np.ones(10), geom)


@pytest.mark.parametrize("d", [7e-211, 1e-9])
def test_fit_refuses_a_screen_too_narrow_for_a_fringe(d):
    """cos u rounds to 1 at every bin, so the normal equations' second pivot is 0: no 0/0 warning."""
    geom = SlitScreenGeometry(d, 7e-7, 1.0, 5e-3, 16)
    for rows in ([np.full(16, 10.0)], np.full((3, 16), 10.0)):
        with pytest.raises(ValueError, match="^the fringe fit is singular"):
            fit_fringes(rows, geom)
    with pytest.raises(ValueError, match="^the fringe fit is singular"):
        unit_variance_fit(np.full(16, 1 / 16), geom)


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


FIT_BINS = [3, 8, 32, 256]


def fit_geom(n_bins):
    return SlitScreenGeometry(1.0e-3, 7.0e-7, 1.0, 5.0e-3, n_bins)


def fit_rows(geom, rng, n_tables=12, n_counts=4):
    """Rows to fit: strided table views, their copies, Poisson counts as ints and floats."""
    rows = []
    for _ in range(n_tables):
        babu = ArmOptics(rng.uniform(), bool(rng.integers(2)), rng.uniform(0, 3), rng.uniform(0, 6))
        alisha = ArmOptics(rng.uniform(), True, rng.uniform(0, 3), rng.uniform(0, 6))
        dist = joint_distribution(geom, UniformEnvelope(), babu, alisha)
        views = [dist.pattern(j, k) for j in range(2) for k in range(2)]
        views += list(dist.alisha_marginal().T)
        rows += [v for v in views if v.sum() > 0.0]
    rows += [row.copy() for row in rows]
    for _ in range(n_counts):
        scale = 10.0 ** rng.uniform(-0.5, 3.0)
        counts = rng.poisson(cosine_counts(geom, scale, rng.uniform(-3, 3), rng.uniform()))
        rows += [counts, counts.astype(float)] if counts.any() else []
    return rows + [np.ones(geom.n_bins)]


def variance_edge_rows():
    """3-bin rows just either side of the norms at which Poisson variances start to exceed 1.

    On 3 bins the design is square, so the first-pass model is the row
    itself: rows of norm just over 1 already hold a bin whose variance is
    above 1, where a unit-variance fit would weight it wrongly.
    """
    unit = np.array([0.05, 1.0, 0.1])
    unit /= math.sqrt(float((unit * unit).sum()))
    rows = []
    for norm in (0.5, 1.0, 1.5, 4.0):
        for step in (-2, -1, 0, 1, 2):
            scale = norm
            for _ in range(abs(step)):
                scale = np.nextafter(scale, np.inf if step > 0 else -np.inf)
            rows.append(unit * scale)
    return rows + [unit * f for f in (0.49, 0.51, 0.99, 1.01, 1.2)]


@settings(max_examples=40, deadline=None)
@given(
    n_bins=st.sampled_from(FIT_BINS),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["list", "array", "strided array", "strided rows"]),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
)
def test_a_row_fits_the_same_in_any_stack(n_bins, seed, layout, picks):
    """fit_fringes of a stack equals each row fitted alone as a contiguous copy, to the last bit."""
    geom = fit_geom(n_bins)
    pool = fit_rows(geom, np.random.default_rng(seed), n_tables=2)
    pool += variance_edge_rows() if n_bins == 3 else []
    rows = [pool[i % len(pool)] for i in picks]
    if layout == "array":
        rows = np.array(rows, dtype=float)
    elif layout == "strided array":  # every row a strided view
        rows = np.asfortranarray(np.array(rows, dtype=float))
    elif layout == "strided rows":
        rows = [np.stack([row, row], axis=-1)[:, 1] for row in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        stacked = fit_fringes(rows, geom)
        alone = [fit_fringes([np.array(row, dtype=float)], geom)[0] for row in rows]
    assert stacked == alone  # every field, to the last bit


@pytest.mark.parametrize("n_bins", FIT_BINS)
def test_fit_fringes_agrees_with_the_lapack_fit(n_bins):
    """The stacked fit against the one-histogram lstsq/solve/inv oracle, within rounding.

    c0 and the amplitude agree to 1e-13 of the row's scale, the larger of
    |c0| and the amplitude, and the visibility to 1e-13.
    Where the oracle's amplitude is rounding noise, the fringe has no
    direction, so the error bar's branch may flip ([1, 1, 1] on 3 bins
    gives 1.0618 here and 1.3237 there); elsewhere the error bars agree to
    1e-12 relative.
    """
    geom = fit_geom(n_bins)
    rows = fit_rows(geom, np.random.default_rng(n_bins), n_tables=40, n_counts=120)
    if n_bins == 3:  # the edge rows straddle the norms at which a variance leaves 1
        edges = variance_edge_rows()
        models = table(unit_variance_fit(edges, geom).T, fringe_design(geom))
        assert 10 <= (models.max(axis=1) > 1.0).sum() < len(edges)
        rows += edges
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        fits = fit_fringes(rows, geom)
        expected = [fit_fringe_one(row, geom) for row in rows]
    compared = 0
    for fit, ref in zip(fits, expected):
        scale = max(abs(ref.mean_level), ref.amplitude)
        assert abs(fit.mean_level - ref.mean_level) <= 1e-13 * scale
        assert abs(fit.amplitude - ref.amplitude) <= 1e-13 * scale
        assert abs(fit.visibility - ref.visibility) <= 1e-13
        if ref.amplitude > 1e-12 * scale:
            assert abs(fit.standard_error - ref.standard_error) <= 1e-12 * ref.standard_error
            compared += 1
    assert compared >= len(rows) // 3


@settings(max_examples=200, deadline=None)
@given(
    systems=st.lists(
        st.tuples(
            st.lists(st.floats(0.1, 1e3), min_size=3, max_size=3),  # diagonal of L
            st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),  # below it
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),  # right-hand side
        ),
        min_size=1,
        max_size=8,
    )
)
def test_solve_normal_equals_the_float_oracle(systems):
    """Stacked systems L L^T x = b, solved elementwise, each bit for bit as in Python floats."""
    normals, rhs = [], []
    for (d0, d1, d2), (l10, l20, l21), b in systems:
        lower = ((d0, 0.0, 0.0), (l10, d1, 0.0), (l20, l21, d2))
        normals.append([[sum(p * q for p, q in zip(r, c)) for c in lower] for r in lower])
        rhs.append(b)
    normal = np.array(normals)  # (m, 3, 3)
    x = solve_normal([[normal[:, i, j] for j in range(3)] for i in range(3)], np.array(rhs).T)
    assert x.shape == (3, len(systems))
    want = np.array([solve_normal_floats(n, b) for n, b in zip(normals, rhs)]).T
    np.testing.assert_array_equal(x.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_equals_the_float_oracle(shape, seed):
    """table(basis, C) entry by entry as Python floats, bit for bit, for 2-d and 3-d C."""
    r, terms, c = shape
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((r, terms)) * 10.0 ** rng.integers(-20, 20, (r, terms))
    coeffs = rng.standard_normal((terms, c)) * 10.0 ** rng.integers(-20, 20, (terms, c))
    want = np.array(table_floats(basis.tolist(), coeffs.tolist()))
    np.testing.assert_array_equal(table(basis, coeffs).view(np.int64), want.view(np.int64))
    stacked = table(basis.T.copy().T, coeffs.reshape(terms, 1, c))[:, 0]  # a strided basis, 3-d C
    np.testing.assert_array_equal(stacked.view(np.int64), want.view(np.int64))


def test_fringe_shape_rule():
    """Amplitude hypot(c_cos, c_sin); visibility amplitude / c0 in [0, 1], 0 for c0 <= 0."""
    amplitude, visibility = fringe_shape(
        [[10.0, 3.0, 4.0], [2.0, 3.0, -4.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    )
    assert amplitude.tolist() == [5.0, 5.0, 1.0, 1.0, 0.0]
    assert visibility.tolist() == [0.5, 1.0, 0.0, 0.0, 0.0]


def test_fit_fringes_input_checks(geom):
    good = cosine_counts(geom, 5.0)
    assert fit_fringes([], geom) == []
    with pytest.raises(ValueError, match="^empty histogram; nothing to fit$"):
        fit_fringes([good, np.zeros(geom.n_bins)], geom)
    with pytest.raises(ValueError, match="^histogram length does not match the screen binning$"):
        fit_fringes([good, np.ones(geom.n_bins + 1)], geom)
    with pytest.raises(ValueError, match="length"):
        fit_fringes([good, np.ones((2, geom.n_bins))], geom)
    bound = nyquist_min_samples(geom)
    thin = np.zeros(geom.n_bins)
    thin[: bound - 1] = 1.0
    enough = np.zeros(geom.n_bins)
    enough[:bound] = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LowSampleWarning)
        fit_fringes([thin, enough, thin * 0.5, enough], geom)
        assert not caught  # only fit_fringe warns, at its caller's line
        fit_fringe(thin * 0.5, geom)
    assert [str(w.message) for w in caught] == [
        f"{(bound - 1) / 2:.0f} counts is below the sampling bound {bound}; fringe fit is undersampled",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", LowSampleWarning)
        with pytest.raises(ValueError, match="empty"):
            fit_fringe(np.zeros(geom.n_bins), geom)  # the row is checked before any warning


def test_fit_fringe_warns_at_each_calling_line(geom):
    """Under the default once-per-location filter, thin fits from two lines warn twice."""
    thin = np.zeros(geom.n_bins)
    thin[: nyquist_min_samples(geom) - 1] = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        warnings.simplefilter("default")
        fit_fringe(thin, geom)
        fit_fringe(thin, geom)
    assert [w.category for w in caught] == [LowSampleWarning, LowSampleWarning]
    assert [w.filename for w in caught] == [__file__, __file__]
    assert caught[0].lineno + 1 == caught[1].lineno


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


def test_decode_counts_the_slice_it_fits(geom):
    """confidence and the LowSampleWarning weigh a block's triples in the decoded slice only.

    Both blocks hold twice the sampling bound in all; block 0 holds one
    short of it in the (D1, D1') slice that decode_omniscient fits, block 1
    exactly the bound.
    """
    bound = nyquist_min_samples(geom)
    sch = SwitchSchedule(bits=(1, 1), block_size=2 * bound)
    babu = [0] * (bound - 1) + [2] * (bound + 1) + [0] * bound + [3] * bound
    n = len(babu)
    tr = batch(x=np.arange(n) % geom.n_bins, j=babu, k=[0] * n, blocks=np.repeat([0, 1], n // 2))
    with pytest.warns(LowSampleWarning) as caught:
        report = decode_omniscient(tr, sch, geom)
    assert [str(w.message) for w in caught] == [
        f"blocks [0] hold fewer than {bound} triples in the decoded slice; "
        "decoded bits there are low-confidence"
    ]
    assert report.confidence == 0.5


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
    with pytest.raises(ValueError, match="block index 1 is outside the schedule's 1 blocks"):
        schedule_bit_labels(tr, SwitchSchedule(bits=(1,), block_size=10))


def test_schedule_bit_labels_rejects_negative_block():
    """Block -1 must not wrap around to the schedule's last bit."""
    tr = TripleBatch([0, 1], [3, 4], [0, 0], [0, 0], [0, -1])
    with pytest.raises(ValueError, match="block index -1 is outside the schedule's 2 blocks"):
        schedule_bit_labels(tr, SwitchSchedule(bits=(1, 0), block_size=1))


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


def test_writers_byte_stable(tmp_path):
    cfg = make_config(bits=(1, 0), block_size=50)
    tr = sample_triples(cfg, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        report = decode_omniscient(tr, cfg.schedule, cfg.geometry)

    for name, write in (
        ("dec", lambda p: write_decode_csv(p, report, {"seed": 0})),
        ("table", lambda p: _write_table(p, {"seed": 0, "n_rows": 2}, "a,b", ["1,2", "3,4"])),
    ):
        p1, p2 = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        write(p1)
        write(p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.startswith("# tool_version=")
        assert "# columns=" in text
    lines = (tmp_path / "table1.csv").read_text().splitlines()
    assert lines[1:] == ["# seed=0", "# n_rows=2", "# columns=a,b", "1,2", "3,4"]
