import numpy as np
import pytest

from qeraser.events import (
    CODE_D0,
    DETECTOR_LABELS,
    EventRecord,
    EventStream,
    SimStreamHeader,
    TripleBatch,
    emit_events,
    inject_background,
    match_coincidences,
    read_event_log,
    read_triples,
    sample_triples,
    triple_spacing_ns,
    write_event_log,
    write_triples,
)
from qeraser.experiment import (
    MODE_SINGLE,
    SwitchSchedule,
    config_digest,
    default_config,
    distribution_for,
)
from qeraser.analysis import chi_square_fit

from conftest import make_config


def header_for(config, seed=0, window=20):
    sch = config.schedule
    return SimStreamHeader(
        seed=seed,
        config_digest=config_digest(config),
        coincidence_window_ns=window,
        bits="".join(str(b) for b in sch.bits),
        block_size=sch.block_size,
        spacing_ns=triple_spacing_ns(config.pair_rate_scale),
        n_triples=sch.n_triples,
        n_bins=config.geometry.n_bins,
    )


# ---------------------------------------------------------------------------
# spacing
# ---------------------------------------------------------------------------


def test_spacing_values():
    assert triple_spacing_ns(1.0) == 1000
    assert triple_spacing_ns(10.0) == 100
    assert triple_spacing_ns(25.0) == 40


def test_spacing_rejects_overlap():
    with pytest.raises(ValueError, match="closer"):
        triple_spacing_ns(26.0)
    with pytest.raises(ValueError, match="positive"):
        triple_spacing_ns(0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic(small_config):
    a = sample_triples(small_config, seed=5)
    b = sample_triples(small_config, seed=5)
    c = sample_triples(small_config, seed=6)
    for name in ("x_bin", "babu", "alisha", "block_index"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.babu, c.babu)


def test_sampling_shapes(small_config):
    tr = sample_triples(small_config, seed=0)
    sch = small_config.schedule
    assert len(tr) == sch.n_triples
    np.testing.assert_array_equal(tr.triple_id, np.arange(sch.n_triples))
    np.testing.assert_array_equal(
        np.bincount(tr.block_index), [sch.block_size] * len(sch.bits)
    )
    assert tr.x_bin.min() >= 0
    assert tr.x_bin.max() < small_config.geometry.n_bins


def test_sampling_empty_schedule():
    cfg = make_config(bits=(), block_size=10)
    assert len(sample_triples(cfg, seed=0)) == 0


def test_sampling_rejects_bad_requests(small_config):
    with pytest.raises(ValueError, match="double"):
        sample_triples(default_config(MODE_SINGLE), seed=0)
    with pytest.raises(ValueError, match="seed"):
        sample_triples(small_config, seed=-1)
    cfg = make_config(bits=(1,), block_size=10)
    import dataclasses

    bare = dataclasses.replace(cfg, schedule=None)
    with pytest.raises(ValueError, match="schedule"):
        sample_triples(bare, seed=0)


def test_sampled_tap_fraction_binomial():
    # monitors fire with the tap probability; 3 sigma at n = 20000
    cfg = make_config(bits=(1,), block_size=20_000, tap_babu=0.3)
    tr = sample_triples(cfg, seed=2)
    frac = np.mean(tr.babu >= 2)
    sigma = np.sqrt(0.3 * 0.7 / 20_000)
    assert abs(frac - 0.3) <= 3 * sigma


def test_sampling_chisquare_against_exact_table():
    """Sampled (x, j, k) frequencies agree with the closed-form joint law."""
    for bit, seed in ((1, 0), (0, 0)):
        cfg = make_config(bits=(bit,) * 10, block_size=10_000)
        dist = distribution_for(cfg, splitter_present=bool(bit))
        tr = sample_triples(cfg, seed=seed)
        counts = np.zeros((cfg.geometry.n_bins, 4, 4))
        np.add.at(counts, (tr.x_bin, tr.babu, tr.alisha), 1.0)
        res = chi_square_fit(counts, dist.probs)
        assert res.pvalue > 0.01


def test_screen_side_columns_blind_to_schedule():
    """Flipping every schedule bit must not move a single screen-side sample.

    The joint law factorises as marginal(x, k) x conditional(j | x, k) and
    only the conditional part sees babu's splitter, so x and k come out
    bit-identical for any schedule of the same shape.
    """
    all0 = make_config(bits=(0,) * 6, block_size=1500)
    all1 = make_config(bits=(1,) * 6, block_size=1500)
    t0 = sample_triples(all0, seed=11)
    t1 = sample_triples(all1, seed=11)
    np.testing.assert_array_equal(t0.x_bin, t1.x_bin)
    np.testing.assert_array_equal(t0.alisha, t1.alisha)
    assert not np.array_equal(t0.babu, t1.babu)


# ---------------------------------------------------------------------------
# event emission
# ---------------------------------------------------------------------------


def test_emit_structure(small_config):
    tr = sample_triples(small_config, seed=1)
    st = emit_events(tr, small_config, seed=1)
    n = len(tr)
    assert len(st) == 3 * n
    assert np.all(np.diff(st.time_ns) >= 0)
    assert len(np.unique(st.event_id)) == 3 * n
    is_d0 = st.detector == CODE_D0
    assert is_d0.sum() == n
    assert np.all(st.x_bin[is_d0] >= 0)
    assert np.all(st.x_bin[~is_d0] == -1)
    # screen record at the grid point, idlers trailing by 1..10 ns
    d0_t = np.sort(st.time_ns[is_d0])
    np.testing.assert_array_equal(d0_t, np.arange(n) * 1000)
    lags = st.time_ns[~is_d0] % 1000
    assert lags.min() >= 1 and lags.max() <= 10


def test_emit_deterministic_and_outcome_independent(small_config):
    tr = sample_triples(small_config, seed=1)
    a = emit_events(tr, small_config, seed=4)
    b = emit_events(tr, small_config, seed=4)
    np.testing.assert_array_equal(a.time_ns, b.time_ns)
    np.testing.assert_array_equal(a.detector, b.detector)
    # same seed, different outcomes: identical timestamps (delays are drawn
    # from triple position only, so timing can never leak the outcome)
    other = sample_triples(small_config, seed=9)
    c = emit_events(other, small_config, seed=4)
    np.testing.assert_array_equal(np.sort(a.time_ns), np.sort(c.time_ns))


def test_match_roundtrip_exact(small_config):
    tr = sample_triples(small_config, seed=3)
    st = emit_events(tr, small_config, seed=3)
    matched, orphans = match_coincidences(
        st,
        window_ns=20,
        block_size=small_config.schedule.block_size,
        spacing_ns=triple_spacing_ns(small_config.pair_rate_scale),
    )
    assert orphans.total == 0
    for name in ("x_bin", "babu", "alisha", "block_index"):
        np.testing.assert_array_equal(getattr(matched, name), getattr(tr, name))


def test_match_zero_window_orphans_everything(small_config):
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    matched, orphans = match_coincidences(st, window_ns=0)
    assert len(matched) == 0
    assert orphans.total == len(st)
    assert orphans.by_detector["D0"] == len(tr)


def test_match_sequence_blocks(small_config):
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    matched, _ = match_coincidences(
        st, block_size=small_config.schedule.block_size
    )  # no spacing: fall back to sequence numbering
    np.testing.assert_array_equal(matched.block_index, tr.block_index)


@pytest.mark.parametrize("kw", [{"block_size": 0}, {"block_size": 5, "spacing_ns": 0}])
def test_match_rejects_nonpositive_block_period(small_config, kw):
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    with pytest.raises(ValueError, match="must be positive"):
        match_coincidences(st, **kw)


def test_match_rejects_unsorted():
    st = EventStream(
        event_id=[0, 1],
        detector=[CODE_D0, 1],
        time_ns=[50, 10],
        x_bin=[3, -1],
        n_bins=8,
    )
    with pytest.raises(ValueError, match="sorted"):
        match_coincidences(st)


# ---------------------------------------------------------------------------
# background
# ---------------------------------------------------------------------------


def test_background_zero_rate_is_identity(small_config):
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    assert inject_background(st, 0.0, seed=0) is st
    with pytest.raises(ValueError, match="non-negative"):
        inject_background(st, -1e-6)


def test_background_poisson_count(small_config):
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    rate = 1e-4
    noisy = inject_background(st, rate, seed=0)
    span = int(st.time_ns[-1]) - int(st.time_ns[0])
    lam = rate * span
    n_bg = len(noisy) - len(st)
    assert abs(n_bg - lam) <= 4 * np.sqrt(lam)
    assert np.all(np.diff(noisy.time_ns) >= 0)


def test_background_preserves_original_records(small_config):
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    noisy = inject_background(st, 5e-5, seed=1)
    original = {
        int(i): (int(d), int(t), int(x))
        for i, d, t, x in zip(st.event_id, st.detector, st.time_ns, st.x_bin)
    }
    kept = 0
    for i, d, t, x in zip(noisy.event_id, noisy.detector, noisy.time_ns, noisy.x_bin):
        if int(i) in original:
            assert original[int(i)] == (int(d), int(t), int(x))
            kept += 1
    assert kept == len(st)
    # background ids are fresh and x_bin follows the D0 rule
    bg = ~np.isin(noisy.event_id, st.event_id)
    assert np.all(noisy.x_bin[bg & (noisy.detector != CODE_D0)] == -1)
    assert np.all(noisy.x_bin[bg & (noisy.detector == CODE_D0)] >= 0)


def test_matching_survives_light_background(small_config):
    """Dark counts corrupt a bounded sliver of triples, nothing more."""
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    noisy = inject_background(st, 1e-5, seed=0)
    matched, _ = match_coincidences(
        noisy,
        block_size=small_config.schedule.block_size,
        spacing_ns=triple_spacing_ns(small_config.pair_rate_scale),
    )
    # compare per-outcome counts; a handful of stolen matches is acceptable
    ref = np.bincount(tr.babu * 4 + tr.alisha, minlength=16)
    got = np.bincount(matched.babu * 4 + matched.alisha, minlength=16)
    assert abs(len(matched) - len(tr)) <= 0.01 * len(tr)
    assert np.abs(ref - got).sum() <= 0.02 * len(tr)


# ---------------------------------------------------------------------------
# records and files
# ---------------------------------------------------------------------------


def test_event_record_validation():
    EventRecord(0, "D0", 5, x_bin=3)
    EventRecord(1, "D3'", 6)
    with pytest.raises(ValueError, match="x_bin"):
        EventRecord(0, "D0", 5)
    with pytest.raises(ValueError, match="x_bin"):
        EventRecord(0, "D1", 5, x_bin=3)
    with pytest.raises(ValueError, match="detector"):
        EventRecord(0, "D9", 5)


def test_triple_batch_validation():
    with pytest.raises(ValueError, match="length"):
        TripleBatch([0], [1, 2], [0], [0], [0])
    with pytest.raises(ValueError, match="babu"):
        TripleBatch([0], [1], [7], [0], [0])


def test_event_log_roundtrip(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    hdr = header_for(small_config)
    path = tmp_path / "events.csv"
    write_event_log(path, st, hdr)
    again, hdr2 = read_event_log(path)
    assert hdr2 == hdr
    for name in ("event_id", "detector", "time_ns", "x_bin"):
        np.testing.assert_array_equal(getattr(again, name), getattr(st, name))
    # a second write of the re-read stream is byte-identical
    path2 = tmp_path / "events2.csv"
    write_event_log(path2, again, hdr2)
    assert path.read_bytes() == path2.read_bytes()


def test_event_log_truncation_detected(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    path = tmp_path / "events.csv"
    write_event_log(path, st, header_for(small_config))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        read_event_log(path)


def test_triples_roundtrip(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    hdr = header_for(small_config)
    path = tmp_path / "triples.csv"
    write_triples(path, tr, hdr)
    text = path.read_text()
    assert "D1'," not in text.split("columns")[0]  # labels live in rows, not header
    again, hdr2 = read_triples(path)
    assert hdr2 == hdr
    for name in ("triple_id", "x_bin", "babu", "alisha", "block_index"):
        np.testing.assert_array_equal(getattr(again, name), getattr(tr, name))


def test_triples_bad_rows_detected(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    path = tmp_path / "triples.csv"
    write_triples(path, tr, header_for(small_config))
    lines = path.read_text().splitlines()
    lines[-1] = "0,0,0,D7,D1'"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="labels"):
        read_triples(path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        read_triples(path)


def test_detector_code_layout():
    assert DETECTOR_LABELS[0] == "D0"
    assert DETECTOR_LABELS[1:5] == ("D1", "D2", "D3", "D4")
    assert DETECTOR_LABELS[5:] == ("D1'", "D2'", "D3'", "D4'")


# ---------------------------------------------------------------------------
# row grammar: integers are -?[0-9]{1,18}, headers only before the data
# ---------------------------------------------------------------------------


def _replace_row(path, row):
    lines = path.read_text().splitlines()
    lines[-2] = row
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "row, message",
    [
        ("1_0,0,3,D1,D1'", "bad integer '1_0'"),
        ("+5,0,3,D1,D1'", "bad integer '\\+5'"),
        (" 5,0,3,D1,D1'", "bad integer ' 5'"),
        ("5,0 ,3,D1,D1'", "bad integer '0 '"),
        ("5,0,,D1,D1'", "bad integer ''"),
        ("5,0,-,D1,D1'", "bad integer '-'"),
        ("5,0,1234567890123456789,D1,D1'", "bad integer '1234567890123456789'"),
        ("5,0,3,D1 ,D1'", "labels"),
        ("5,0,3,D1,D1'x", "labels"),
        ("5,0,3,D1", "malformed triple row"),
        ("# late=1", "header line after the first data row"),
    ],
)
def test_triples_grammar_rejects(tmp_path, small_config, row, message):
    path = tmp_path / "triples.csv"
    write_triples(path, sample_triples(small_config, seed=0), header_for(small_config))
    _replace_row(path, row)
    with pytest.raises(ValueError, match=message):
        read_triples(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("5,D0,10,1_0", "bad integer '1_0'"),
        ("5,D0,+10,3", "bad integer '\\+10'"),
        ("5,D0,-12345678901234567890,3", "bad integer"),
        ("5,D1,10,3", "x_bin presence"),
        ("5,D0,10,", "x_bin presence"),
        ("5,D9,10,", "unknown detector 'D9'"),
        ("5,D0,10,3,4", "malformed event row"),
    ],
)
def test_event_log_grammar_rejects(tmp_path, small_config, row, message):
    path = tmp_path / "events.csv"
    tr = sample_triples(small_config, seed=0)
    write_event_log(path, emit_events(tr, small_config, seed=0), header_for(small_config))
    _replace_row(path, row)
    with pytest.raises(ValueError, match=message):
        read_event_log(path)


def test_grammar_keeps_blank_lines_and_crlf(tmp_path, small_config):
    path = tmp_path / "triples.csv"
    tr = sample_triples(small_config, seed=0)
    write_triples(path, tr, header_for(small_config))
    text = path.read_text()
    path.write_bytes(text.replace("\n", "\r\n").replace("# columns", "\r\n# columns").encode())
    again, _ = read_triples(path)
    np.testing.assert_array_equal(again.x_bin, tr.x_bin)
