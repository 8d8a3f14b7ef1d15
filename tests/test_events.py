import dataclasses
import gc
import hashlib
import itertools
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from qeraser import __version__, cli, events
from qeraser.events import (
    CODE_D0,
    DETECTOR_LABELS,
    EventStream,
    SimStreamHeader,
    TripleBatch,
    emit_events,
    event_chunks,
    inject_background,
    match_coincidences,
    read_event_log,
    read_triples,
    sample_triples,
    triple_passes,
    triple_spacing_ns,
    write_and_match,
    write_spilled_triples,
)
from qeraser.experiment import (
    MODE_SINGLE,
    SwitchSchedule,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_config,
    default_geometry,
    distribution_for,
    save_config,
)
from qeraser.analysis import (
    LowSampleWarning,
    alisha_observable_cells,
    chi_square_fit,
    decode_alisha_only,
    decode_omniscient,
    omniscient_observable_cells,
)
from qeraser.optics import MAX_BINS

import oracles
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


@pytest.mark.parametrize("scale", [1e-320, 1e-16])
def test_spacing_rejects_a_spacing_past_the_time_limit(scale):
    """1000 / 1e-320 is inf and 1000 / 1e-16 is 1e19: neither is a time the stream files hold."""
    with pytest.raises(ValueError, match=r"^pair_rate_scale .* spaces triples more than 999999999999999999 ns apart$"):
        triple_spacing_ns(scale)
    assert triple_spacing_ns(1e-14) == 10**17


@pytest.mark.parametrize("n, refused", [(1000, False), (1001, True)])
def test_emit_refuses_times_past_the_limit(n, refused):
    """Triples 10**15 ns apart: 1,000 end at 999 * 10**15 + 10 ns at most, 1,001 would pass 10**18 - 1."""
    config = dataclasses.replace(make_config(bits=(1,), block_size=n), pair_rate_scale=1e-12)
    zeros = np.zeros(n, dtype=np.int64)
    triples = TripleBatch(triple_id=np.arange(n), x_bin=zeros, babu=zeros, alisha=zeros, block_index=zeros)
    if refused:
        with pytest.raises(ValueError, match="^pair_rate_scale 1e-12 spaces triples 1000000000000000 ns apart"):
            emit_events(triples, config, seed=0)
        return
    stream = emit_events(triples, config, seed=0)
    assert stream.time_ns[-3] == 999 * 10**15
    assert 999 * 10**15 < stream.time_ns[-1] <= 999 * 10**15 + 10


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


def test_schedule_rejects_empty_bits():
    with pytest.raises(ValueError, match="must not be empty"):
        make_config(bits=(), block_size=10)
    doc = config_to_dict(default_config())
    doc["experiment"]["schedule"]["bits"] = []
    with pytest.raises(ValueError, match="must not be empty"):
        config_from_dict(doc)


def test_sampling_rejects_bad_requests(small_config):
    with pytest.raises(ValueError, match="double"):
        sample_triples(default_config(MODE_SINGLE), seed=0)
    with pytest.raises(ValueError, match="seed"):
        sample_triples(small_config, seed=-1)
    cfg = make_config(bits=(1,), block_size=10)
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
    matched, orphans = match_coincidences(
        st, window_ns=0, block_size=small_config.schedule.block_size, spacing_ns=1000
    )
    assert len(matched) == 0
    assert orphans.total == len(st)
    assert orphans.by_detector["D0"] == len(tr)


@pytest.mark.parametrize(
    "kw", [{"block_size": 0, "spacing_ns": 1000}, {"block_size": 5, "spacing_ns": 0}]
)
def test_match_rejects_nonpositive_block_period(small_config, kw):
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    with pytest.raises(ValueError, match="must be positive"):
        match_coincidences(st, **kw)


def test_match_rejects_unsorted():
    st = EventStream(
        detector=[CODE_D0, 1],
        time_ns=[50, 10],
        x_bin=[3, -1],
        n_bins=8,
    )
    with pytest.raises(ValueError, match="sorted"):
        match_coincidences(st, block_size=5, spacing_ns=1000)


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
    """The lexsort oracle's merge, whose dark mask leaves the original records, in order."""
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    noisy = inject_background(st, 5e-5, seed=1)
    want, bg = oracles.background_lexsort(st, 5e-5, seed=1)
    assert bg.any()
    for name in EVENT_DTYPES:
        np.testing.assert_array_equal(getattr(noisy, name), getattr(want, name), err_msg=name)
        np.testing.assert_array_equal(getattr(noisy, name)[~bg], getattr(st, name), err_msg=name)
    # the dark counts' x_bin follows the D0 rule
    assert np.all(noisy.x_bin[bg & (noisy.detector != CODE_D0)] == -1)
    assert np.all(noisy.x_bin[bg & (noisy.detector == CODE_D0)] >= 0)


def test_background_refuses_an_unsorted_stream(small_config):
    st = emit_events(sample_triples(small_config, seed=0), small_config, seed=0)
    backwards = EventStream(
        detector=st.detector[::-1],
        time_ns=st.time_ns[::-1],
        x_bin=st.x_bin[::-1],
        n_bins=st.n_bins,
    )
    for rate in (0.0, 1e-4):
        with pytest.raises(ValueError, match="event stream is not time-sorted"):
            inject_background(backwards, rate, seed=0)


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


def test_triple_batch_validation():
    with pytest.raises(ValueError, match="length"):
        TripleBatch([0], [1, 2], [0], [0], [0])
    with pytest.raises(ValueError, match="babu"):
        TripleBatch([0], [1], [7], [0], [0])


@pytest.mark.parametrize("code", [-1, len(DETECTOR_LABELS), 256])
def test_event_stream_refuses_unknown_detector_codes(code):
    """Codes are held as int8, so 256 must not pass as D0."""
    with pytest.raises(ValueError, match=rf"^detector {code} is outside 0\.\.8$"):
        EventStream(detector=[0, code], time_ns=[0, 1], x_bin=[3, -1], n_bins=8)


def _event(**columns):
    row = {"detector": [CODE_D0], "time_ns": [0], "x_bin": [3], **columns}
    return EventStream(**row, n_bins=8)


def _triple(**columns):
    row = {"triple_id": [0], "x_bin": [3], "babu": [0], "alisha": [0], "block_index": [0]}
    return TripleBatch(**{**row, **columns})


INT32 = "-2147483648..2147483647"
INT64 = "-9223372036854775808..9223372036854775807"


@pytest.mark.parametrize(
    "build, column, values, message",
    [
        (_event, "detector", [256], "detector 256 is outside 0..8"),
        (_event, "detector", np.array([256], dtype=np.int64), "detector 256 is outside 0..8"),
        (_triple, "babu", [260], "babu 260 is outside 0..3"),
        (_triple, "alisha", np.array([-252], dtype=np.int16), "alisha -252 is outside 0..3"),
        (_triple, "x_bin", [2**31], f"x_bin 2147483648 is outside {INT32}"),
        (_triple, "x_bin", np.array([-(2**31) - 1]), f"x_bin -2147483649 is outside {INT32}"),
        (_event, "x_bin", [2**31], f"x_bin 2147483648 is outside {INT32}"),
        (_event, "x_bin", np.array([2**32 + 1], np.uint64), f"x_bin 4294967297 is outside {INT32}"),
        (_event, "time_ns", np.array([2**63], np.uint64), f"time_ns {2**63} is outside {INT64}"),
        (_triple, "triple_id", [2**64], f"triple_id {2**64} is outside {INT64}"),
    ],
)
def test_records_refuse_a_value_their_column_cannot_hold(build, column, values, message):
    """Ranges are checked on the values as given, before the cast, so nothing wraps."""
    with pytest.raises(ValueError) as info:
        build(**{column: values})
    assert str(info.value) == message


EVENT_DTYPES = {"detector": np.int8, "time_ns": np.int64, "x_bin": np.int32}
TRIPLE_DTYPES = {
    "triple_id": np.int64,
    "x_bin": np.int32,
    "babu": np.int8,
    "alisha": np.int8,
    "block_index": np.int64,
}


def assert_layout(record):
    want = EVENT_DTYPES if isinstance(record, EventStream) else TRIPLE_DTYPES
    assert {name: getattr(record, name).dtype for name in want} == want


def test_every_step_returns_the_declared_column_dtypes(tmp_path, small_config):
    triples = sample_triples(small_config, seed=0)
    stream = emit_events(triples, small_config, seed=0)
    noisy = inject_background(stream, 1e-4, seed=0)
    assert len(noisy) > len(stream)
    matched, orphans = match_coincidences(
        noisy, block_size=small_config.schedule.block_size, spacing_ns=1000
    )
    hdr = header_for(small_config)
    oracles.write_event_log(tmp_path / "events.csv", noisy, hdr)
    oracles.write_triples(tmp_path / "triples.csv", matched, hdr)
    for record in (
        triples,
        stream,
        noisy,
        matched,
        read_event_log(tmp_path / "events.csv")[0],
        read_triples(tmp_path / "triples.csv")[0],
    ):
        assert_layout(record)


def test_records_keep_an_array_of_its_column_dtype():
    columns = {name: np.zeros(3, dtype=dtype) for name, dtype in TRIPLE_DTYPES.items()}
    batch = TripleBatch(**columns)
    assert all(getattr(batch, name) is columns[name] for name in columns)
    wide = TripleBatch(**{name: np.zeros(3, dtype=np.int64) for name in TRIPLE_DTYPES})
    assert_layout(wide)


def test_narrow_column_arithmetic_at_the_largest_bin():
    """Cell ids, the decode grid and the idler packing at x_bin = MAX_BINS - 1 equal int64 math."""
    top = MAX_BINS - 1
    x = np.array([top, top, 0, top - 1])
    babu = np.array([3, 0, 3, 2])
    alisha = np.array([3, 3, 0, 1])
    batch = TripleBatch(
        triple_id=np.arange(4), x_bin=x, babu=babu, alisha=alisha, block_index=[0, 1, 1, 2]
    )
    assert batch.x_bin.dtype == np.int32 and batch.babu.dtype == np.int8
    for column in (x, np.array([2**31 - 1, -(2**31), top, -1])):  # and at the int32 extremes
        cells = dataclasses.replace(batch, x_bin=column)
        np.testing.assert_array_equal(alisha_observable_cells(cells), column * 4 + alisha)
        want = (column * 4 + babu) * 4 + alisha
        np.testing.assert_array_equal(omniscient_observable_cells(cells), want)
    assert omniscient_observable_cells(batch).max() == top * 16 + 15

    config = make_config(bits=(1, 0, 1), block_size=1)
    stream = emit_events(batch, config, seed=2)
    want = oracles.emit_events_lexsort(batch, config, seed=2)
    for name in EVENT_DTYPES:
        np.testing.assert_array_equal(getattr(stream, name), getattr(want, name), err_msg=name)
    assert stream.x_bin[stream.detector == CODE_D0].tolist() == x.tolist()
    assert sorted(stream.detector[stream.detector >= 5].tolist()) == sorted((alisha + 5).tolist())

    geom = dataclasses.replace(default_geometry(), n_bins=MAX_BINS)
    schedule = SwitchSchedule(bits=(1, 0, 1), block_size=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        for decode, babu_filter, alisha_filter in (
            (decode_omniscient, 0, 0),
            (decode_alisha_only, None, 0),
        ):
            report = decode(batch, schedule, geom)
            got = (report.decoded_bits, report.per_block_visibility, report.per_block_stderr)
            want = oracles.decode_per_block(batch, schedule, geom, babu_filter, alisha_filter)
            assert got == want


def test_event_log_roundtrip(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    hdr = header_for(small_config)
    path = tmp_path / "events.csv"
    oracles.write_event_log(path, st, hdr)
    again, hdr2 = read_event_log(path)
    assert hdr2 == hdr
    for name in EVENT_DTYPES:
        np.testing.assert_array_equal(getattr(again, name), getattr(st, name))
    # a second write of the re-read stream is byte-identical
    path2 = tmp_path / "events2.csv"
    oracles.write_event_log(path2, again, hdr2)
    assert path.read_bytes() == path2.read_bytes()


def test_event_log_truncation_detected(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    st = emit_events(tr, small_config, seed=0)
    path = tmp_path / "events.csv"
    oracles.write_event_log(path, st, header_for(small_config))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        read_event_log(path)


def _written(tmp_path, config, which):
    """The path of a file of which kind ("events" or "triples") written from config at seed 0."""
    path = tmp_path / f"{which}.csv"
    triples = sample_triples(config, seed=0)
    if which == "triples":
        oracles.write_triples(path, triples, header_for(config))
    else:
        oracles.write_event_log(path, emit_events(triples, config, seed=0), header_for(config))
    return path


@pytest.mark.parametrize(
    "write, drop, message",
    [
        ("triples", None, "tag 'qeraser-triples v3' is not 'qeraser-event-log v3'"),
        ("events", "# qeraser-event-log v3", f"tag 'tool_version={__version__}' is not"),
        ("events", "# columns=", "columns None is not 'detector,time_ns,x_bin'"),
    ],
    ids=["triples-file", "no-tag", "no-columns"],
)
def test_event_log_reader_checks_the_tag_and_columns_line(
    tmp_path, small_config, write, drop, message
):
    """The header's first line names the file kind, and its columns= line the layout."""
    path = _written(tmp_path, small_config, write)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not (drop and line.startswith(drop))))
    with pytest.raises(ValueError, match=f"^stream header {re.escape(message)}"):
        read_event_log(path)


READERS = {"events": (read_event_log, "qeraser-event-log"), "triples": (read_triples, "qeraser-triples")}


def test_event_log_reader_refuses_a_v1_log(tmp_path, small_config):
    """A v1 log, with an event_id column first, is refused by its tag, in one line."""
    path = _written(tmp_path, small_config, "events")
    path.write_text(oracles.as_v1(path.read_text()))
    assert path.read_text().splitlines()[-1].split(",")[1] in DETECTOR_LABELS
    with pytest.raises(ValueError) as info:
        read_event_log(path)
    assert str(info.value) == "stream header tag 'qeraser-event-log v1' is not 'qeraser-event-log v3'"


@pytest.mark.parametrize("which", sorted(READERS))
def test_readers_refuse_a_v2_file_by_its_tag(tmp_path, small_config, which):
    """A v2 file, its channels spelt as labels in every row, is refused by its tag, in one line."""
    path = _written(tmp_path, small_config, which)
    path.write_text(oracles.as_v2(path.read_text()))
    read, kind = READERS[which]
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"stream header tag '{kind} v2' is not '{kind} v3'"


LABEL_LINES = {"events": oracles.EVENT_LABEL_LINES, "triples": oracles.TRIPLE_LABEL_LINES}


def _relabel(line, edit):
    key, labels = line.split("=")
    labels = labels.split(",")
    if edit == "reordered":
        labels[0], labels[1] = labels[1], labels[0]
    elif edit == "different":
        labels[-1] = "D9"
    elif edit == "short":
        labels.pop()
    return f"{key}={','.join(labels)}"


@pytest.mark.parametrize("edit", ["missing", "reordered", "different", "short"])
@pytest.mark.parametrize("which", sorted(READERS))
def test_readers_refuse_a_labels_line_not_their_own(tmp_path, small_config, which, edit):
    """Each channel's labels line must name its labels in index order, or the file is refused."""
    path = _written(tmp_path, small_config, which)
    text = path.read_text()
    read, _ = READERS[which]
    for line in LABEL_LINES[which]:
        assert f"# {line}\n" in text
        new = "" if edit == "missing" else f"# {_relabel(line, edit)}\n"
        path.write_text(text.replace(f"# {line}\n", new, 1))
        key, want = line.split("=")
        got = None if edit == "missing" else _relabel(line, edit).split("=")[1]
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"stream header {key} {got!r} is not {want!r}"


def test_triples_roundtrip(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    hdr = header_for(small_config)
    path = tmp_path / "triples.csv"
    oracles.write_triples(path, tr, hdr)
    head, rows = path.read_text().split("# columns=block_index,x_bin,babu,alisha\n")
    # labels live in the header, once per channel column; rows hold channel numbers
    assert head.endswith("# babu_labels=D1,D2,D3,D4\n# alisha_labels=D1',D2',D3',D4'\n")
    assert "D" not in rows
    again, hdr2 = read_triples(path)
    assert hdr2 == hdr
    for name in ("triple_id", "x_bin", "babu", "alisha", "block_index"):
        np.testing.assert_array_equal(getattr(again, name), getattr(tr, name))


def test_triples_bad_rows_detected(tmp_path, small_config):
    tr = sample_triples(small_config, seed=0)
    path = tmp_path / "triples.csv"
    oracles.write_triples(path, tr, header_for(small_config))
    lines = path.read_text().splitlines()
    lines[-1] = "0,0,7,0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"babu 7 is outside 0\.\.3"):
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
        ("1_0,3,0,0", "bad integer '1_0'"),
        ("+5,3,0,0", "bad integer '\\+5'"),
        (" 5,3,0,0", "bad integer ' 5'"),
        ("0 ,3,0,0", "bad integer '0 '"),
        ("0,,0,0", "bad integer ''"),
        ("0,-,0,0", "bad integer '-'"),
        ("0,1234567890123456789,0,0", "bad integer '1234567890123456789'"),
        ("0,-2147483649,0,0", "x_bin -2147483649 is outside -2147483648..2147483647"),
        ("0,3,4,0", r"babu 4 is outside 0\.\.3 in triple row"),
        ("0,3,0,-1", r"alisha -1 is outside 0\.\.3 in triple row"),
        ("0,3,0 ,0", "bad integer '0 '"),
        ("0,3,D1,D1'", "bad integer 'D1'"),
        ("0,3,0,0x", "bad integer '0x'"),
        ("0,3,0", "malformed triple row"),
        ("# late=1", "header line after the first data row"),
    ],
)
def test_triples_grammar_rejects(tmp_path, small_config, row, message):
    path = tmp_path / "triples.csv"
    oracles.write_triples(path, sample_triples(small_config, seed=0), header_for(small_config))
    _replace_row(path, row)
    with pytest.raises(ValueError, match=message):
        read_triples(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,10,1_0", "bad integer '1_0'"),
        ("0,+10,3", "bad integer '\\+10'"),
        ("0,-12345678901234567890,3", "bad integer"),
        ("0,10,2147483648", "x_bin 2147483648 is outside -2147483648..2147483647"),
        ("1,10,3", "x_bin presence"),
        ("0,10,", "x_bin presence"),
        ("00,10,", "x_bin presence"),  # 00 is channel 0, as the parser reads it
        ("01,10,3", "x_bin presence"),
        ("9,10,", r"detector 9 is outside 0\.\.8 in event row"),
        ("-1,10,", r"detector -1 is outside 0\.\.8 in event row"),
        ("D1,10,", "bad integer 'D1'"),
        ("D0,10,3", "bad integer 'D0'"),
        ("0,10,3,4", "malformed event row"),
        ("5,0,10,3", "malformed event row"),
    ],
)
def test_event_log_grammar_rejects(tmp_path, small_config, row, message):
    path = tmp_path / "events.csv"
    tr = sample_triples(small_config, seed=0)
    oracles.write_event_log(path, emit_events(tr, small_config, seed=0), header_for(small_config))
    _replace_row(path, row)
    with pytest.raises(ValueError, match=message):
        read_event_log(path)


def test_event_log_reads_zero_padded_channels_as_channels(tmp_path, small_config):
    """00 is channel 0 and 01 channel 1, so x_bin is present on the first only."""
    path = tmp_path / "events.csv"
    tr = sample_triples(small_config, seed=0)
    oracles.write_event_log(path, emit_events(tr, small_config, seed=0), header_for(small_config))
    lines = path.read_text().splitlines()
    lines[-2:] = ["00,10,3", "01,11,"]
    path.write_text("\n".join(lines) + "\n")
    stream, _ = read_event_log(path)
    assert stream.detector[-2:].tolist() == [CODE_D0, 1]
    assert stream.x_bin[-2:].tolist() == [3, -1]


def test_grammar_keeps_blank_lines_and_crlf(tmp_path, small_config):
    path = tmp_path / "triples.csv"
    tr = sample_triples(small_config, seed=0)
    oracles.write_triples(path, tr, header_for(small_config))
    text = path.read_text()
    path.write_bytes(text.replace("\n", "\r\n").replace("# columns", "\r\n# columns").encode())
    again, _ = read_triples(path)
    np.testing.assert_array_equal(again.x_bin, tr.x_bin)


# ---------------------------------------------------------------------------
# memory: each stream step's traced peak in bytes per record.  The columns
# take 13 bytes per event record (1 detector, 8 time, 4 x_bin) and 22 per
# triple (8 id, 4 x_bin, 1 + 1 outcomes, 8 block).  The figures each test
# names for its code were read through _traced as it is; those for earlier
# designs were read before _traced collected garbage first.
# ---------------------------------------------------------------------------


def _traced(step, *args, **kwargs):
    """(result, traced peak allocation during step, in bytes).

    Garbage is collected first, so the collector's phase, which the tests
    run before set, neither frees nor keeps garbage in step's reading.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = step(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _peak_per_record(step, *args):
    """(result, traced peak allocation during step / records it returns).

    step runs once untraced first, so the small objects the interpreter
    keeps for reuse are already made, whatever ran before.
    """
    step(*args)
    result, peak = _traced(step, *args)
    return result, peak / len(result)


def _noisy_stream(config):
    return inject_background(emit_events(sample_triples(config, 0), config, 0), 2e-3, 0)


MEMORY_CONFIG = make_config(bits=(1, 0) * 20, block_size=500)


@pytest.mark.traced
def test_stream_steps_hold_each_record_about_once():
    """Bounds on the stream steps' temporaries; a whole-stream sort or concat breaks them.

    Measured here: 28.0 bytes per triple sampled, 16.4 per record emitted
    and 16.6 per record out of the merge; with an int64 record id column,
    21.7 and 24.6.  With int64 columns and the id the same steps took 50, 32
    and 36; a lexsort build 82, 80 and 96 (int64); a merge that held every
    dark column to the end, 43 (int64).
    """
    triples, sampled = _peak_per_record(sample_triples, MEMORY_CONFIG, 0)
    stream, emitted = _peak_per_record(emit_events, triples, MEMORY_CONFIG, 0)
    noisy, merged = _peak_per_record(inject_background, stream, 2e-3, 0)
    assert len(noisy) > len(stream) + 30_000
    assert sampled <= 36
    assert emitted <= 18
    assert merged <= 19


@pytest.mark.traced
def test_matcher_holds_less_than_its_input(monkeypatch):
    """The matcher holds its outputs, 22 bytes per matched triple, plus one slice's temporaries.

    It reads the stream 3 _CHUNK_TRIPLES records at a time.  Measured here:
    a 464 kB peak for 20,006 triples out of 99,857 records in 3,000-record
    slices, and 7.6, 22.5 and 28.7 bytes per slice record over 22 per
    matched triple at 3,000, 9,000 and 30,000 records a slice.  Matching the whole stream at once took 13.9
    bytes per input record (1.4 MB here).
    """
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", 1000)
    noisy = _noisy_stream(MEMORY_CONFIG)
    spacing = triple_spacing_ns(MEMORY_CONFIG.pair_rate_scale)
    (batch, _), peak = _traced(match_coincidences, noisy, 20, block_size=500, spacing_ns=spacing)
    assert peak <= 22 * len(batch) + 48 * 3 * events._CHUNK_TRIPLES


def test_matched_columns_hold_only_the_matched_triples():
    """match_coincidences' columns are cut to the matched count, not views of longer ones.

    Its columns are sized from the D0 count, and the dark counts here bring
    D0s that match nothing, so a view of them would keep those D0s' bytes.
    """
    noisy = _noisy_stream(MEMORY_CONFIG)
    spacing = triple_spacing_ns(MEMORY_CONFIG.pair_rate_scale)
    batch, _ = match_coincidences(noisy, 20, block_size=500, spacing_ns=spacing)
    assert np.count_nonzero(noisy.detector == CODE_D0) > len(batch)
    for name in ("triple_id", "x_bin", "babu", "alisha", "block_index"):
        column = getattr(batch, name)
        assert column.base is None and column.nbytes == len(batch) * column.itemsize


def _simulated(config, out, rate=2e-3):
    """simulate's stream path at seed 0 and rate dark counts per ns, into out.

    Writes events.csv, and triples.csv from a spill, as simulate does.
    Returns (records, matched triples).
    """
    records, chunks = event_chunks(config, 0, rate)
    header = header_for(config)
    with tempfile.TemporaryFile(dir=out) as spill:
        _, matched, _, _ = write_and_match(out / "events.csv", header, records, chunks, spill)
        write_spilled_triples(out / "triples.csv", spill, header, matched)
    return records, matched


@pytest.mark.traced
def test_simulate_holds_one_chunk_and_one_dark_window(tmp_path, monkeypatch):
    """simulate's traced peak is one chunk's and one window's, whatever the run's length.

    Between pieces the stream path holds what is left of the dark-count
    window being cut (at most _DARK_WINDOW dark counts on average, 13 bytes
    each) and the matcher's queues; the idler delays are drawn chunk by
    chunk and the matched triples go to the spill as rows, so nothing is
    held per triple.  A piece ends at the next chunk's first D0 or at its
    window's end, whichever comes first, so it holds at most one chunk's
    records and one window's dark counts, and a write pass the text of at
    most _CHUNK_ROWS rows.  So the peak stays level when the run doubles,
    and once the windows are full the arrays held do not grow when the rate
    doubles, and doubles again, which puts several windows in each chunk: a
    window then spans less of a chunk, so its pieces carry fewer signal
    records.  Each case runs once before it is traced, so the small objects
    the interpreter keeps for reuse are already made, and _traced collects
    garbage first, so a reading does not depend on the collector's phase:
    run alone or after the tests before it, the readings agree to 0.3%.
    Measured here with 1,000-triple chunks: 753, 805 and 831 bytes per
    chunk triple at 2e-3 dark counts per ns over 40, 80 and 160 blocks of
    500 triples; 1,393, 1,376 and 1,377 over 10 blocks at 16e-3, 32e-3 and
    64e-3.  The first doubling adds 7.0%, 4.6% of it the window growing
    from 13,286 to 15,960 dark counts (35 kB); the window is full from 80
    blocks on.  From 32e-3 to 64e-3 the arrays held at the peak shrink from
    389 to 381 kB, but the interpreter's free lists grow from 46 to 56 kB
    of objects under 1 kB: the collection empties them, the run refills
    them with traced objects pass by pass, and 64e-3 cuts twice the pieces,
    so its peak comes at its 43rd event-log write pass, 32e-3's at its
    23rd.  A full collection at a write pass frees about 17 kB of them per
    ten passes and finds no garbage.  So the rate's doublings are bounded
    as factors too.
    Before _traced collected garbage, the same cases took 742, 795, 814 and
    1,384, 1,362, 1,350 while each piece was an EventStream; 750, 804, 823
    and 1,392, 1,370, 1,359 while each triple chunk and matcher decision
    also carried triple ids; 798, 852, 871 and 1,547, 1,525, 1,514 with rows
    that spelt each channel as its label, and 1,016, 1,102, 1,086 and
    1,852, 1,830, 1,821 with an int64 record id column besides.  The
    figures below were taken with both.  A window is let go before the piece that takes its last dark counts is
    made, and the background generator holds none between windows: holding
    the spent window until the next was drawn took 1,146 at 160 blocks and
    2,192, 2,166 and 2,155 at the high rates.  Holding the whole run's
    delays (2 bytes a triple) took 1,239, 1,372, 1,496, 1,589 and 1,915
    over 40 to 640 blocks, and holding the matched triples to write
    triples.csv at the end took 14 to 22 bytes a matched triple more.
    """
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", 1000)
    peak = {}
    for repeat, rate in ((20, 2e-3), (40, 2e-3), (80, 2e-3), (5, 16e-3), (5, 32e-3), (5, 64e-3)):
        config = make_config(bits=(1, 0) * repeat, block_size=500)
        n = config.schedule.n_triples
        _simulated(config, tmp_path, rate)  # so the interpreter's reusable objects are made
        (records, matched), peak[repeat, rate] = _traced(_simulated, config, tmp_path, rate)
        assert records - 3 * n > n
        assert read_triples(tmp_path / "triples.csv")[0].triple_id.tolist() == list(range(matched))
    assert peak[20, 2e-3] <= 850 * events._CHUNK_TRIPLES
    assert peak[40, 2e-3] <= 1.1 * peak[20, 2e-3]  # the window grows by 2,674 dark counts
    assert peak[80, 2e-3] <= 1.06 * peak[40, 2e-3]
    # 64e-3 per ns puts about 64,000 dark counts, four windows, in each chunk; its
    # peak pass comes after more passes' refills of the free lists (+0.07% here)
    assert peak[5, 32e-3] <= peak[5, 16e-3]
    assert peak[5, 64e-3] <= 1.01 * peak[5, 32e-3]
    assert peak[5, 16e-3] <= 850 * events._CHUNK_TRIPLES + 55 * events._DARK_WINDOW


def test_triple_passes_are_the_file_columns_and_triples_are_numbered_once(tmp_path, monkeypatch):
    """triple_passes yields a file's four columns; a run's triples are numbered 0..n - 1.

    simulate's triples.csv, spanning many reads and parse passes: each pass
    holds exactly the file's columns, read_triples' ids are arange(n), and
    match_coincidences on the event log written beside it gives the same
    ids and columns.  The benchmark's rematch digest, which hashes triple_id
    with the other columns, rests on this.
    """
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", 1000)
    monkeypatch.setattr(events, "_READ_BYTES", 1 << 11)
    monkeypatch.setattr(events, "_CHUNK_ROWS", 100)
    _, matched = _simulated(make_config(bits=(1, 0) * 3, block_size=500), tmp_path)
    path = tmp_path / "triples.csv"
    assert path.stat().st_size > 8 * events._READ_BYTES
    passes = list(triple_passes(path))
    assert len(passes) > 8
    for part in passes:
        assert list(part) == ["block_index", "x_bin", "babu", "alisha"]
    triples, _ = read_triples(path)
    np.testing.assert_array_equal(triples.triple_id, np.arange(matched))
    for name, column in passes[0].items():
        np.testing.assert_array_equal(column, getattr(triples, name)[: len(column)], name)
    stream, header = read_event_log(tmp_path / "events.csv")
    rematched, _ = match_coincidences(
        stream,
        header.coincidence_window_ns,
        block_size=header.block_size,
        spacing_ns=header.spacing_ns,
    )
    for name in ("triple_id", "block_index", "x_bin", "babu", "alisha"):
        np.testing.assert_array_equal(getattr(rematched, name), getattr(triples, name), name)


def test_simulate_and_decode_build_no_record(tmp_path, monkeypatch):
    """simulate and decode hand records and triples on as columns: neither builds a record.

    No EventStream and no TripleBatch, counted by wrapping _set_columns,
    which every record runs, over a run of many chunks and a triples file
    of many passes.
    """
    built = []
    set_columns = events._set_columns

    def counted(record, fmt):
        built.append(type(record).__name__)
        set_columns(record, fmt)

    monkeypatch.setattr(events, "_set_columns", counted)
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", 1000)
    monkeypatch.setattr(events, "_READ_BYTES", 1 << 11)
    config_path = tmp_path / "config.json"
    save_config(make_config(bits=(1, 0) * 3, block_size=500), config_path)
    sim = ["simulate", "--config", str(config_path), "--background-rate", "2e-3"]
    assert cli.main([*sim, "--out", str(tmp_path / "sim")]) == 0
    triples = str(tmp_path / "sim" / "triples.csv")
    decode = ["decode", "--config", str(config_path), "--triples", triples]
    assert cli.main([*decode, "--out", str(tmp_path / "decode")]) == 0
    assert built == []


@pytest.mark.parametrize("read_bytes", [16, 40, 1 << 8, 1 << 12, 1 << 20])
def test_matcher_fed_reader_passes_equals_matching_the_log(tmp_path, monkeypatch, read_bytes):
    """The matcher fed an event log's passes as read matches what it matches in the log read whole.

    Reads from a row or two up cut the log into passes of any length; the
    triples and the orphan report are those of match_coincidences on
    read_event_log's stream.  The passes need nothing from the header
    before the first: the matcher takes only the window, block size and
    spacing.
    """
    config = make_config(bits=(1, 0, 0, 1), block_size=150)
    path = tmp_path / "events.csv"
    stream = emit_events(sample_triples(config, 2), config, 2)
    oracles.write_event_log(path, inject_background(stream, 4e-3, 2), header_for(config))
    stream, _ = read_event_log(path)
    spacing = triple_spacing_ns(config.pair_rate_scale)
    want, want_orphans = match_coincidences(stream, 20, block_size=150, spacing_ns=spacing)
    assert want_orphans.total > 0
    monkeypatch.setattr(events, "_READ_BYTES", read_bytes)
    matcher = events._Matcher(20, 150, spacing)
    passes = events._StreamPasses(path, events._EVENT_LOG)
    decided = [matcher.feed(part) for part in passes]
    decided.append(matcher.finish())
    assert len(decided) > (len(stream) // 2 if read_bytes == 16 else 1)
    names = events._TRIPLES.names
    got = events._numbered({name: np.concatenate([d[name] for d in decided]) for name in names})
    for name in ("triple_id", "block_index", "x_bin", "babu", "alisha"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
    assert matcher.report == want_orphans
    assert list(matcher.report.by_detector) == list(want_orphans.by_detector)


@pytest.mark.traced
def test_write_text_holds_one_chunk(tmp_path):
    """The text writer lets go of each chunk once it is hashed and written.

    So it holds one chunk at a time, also while the next is made.  Measured
    here for sixteen 1 MB chunks: 1.0 MB traced; holding the first chunk
    to the end, and the one before while the next was made, took 3.0 MB.
    """
    size = 1 << 20
    chunks = (np.full(size, 48 + i, dtype=np.uint8) for i in range(16))
    digest, peak = _traced(events._write_text, tmp_path / "out.csv", ["kind v1"], chunks)
    data = (tmp_path / "out.csv").read_bytes()
    assert len(data) == len(b"# kind v1\n") + 16 * size
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak <= 1.5 * size


@pytest.mark.traced
def test_decode_holds_one_pass_not_the_triples(tmp_path):
    """decode's traced peak stays level when the triples file doubles.

    It sums each pass of the reader's columns into per-block totals and
    one count grid, so it holds one read of the file and one pass's parse,
    not the triples.  Measured here: 2.79 MB at 200,000 and 400,000 triples
    in 4 blocks (1.9 and 3.8 MB files), and 2.85 MB while each pass was a
    TripleBatch numbering its rows; reading the triples whole took 5.3 and
    8.8 MB.
    """
    rng = np.random.default_rng(1)
    peak = {}
    for block_size in (50_000, 100_000):
        config = make_config(bits=(1, 0, 1, 0), block_size=block_size)
        n = config.schedule.n_triples
        run = tmp_path / str(block_size)
        run.mkdir()
        save_config(config, run / "config.json")
        batch = TripleBatch(
            triple_id=np.arange(n),
            x_bin=rng.integers(0, config.geometry.n_bins, n),
            babu=rng.integers(0, 4, n),
            alisha=rng.integers(0, 4, n),
            block_index=np.arange(n) // block_size,
        )
        oracles.write_triples(run / "triples.csv", batch, header_for(config))
        del batch
        argv = ["--config", str(run / "config.json"), "--triples", str(run / "triples.csv")]
        code, peak[n] = _traced(cli.main, ["decode", *argv, "--out", str(run / "decode")])
        assert code == 0
    assert peak[400_000] <= 1.05 * peak[200_000]
    assert peak[400_000] <= 8 * 400_000  # less than the triples' block_index column alone


def test_chunked_draws_equal_one_whole_draw(monkeypatch):
    """Draws from one generator taken in pieces equal one whole draw.

    The stream path draws the idler delays _CHUNK_TRIPLES rows at a time
    and each block's uniforms in pieces cut by chunk ends, and relies on
    numpy's Generator carrying its state between calls.  _delay_chunks'
    pieces, and the delays emit_events gives each triple's idlers, equal one
    whole draw at every chunk size.
    """
    n = 500_000
    sizes = itertools.cycle([1, 7, 2500, 65536, 131071, 3])

    def in_pieces(draw):
        pieces, done = [], 0
        while done < n:
            pieces.append(draw(min(next(sizes), n - done)))
            done += len(pieces[-1])
        return np.concatenate(pieces)

    def generator():
        return np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2, 0)))

    delays = generator().integers(1, 11, size=(n, 2))
    rng = generator()
    np.testing.assert_array_equal(in_pieces(lambda k: rng.integers(1, 11, size=(k, 2))), delays)
    uniforms = generator().random(n)
    rng = generator()
    np.testing.assert_array_equal(in_pieces(rng.random), uniforms)
    m = 20_000
    config = make_config(bits=(1, 0), block_size=m // 2)
    # every triple's outcomes 0: babu's idler is detector code 1 and alisha's 5
    zeros = np.zeros(m, dtype=np.int64)
    triples = TripleBatch(
        triple_id=np.arange(m), x_bin=zeros, babu=zeros, alisha=zeros, block_index=zeros
    )
    for chunk in (1, 7, 8192, n):
        rows = n if chunk >= 8192 else m
        monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
        pieces = list(events._delay_chunks(rows, 5))
        assert [len(p) for p in pieces[:-1]] == [chunk] * (len(pieces) - 1)
        assert {p.dtype for p in pieces} == {np.dtype(np.int8)}
        np.testing.assert_array_equal(np.concatenate(pieces), delays[:rows])
        stream = emit_events(triples, config, 5)
        lag = (stream.time_ns.reshape(m, 3) - stream.time_ns[::3, None])[:, 1:]
        code = stream.detector.reshape(m, 3)[:, 1:]
        emitted = np.stack([lag[code == 1], lag[code == 5]], axis=1)
        np.testing.assert_array_equal(emitted, delays[:m])


@pytest.mark.traced
@pytest.mark.parametrize("which", ["events", "triples"])
def test_readers_hold_each_record_about_once(tmp_path, monkeypatch, which):
    """A reader peaks at its columns plus one read's bytes and one block's indexes.

    Measured here at 8 kB reads: 14.4 bytes per event record and 22.7 per
    triple, whose 22-byte columns include the triple_id that read_triples
    adds once the file is read.  While each parse pass numbered its rows
    the triples took 29.3; rows that spelt each channel as its label took
    14.4 and 28.3, and an int64 record id column besides 22.0 per event
    record.  The whole file held beside int64 columns took 53 and 65;
    newline and separator indexes over the whole file, 90 and 115 (both
    with the id column and the labels).
    """
    # so the file spans many reads and blocks: 32 of them for the triples file
    monkeypatch.setattr(events, "_READ_BYTES", 1 << 13)
    monkeypatch.setattr(events, "_CHUNK_ROWS", 1024)
    noisy = _noisy_stream(MEMORY_CONFIG)
    hdr = header_for(MEMORY_CONFIG)
    path = tmp_path / "stream.csv"
    if which == "events":
        oracles.write_event_log(path, noisy, hdr)
        read, bound = read_event_log, 17
    else:
        spacing = triple_spacing_ns(MEMORY_CONFIG.pair_rate_scale)
        batch, _ = match_coincidences(noisy, 20, block_size=500, spacing_ns=spacing)
        oracles.write_triples(path, batch, hdr)
        read, bound = read_triples, 25
    del noisy
    (record, _), peak = _traced(read, path)
    assert path.stat().st_size > 20 * events._READ_BYTES
    assert peak <= bound * len(record)


@pytest.mark.traced
@pytest.mark.parametrize("which", ["events", "triples"])
def test_readers_size_no_column_from_a_count_the_file_cannot_hold(tmp_path, monkeypatch, which):
    """A header declaring more rows than the file's size holds sizes no column before its refusal.

    A good row takes the format's min_row_bytes or more (5 for an event, 8
    for a triple), so a regular file of s bytes holds at most
    (s + 1) // min_row_bytes rows.  Here n_rows is s // 2, which a bound of
    two bytes a row let through: the reader then sized its columns for
    s // 2 rows (14 bytes a row for triples, 13 for events) before the count
    check refused the file.  The refusal's message is the count's, as before.
    """
    monkeypatch.setattr(events, "_READ_BYTES", 1 << 13)
    monkeypatch.setattr(events, "_CHUNK_ROWS", 1024)
    noisy = _noisy_stream(MEMORY_CONFIG)
    hdr = header_for(MEMORY_CONFIG)
    path = tmp_path / "stream.csv"
    if which == "events":
        oracles.write_event_log(path, noisy, hdr)
        read, what, n = read_event_log, "event log", len(noisy)
    else:
        spacing = triple_spacing_ns(MEMORY_CONFIG.pair_rate_scale)
        batch, _ = match_coincidences(noisy, 20, block_size=500, spacing_ns=spacing)
        oracles.write_triples(path, batch, hdr)
        read, what, n = read_triples, "triples file", len(batch)
    del noisy
    declared = path.stat().st_size // 2
    text = path.read_bytes()
    path.write_bytes(text.replace(f"# n_rows={n}\n".encode(), f"# n_rows={declared}\n".encode(), 1))
    del text

    def refusal():
        with pytest.raises(ValueError) as info:
            read(path)
        return str(info.value)

    message, peak = _traced(refusal)
    assert message == f"{what} declares {declared} rows but contains {n}; file is truncated or corrupt"
    assert peak < 8 * declared  # less than one int64 column of the declared rows
