"""Differential tests: whole-array and chunked stream paths against their loop references.

Streams and files are generated from a hypothesis-drawn seed and shape, so a
failing case is reproducible from the printed example.
"""

import dataclasses
import hashlib
import io
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeraser import cli, events
from qeraser.analysis import LowSampleWarning, decode_alisha_only, decode_omniscient
from qeraser.events import (
    CODE_D0,
    DETECTOR_LABELS,
    EventStream,
    SimStreamHeader,
    TripleBatch,
    emit_events,
    inject_background,
    match_coincidences,
    read_event_log,
    read_triples,
    sample_triples,
)
from qeraser.experiment import SwitchSchedule, default_geometry, save_config

import oracles
from conftest import make_config

TRIPLE_COLUMNS = ("triple_id", "x_bin", "babu", "alisha", "block_index")
EVENT_COLUMNS = ("detector", "time_ns", "x_bin")
BIG = 10**18 - 1  # the largest value an int64 field may hold
X_MIN, X_MAX = -(2**31), 2**31 - 1  # x_bin is int32; a field holds 0..X_MAX

seeds = st.integers(min_value=0, max_value=2**32 - 1)
fast = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def header():
    return SimStreamHeader(
        seed=3,
        config_digest="ab" * 32,
        coincidence_window_ns=20,
        bits="1010",
        block_size=5,
        spacing_ns=100,
        n_triples=20,
        n_bins=8,
    )


def joined_batch(pieces) -> TripleBatch:
    """One TripleBatch of consecutive pieces of triple columns, numbered from 0."""
    names = TRIPLE_COLUMNS[1:]  # all but triple_id
    return events._numbered({name: np.concatenate([p[name] for p in pieces]) for name in names})


def random_stream(seed, n_triples, spacing, rate, n_cluster, n_bins=8) -> EventStream:
    """Triples on a grid, extra D0s forced next to grid D0s, uniform dark counts; no time before 0."""
    rng = np.random.default_rng(seed)
    base = np.arange(n_triples, dtype=np.int64) * spacing
    times = [base, base + rng.integers(1, 11, n_triples), base + rng.integers(1, 11, n_triples)]
    codes = [
        np.zeros(n_triples, dtype=np.int64),
        rng.integers(1, 5, n_triples),
        rng.integers(5, 9, n_triples),
    ]
    if n_triples:
        near = rng.choice(base, n_cluster) + rng.integers(-40, 41, n_cluster)
        times.append(np.maximum(near, 0))
        codes.append(np.zeros(n_cluster, dtype=np.int64))
    span = int(base[-1]) + 10 if n_triples else 0
    n_bg = int(rng.poisson(rate * span))
    times.append(rng.integers(0, span + 1, n_bg))
    codes.append(rng.integers(0, len(DETECTOR_LABELS), n_bg))
    t = np.concatenate(times)
    code = np.concatenate(codes)
    order = np.lexsort((rng.random(len(t)), t))  # ties in random order
    code = code[order]
    x = np.where(code == CODE_D0, rng.integers(0, n_bins, len(t)), -1)
    return EventStream(detector=code, time_ns=t[order], x_bin=x, n_bins=n_bins)


def assert_batches_equal(got: TripleBatch, want: TripleBatch):
    for name in TRIPLE_COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def assert_streams_equal(got: EventStream, want: EventStream):
    for name in EVENT_COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.n_bins == want.n_bins


# ---------------------------------------------------------------------------
# stream builders
# ---------------------------------------------------------------------------

# dark-count rates up to one per 2 ns, so dark counts often share a
# nanosecond with each other and with signal records
dark_rates = st.one_of(st.sampled_from([0.0, 1e-3, 0.5]), st.floats(0.0, 0.5))

# dark-count window targets: one window, a few, and about one dark count a
# window, so that many windows are empty
window_targets = [10**9, 400, 1]


@fast
@given(
    seed=seeds,
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    block_size=st.integers(1, 100),
    pair_rate_scale=st.one_of(st.just(25.0), st.floats(0.5, 25.0)),
    taps=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    rate=dark_rates,
)
def test_stream_build_equals_lexsort_build(seed, bits, block_size, pair_rate_scale, taps, rate):
    config = dataclasses.replace(
        make_config(bits, block_size, *taps), pair_rate_scale=pair_rate_scale
    )
    triples = sample_triples(config, seed)
    assert_batches_equal(triples, oracles.sample_triples_concat(config, seed))
    stream = emit_events(triples, config, seed)
    assert_streams_equal(stream, oracles.emit_events_lexsort(triples, config, seed))
    noisy = inject_background(stream, rate, seed)
    assert_streams_equal(noisy, oracles.inject_background_lexsort(stream, rate, seed))


@fast
@given(
    seed=seeds,
    n=st.integers(0, 80),
    span=st.integers(0, 60),
    rate=dark_rates,
    target=st.sampled_from(window_targets),
)
def test_background_merge_equals_lexsort_on_any_sorted_stream(monkeypatch, seed, n, span, rate, target):
    """Any time-sorted stream, ties included, in any number of windows."""
    monkeypatch.setattr(events, "_DARK_WINDOW", target)
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, span + 1, n))
    code = rng.integers(0, len(DETECTOR_LABELS), n)
    stream = EventStream(
        detector=code,
        time_ns=t,
        x_bin=np.where(code == CODE_D0, rng.integers(0, 8, n), -1),
        n_bins=8,
    )
    noisy = inject_background(stream, rate, seed)
    assert_streams_equal(noisy, oracles.inject_background_lexsort(stream, rate, seed))


@pytest.mark.parametrize("target", window_targets)
@pytest.mark.parametrize("chunk", [1, 13, 45, 89, 10**9])
def test_event_chunks_join_to_the_whole_stream_build(tmp_path, monkeypatch, chunk, target):
    """event_chunks' pieces, joined, are inject_background(emit_events(...)) at any chunking.

    Both draw the dark counts window by window from one generator.  A piece
    ends at the next batch's first D0 or at its window's end, whichever
    comes first, so each piece is non-empty and its times fall in one cell
    between consecutive batch starts and window ends: its signal records
    come from one batch and its dark counts from one window.  The
    background's span ends at the last triple's later idler, which
    event_chunks reads off the last chunk of its pass over the delays: 89
    leaves that chunk one triple, and 45 makes two full chunks.  Each piece
    is a plain mapping of the columns an event-log reader pass holds, so
    the matcher takes either.
    """
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
    monkeypatch.setattr(events, "_DARK_WINDOW", target)
    seed = 7
    config = dataclasses.replace(make_config((1, 0, 1), 30), pair_rate_scale=25.0)  # 40 ns apart
    n = config.schedule.n_triples
    cuts = np.arange(chunk, n, chunk) * 40
    for rate in (0.0, 1e-3, 0.5):
        stream = emit_events(sample_triples(config, seed), config, seed)
        whole = inject_background(stream, rate, seed)
        assert_streams_equal(whole, oracles.inject_background_lexsort(stream, rate, seed))
        records, chunks = events.event_chunks(config, seed, rate)
        pieces = list(chunks)
        assert records == len(whole)
        log = tmp_path / "events.csv"
        events.write_event_log(log, pieces, header(), records)
        read_pass = next(iter(events._StreamPasses(log, events._EVENT_LOG)))
        dtypes = {name: column.dtype for name, column in read_pass.items()}
        for piece in pieces:
            assert type(piece) is dict and {name: c.dtype for name, c in piece.items()} == dtypes
        joined = {name: np.concatenate([p[name] for p in pieces]) for name in EVENT_COLUMNS}
        assert_streams_equal(EventStream(**joined, n_bins=whole.n_bins), whole)
        # the windows themselves: empty ones where a window holds about one dark
        # count, and windows that hold dark counts on both sides of a chunk's edge
        t1 = int(stream.time_ns[-1])
        total, windows = events._dark_windows(rate, 0, t1, stream.n_bins, seed)
        counts, ends, straddled = [], [], 0
        for end, columns in windows:
            times = columns["time_ns"]
            counts.append(len(times))
            ends.append(end)
            straddled += int(((times.min(initial=t1) < cuts) & (cuts <= times.max(initial=0))).sum())
        assert sum(counts) == total == len(whole) - 3 * n
        assert len(counts) == max(1, -(-total // target))
        cells = np.union1d(cuts, ends)
        for piece in pieces:
            assert len(piece["time_ns"])
            assert len(np.unique(np.searchsorted(cells, piece["time_ns"], side="right"))) == 1
        if rate != 0.5:
            continue
        assert (0 in counts) == (target == 1)
        if target > 1 and chunk < n:
            assert straddled


# ---------------------------------------------------------------------------
# matcher
# ---------------------------------------------------------------------------


# one triple per chunk (3-record matcher slices), a prime, and the whole run
chunk_triples = st.sampled_from([1, 13, 10**9])


@fast
@given(
    seed=seeds,
    n_triples=st.integers(0, 60),
    spacing=st.integers(40, 200),
    rate=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
    n_cluster=st.integers(0, 20),
    window=st.integers(0, 40),
    block_size=st.integers(1, 20),
    chunk=chunk_triples,
)
def test_matcher_equals_loop(
    monkeypatch, seed, n_triples, spacing, rate, n_cluster, window, block_size, chunk
):
    """At any slicing: D0s whose windows and clusters straddle a slice's end stay queued."""
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
    stream = random_stream(seed, n_triples, spacing, rate, n_cluster)
    kw = {"block_size": block_size, "spacing_ns": spacing}
    got, got_orphans = match_coincidences(stream, window, **kw)
    want, want_orphans = oracles.match_coincidences_loop(stream, window, **kw)
    assert_batches_equal(got, want)
    assert got_orphans.total == want_orphans.total
    assert list(got_orphans.by_detector.items()) == list(want_orphans.by_detector.items())


@pytest.mark.parametrize("chunk", [1, 13, 10**9])
def test_matcher_dense_clusters_equal_loop(monkeypatch, chunk):
    """Every D0 clustered: the run walk carries pointers across whole runs and slices."""
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
    stream = random_stream(5, 400, 40, 5e-2, 400)
    kw = {"block_size": 7, "spacing_ns": 40}
    for window in (0, 1, 7, 20, 40):
        got, got_orphans = match_coincidences(stream, window, **kw)
        want, want_orphans = oracles.match_coincidences_loop(stream, window, **kw)
        assert_batches_equal(got, want)
        assert got_orphans.total == want_orphans.total
        assert list(got_orphans.by_detector.items()) == list(want_orphans.by_detector.items())


@pytest.mark.parametrize("size", [1, 13])
@pytest.mark.parametrize(
    "kept",
    [
        pytest.param(lambda code: code <= 4, id="alisha-never-fires"),
        pytest.param(lambda code: code == CODE_D0, id="d0s-only"),
        pytest.param(lambda code: code != CODE_D0, id="idlers-only"),
    ],
)
def test_matcher_queues_hold_only_what_a_later_record_can_meet(kept, size):
    """A one-sided stream cannot grow what the matcher holds between feeds.

    After each feed every queued D0 lies at or after the last time less w,
    and every queued idler at or after the last time less 2w, whatever the
    stream lacks; the result still equals the loop matcher's.
    """
    full = random_stream(11, 300, 40, 2e-2, 100)
    keep = kept(full.detector)
    stream = EventStream(
        **{name: getattr(full, name)[keep] for name in EVENT_COLUMNS}, n_bins=full.n_bins
    )
    for window in (0, 7, 20):
        matcher = events._Matcher(window, 7, 40)
        pieces = []
        for lo in range(0, len(stream), size):
            piece = {name: getattr(stream, name)[lo : lo + size] for name in EVENT_COLUMNS}
            pieces.append(matcher.feed(piece))
            (td, _), *arms = matcher.queues
            assert (td >= matcher.last - window).all()
            for ti, _ in arms:
                assert (ti >= matcher.last - 2 * window).all()
        got = joined_batch([*pieces, matcher.finish()])
        want, want_orphans = oracles.match_coincidences_loop(
            stream, window, block_size=7, spacing_ns=40
        )
        assert_batches_equal(got, want)
        assert list(matcher.report.by_detector.items()) == list(want_orphans.by_detector.items())


def test_matcher_carries_its_pointers_past_a_match_of_the_array_pass(monkeypatch):
    """A slice's last decided D0, matched by the array pass, leaves its idlers behind it.

    With 9-record slices and w = 10, the first slice decides the D0s at 0
    and 100 (both isolated, so matched in the array pass) and defers the D0
    at 112, whose window reaches back to 100's idlers at 105 and 106.  The
    idler queues must drop everything up to the last match, so 112 takes
    the idlers at 115 and 116.
    """
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", 3)
    stream = EventStream(
        detector=[CODE_D0, 1, 5, CODE_D0, 2, 6, CODE_D0, 3, 7],
        time_ns=[0, 3, 4, 100, 105, 106, 112, 115, 116],
        x_bin=[0, -1, -1, 1, -1, -1, 2, -1, -1],
        n_bins=8,
    )
    got, orphans = match_coincidences(stream, 10, block_size=1, spacing_ns=1000)
    want, _ = oracles.match_coincidences_loop(stream, 10, block_size=1, spacing_ns=1000)
    assert_batches_equal(got, want)
    assert got.babu.tolist() == [0, 1, 2] and got.alisha.tolist() == [0, 1, 2]
    assert orphans.total == 0


# ---------------------------------------------------------------------------
# simulate's chunked stream path against the whole-run pipeline
# ---------------------------------------------------------------------------


def assert_simulate_equals_whole_run(tmp_path, capsys, config, seed, window, rate):
    """simulate's files and stdout, and the library path's orphans, equal simulate_whole's."""
    path = tmp_path / "config.json"
    save_config(config, path)
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(path), "--out", str(out), "--seed", str(seed)]
    argv += ["--window-ns", str(window), "--background-rate", repr(rate)]
    assert cli.main(argv) == 0
    header = read_triples(out / "triples.csv")[1]
    events_csv, triples_csv, stdout, orphans = oracles.simulate_whole(config, header, rate)
    assert capsys.readouterr().out == stdout
    assert (out / "events.csv").read_bytes() == events_csv
    assert (out / "triples.csv").read_bytes() == triples_csv
    records, chunks = events.event_chunks(config, seed, rate)
    with tempfile.TemporaryFile() as spill:
        _, matched, _, got_orphans = events.write_and_match(
            tmp_path / "events.csv", header, records, chunks, spill
        )
        spill.seek(0)
        rows = spill.read()
    assert triples_csv.endswith(rows) and rows.count(b"\n") == matched
    assert got_orphans.total == orphans.total
    assert list(got_orphans.by_detector.items()) == list(orphans.by_detector.items())


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=seeds,
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    block_size=st.integers(1, 40),
    pair_rate_scale=st.one_of(st.just(25.0), st.floats(5.0, 25.0)),  # 40 to 200 ns apart
    rate=st.one_of(st.sampled_from([0.0, 0.02, 0.5]), st.floats(0.0, 0.1)),
    window_share=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    chunk=chunk_triples,
    target=st.sampled_from(window_targets),
)
def test_simulate_chunks_equal_the_whole_run(
    tmp_path, monkeypatch, capsys, seed, bits, block_size, pair_rate_scale, rate, window_share,
    chunk, target,
):
    """Any chunking, dark-count rate (0 included) and window count, window (0 to half the spacing)."""
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
    monkeypatch.setattr(events, "_DARK_WINDOW", target)
    config = dataclasses.replace(make_config(bits, block_size), pair_rate_scale=pair_rate_scale)
    window = int(window_share * events.triple_spacing_ns(pair_rate_scale))
    assert_simulate_equals_whole_run(tmp_path, capsys, config, seed, window, rate)


@pytest.mark.parametrize("chunk", [1, 13])
def test_simulate_chunk_cuts_meet_dark_counts_and_open_windows(
    tmp_path, monkeypatch, capsys, chunk
):
    """Dark counts timed exactly at a cut, and D0s within w before a cut with idlers past it.

    A cut is the next chunk's first D0 time; a dark count there goes after
    that D0, into the next chunk.  A D0 less than w before a cut is decided
    only once the records past the cut are in.
    """
    monkeypatch.setattr(events, "_CHUNK_TRIPLES", chunk)
    seed, window, rate = 3, 20, 0.5
    config = dataclasses.replace(make_config((1, 0, 1), 30), pair_rate_scale=25.0)  # 40 ns apart
    n = config.schedule.n_triples
    triples = oracles.sample_triples_concat(config, seed)
    stream = oracles.emit_events_lexsort(triples, config, seed)
    stream, dark = oracles.background_lexsort(stream, rate, seed)
    cuts = np.arange(chunk, n, chunk) * 40
    assert np.isin(stream.time_ns[dark], cuts).any()
    d0 = stream.time_ns[stream.detector == CODE_D0]
    idlers = stream.time_ns[stream.detector != CODE_D0]
    straddling = [
        t0 for t0 in d0.tolist() for cut in cuts.tolist()
        if cut - window <= t0 < cut and ((idlers >= cut) & (idlers <= t0 + window)).any()
    ]
    assert straddling
    assert_simulate_equals_whole_run(tmp_path, capsys, config, seed, window, rate)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def random_x_bin(rng, n, big):
    """x_bin values a field holds, with big: any in 0..X_MAX, the extremes included."""
    if not big:
        return rng.integers(0, 1001, n)
    extreme = rng.choice([0, X_MAX], n)
    return np.where(rng.random(n) < 0.2, extreme, rng.integers(0, X_MAX + 1, n))


def random_batch(rng, n, big) -> TripleBatch:
    """Random columns but triple_id, which a triples file holds as its row numbers."""
    hi = BIG if big else 1000
    return TripleBatch(
        triple_id=np.arange(n),
        x_bin=random_x_bin(rng, n, big),
        babu=rng.integers(0, 4, n),
        alisha=rng.integers(0, 4, n),
        block_index=rng.integers(0, hi + 1, n),
    )


def random_events(rng, n, big) -> EventStream:
    hi = BIG if big else 1000
    code = rng.integers(0, len(DETECTOR_LABELS), n)
    return EventStream(
        detector=code,
        time_ns=rng.integers(0, hi + 1, n),
        x_bin=np.where(code == CODE_D0, random_x_bin(rng, n, big), -1),
        n_bins=8,
    )


# 1 and 7 rows per block put a block boundary between (nearly) every two rows
chunks = st.sampled_from([1, 7, 65_536])
# reads of 1 to 16 bytes split (nearly) every line across reads, at any byte
reads = st.one_of(st.integers(1, 16), st.just(1 << 20))


@fast
@given(seed=seeds, n=st.integers(0, 40), big=st.booleans(), chunk=chunks, read=reads)
def test_readers_roundtrip_equal_line_readers(tmp_path, monkeypatch, seed, n, big, chunk, read):
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(events, "_READ_BYTES", read)
    rng = np.random.default_rng(seed)
    hdr = header()
    path = tmp_path / "triples.csv"
    oracles.write_triples(path, random_batch(rng, n, big), hdr)
    got, got_hdr = read_triples(path)
    want, want_hdr = oracles.read_triples_lines(path)
    assert got_hdr == want_hdr == hdr
    assert_batches_equal(got, want)

    path = tmp_path / "events.csv"
    oracles.write_event_log(path, random_events(rng, n, big), hdr)
    got, got_hdr = read_event_log(path)
    want, want_hdr = oracles.read_event_log_lines(path)
    assert got_hdr == want_hdr == hdr
    assert_streams_equal(got, want)


# what a channel field may be mutated to: another channel, one past its labels, a
# negative, zero-padded or signed number, a label, or nothing
CHANNEL_MUTANTS = [b"0", b"3", b"4", b"8", b"9", b"-1", b"-0", b"00", b"01", b"+1", b"D1", b"D2'", b""]


# the ways a stream file is damaged: cut short, a byte flipped, a channel field replaced,
# a '-' put before a field, or a first field of 19 or more digits
MUTATIONS = ["truncate", "flip", "channel", "signed", "oversized"]


def mutate_stream_file(data: bytes, rng, kind: str, channels: tuple) -> bytes:
    """data, a stream file's bytes, damaged one of the MUTATIONS ways; channels are field positions."""
    if kind == "truncate":
        return data[: rng.integers(0, len(data))]
    if kind == "flip":
        i = rng.integers(0, len(data))
        return data[:i] + bytes([rng.integers(0, 256)]) + data[i + 1 :]
    rows = data.split(b"\n")
    if kind in ("channel", "signed"):  # one field of one data row
        i = rng.choice([i for i, row in enumerate(rows) if row and not row.startswith(b"#")])
        fields = rows[i].split(b",")
        if kind == "channel":  # at channels' positions
            fields[rng.choice(channels)] = CHANNEL_MUTANTS[rng.integers(len(CHANNEL_MUTANTS))]
        else:  # a '-' before any field
            j = rng.integers(len(fields))
            fields[j] = b"-" + fields[j]
        rows[i] = b",".join(fields)
        return b"\n".join(rows)
    # oversized integer: 19 or more digits in place of a row's first field
    i = int(rng.integers(13, len(rows) - 1)) if len(rows) > 14 else len(rows) - 1
    rows[i] = b"9" * int(rng.integers(19, 25)) + rows[i][rows[i].find(b",") :]
    return b"\n".join(rows)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=seeds,
    which=st.sampled_from(["triples", "events"]),
    kind=st.sampled_from(MUTATIONS),
    chunk=chunks,
    read=reads,
)
def test_fuzzed_files_fail_only_with_value_error(
    tmp_path, monkeypatch, seed, which, kind, chunk, read
):
    """A damaged file either reads as the line reader reads it, or raises ValueError.

    A signed field always raises: every stream integer is unsigned.
    """
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(events, "_READ_BYTES", read)
    rng = np.random.default_rng(seed)
    path = tmp_path / "stream.csv"
    if which == "triples":
        oracles.write_triples(path, random_batch(rng, 6, big=False), header())
        read, oracle, columns = read_triples, oracles.read_triples_lines, TRIPLE_COLUMNS
        channels = (2, 3)
    else:
        oracles.write_event_log(path, random_events(rng, 6, big=False), header())
        read, oracle, columns = read_event_log, oracles.read_event_log_lines, EVENT_COLUMNS
        channels = (0,)
    path.write_bytes(mutate_stream_file(path.read_bytes(), rng, kind, channels))
    try:
        got, got_hdr = read(path)
    except ValueError as exc:
        assert "\n" not in str(exc), f"multi-line reader error: {exc}"
        return
    assert kind != "signed", "a signed field was read"
    want, want_hdr = oracle(path)  # anything the strict grammar accepts, int() accepts
    assert got_hdr == want_hdr
    for name in columns:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@fast
@given(
    seed=seeds,
    n=st.integers(1, 30),
    which=st.sampled_from(["triples", "events"]),
    chunk=chunks,
    read=reads,
)
def test_readers_take_any_line_ends_and_blank_lines(
    tmp_path, monkeypatch, seed, n, which, chunk, read
):
    """CRLF and CR line ends and runs of blank lines anywhere, across block and read boundaries."""
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(events, "_READ_BYTES", read)
    rng = np.random.default_rng(seed)
    path = tmp_path / "stream.csv"
    if which == "triples":
        record = random_batch(rng, n, big=False)
        oracles.write_triples(path, record, header())
        read, oracle, columns = read_triples, oracles.read_triples_lines, TRIPLE_COLUMNS
    else:
        record = random_events(rng, n, big=False)
        oracles.write_event_log(path, record, header())
        read, oracle, columns = read_event_log, oracles.read_event_log_lines, EVENT_COLUMNS
    ends = [b"\n", b"\r\n", b"\r"]
    lines = []
    for line in path.read_bytes().splitlines():
        lines.append(line + ends[rng.integers(3)])
        lines += [ends[i] for i in rng.integers(0, 3, rng.integers(0, 3))]
    data = b"".join(lines)
    path.write_bytes(data.rstrip(b"\r\n") if rng.random() < 0.3 else data)
    got, got_hdr = read(path)
    want, want_hdr = oracle(path)
    assert got_hdr == want_hdr == header()
    for name in columns:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        np.testing.assert_array_equal(getattr(got, name), getattr(record, name), err_msg=name)


def test_read_lines_yield_whole_lines_at_any_read_size(monkeypatch):
    """Each read's lines end in "\n"; a "\r" at a read's end waits for a "\n" after it."""
    data = b"# a=1\r\n\r\n1,2\r3,4\n\r\r\n5,6\r\n7"
    want = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") + b"\n"
    for read in range(1, len(data) + 2):
        monkeypatch.setattr(events, "_READ_BYTES", read)
        got = list(events._read_lines(io.BytesIO(data)))
        assert all(lines.endswith(b"\n") for lines in got)
        assert b"".join(got) == want, read


def numbered_batch(n) -> TripleBatch:
    n = np.arange(n)
    return TripleBatch(triple_id=n, x_bin=n * 3, babu=n % 4, alisha=n // 4 % 4, block_index=n // 5)


@pytest.mark.parametrize("read", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("chunk", [1, 2, 65_536])
def test_reader_joins_lines_split_across_reads(tmp_path, monkeypatch, read, chunk):
    """Every line end kind, blank lines included, straddles a read boundary at 1 byte a read."""
    monkeypatch.setattr(events, "_READ_BYTES", read)
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    batch = numbered_batch(12)
    path = tmp_path / "triples.csv"
    oracles.write_triples(path, batch, header())
    # "\r\n", a lone "\r", and a blank line after "\n", "\r" and "\r\n"
    ends = [b"\r\n", b"\r", b"\n\n", b"\r\r\n", b"\n\r\n"]
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines)))
    got, hdr = read_triples(path)
    assert hdr == header()
    assert_batches_equal(got, batch)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reader_takes_a_pipe(tmp_path):
    """A pipe has no size to bound n_rows by; its rows are read all the same."""
    batch = numbered_batch(40)
    path = tmp_path / "triples.csv"
    oracles.write_triples(path, batch, header())
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    got, hdr = read_triples(pipe)
    writer.join(timeout=10)
    assert hdr == header()
    assert_batches_equal(got, batch)


def _late_bad_integer(head, rows):
    rows[30] = "1_0" + rows[30][rows[30].index(",") :]
    return f"bad integer '1_0' in triple row (want [0-9]{{1,18}}): {rows[30]!r}"


def _late_field_count_before_early_grammar(head, rows):
    rows[3] = "1_0" + rows[3][rows[3].index(",") :]
    rows[30] = rows[30].rsplit(",", 1)[0]
    return f"malformed triple row: {rows[30]!r}"


def _set_x_bin(rows, i, value):
    parts = rows[i].split(",")
    parts[1] = value
    rows[i] = ",".join(parts)


def _late_x_bin_past_int32(head, rows):
    _set_x_bin(rows, 30, "4294967297")
    return f"x_bin 4294967297 is outside 0..2147483647 in triple row: {rows[30]!r}"


def _late_field_count_before_early_x_bin(head, rows):
    _set_x_bin(rows, 3, "-2147483649")
    rows[30] = rows[30].rsplit(",", 1)[0]
    return f"malformed triple row: {rows[30]!r}"


def _early_x_bin_before_late_bad_integer(head, rows):
    _set_x_bin(rows, 3, "2147483648")
    rows[30] = "1_0" + rows[30][rows[30].index(",") :]
    return f"x_bin 2147483648 is outside 0..2147483647 in triple row: {rows[3]!r}"


def _late_signed_field(head, rows):
    _set_x_bin(rows, 30, "-1")
    return f"bad integer '-1' in triple row (want [0-9]{{1,18}}): {rows[30]!r}"


def _late_header_line(head, rows):
    rows[30] = "# late=1"
    return "header line after the first data row: '# late=1'"


def _late_channel_past_its_labels(head, rows):
    rows[30] = rows[30].rsplit(",", 1)[0] + ",4"
    return f"alisha 4 is outside 0..3 in triple row: {rows[30]!r}"


def _extra_row_before_field_count(head, rows):
    rows[3] = rows[3].rsplit(",", 1)[0]
    rows.append(rows[0])
    return "triples file declares 40 rows but contains 41; file is truncated or corrupt"


def _missing_rows(head, rows):
    del rows[20:22]
    return "triples file declares 40 rows but contains 38; file is truncated or corrupt"


def _n_rows(declared):
    def edit(head, rows):
        head.append(f"# n_rows={declared}")  # a later n_rows line overrides the first
        return (
            f"triples file declares {declared} rows but contains 40; file is truncated or corrupt"
        )

    return edit


def _signed_n_rows(head, rows):
    head.append("# n_rows=-1")  # before any row is counted: a header integer is unsigned
    return "stream header field n_rows='-1' is not an integer"


def _short_rows_past_the_size_bound(head, rows):
    # 5 bytes a row, under a triple's shortest good row: the declared count is
    # more than the file's size holds, and still the rows' own count
    rows[:] = ["0,,,"] * 200
    head.append("# n_rows=200")
    return "bad integer '' in triple row (want [0-9]{1,18}): '0,,,'"


ROW_FAULTS = {
    "late bad integer": _late_bad_integer,
    "late field count before early grammar": _late_field_count_before_early_grammar,
    "late header line": _late_header_line,
    "late x_bin past int32": _late_x_bin_past_int32,
    "late signed field": _late_signed_field,
    "late field count before early x_bin": _late_field_count_before_early_x_bin,
    "early x_bin before late bad integer": _early_x_bin_before_late_bad_integer,
    "late channel past its labels": _late_channel_past_its_labels,
    "extra row before field count": _extra_row_before_field_count,
    "missing rows": _missing_rows,
    "n_rows past the file": _n_rows(BIG),
    "n_rows signed": _signed_n_rows,
    "short rows past the size bound": _short_rows_past_the_size_bound,
}


def assert_fault_message(path, fault):
    oracles.write_triples(path, numbered_batch(40), header())
    text = path.read_text()
    head = [line for line in text.splitlines() if line.startswith("#")]
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    message = ROW_FAULTS[fault](head, rows)
    path.write_text("\n".join(head + rows) + "\n")
    with pytest.raises(ValueError) as info:
        read_triples(path)
    assert str(info.value) == message


@pytest.mark.parametrize("chunk", [1, 7, 65_536])
@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_reader_faults_in_any_block_keep_their_message(tmp_path, monkeypatch, fault, chunk):
    """The row count, then field counts, then the grammar, wherever the faulty rows sit."""
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    assert_fault_message(tmp_path / "triples.csv", fault)


@pytest.mark.parametrize("read", [1, 7])
@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_reader_faults_across_reads_keep_their_message(tmp_path, monkeypatch, fault, read):
    """The same order and messages when each faulty row straddles read boundaries."""
    monkeypatch.setattr(events, "_READ_BYTES", read)
    assert_fault_message(tmp_path / "triples.csv", fault)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

# every digit count and the largest values; a field is unsigned
field_ints = st.one_of(
    st.sampled_from([0, 1, 9, 10, 99, 100, BIG - 1, BIG]),
    st.integers(0, BIG),
    st.integers(0, BIG).map(lambda v: v // 10 ** (v % 18)),
)


x_bin_ints = st.one_of(
    st.sampled_from([0, 1, 9, 10, X_MAX, X_MAX - 1]),
    st.integers(0, X_MAX),
)


def int_column(data, n, ints=field_ints):
    return np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)


def data_rows(path) -> bytes:
    """The file's bytes after its '#' header lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b"#"))


@fast
@given(data=st.data(), n=st.integers(0, 40), chunk=st.sampled_from([1, 7, 65_536]))
def test_writers_equal_fstring_rows(tmp_path, monkeypatch, data, n, chunk):
    """Both writers' rows are the f-string formatters' rows byte for byte, at any chunking."""
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    hdr = header()
    codes = int_column(data, n, st.integers(0, len(DETECTOR_LABELS) - 1))
    # a non-D0 row leaves x_bin empty, which reads as -1, the only x_bin it may hold
    stream = EventStream(
        detector=codes,
        time_ns=int_column(data, n),
        x_bin=np.where(codes == CODE_D0, int_column(data, n, x_bin_ints), -1),
        n_bins=8,
    )
    outcomes = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    batch = TripleBatch(
        triple_id=int_column(data, n),
        x_bin=int_column(data, n, x_bin_ints),
        babu=data.draw(outcomes),
        alisha=data.draw(outcomes),
        block_index=int_column(data, n),
    )
    for write, record, rows in (
        (oracles.write_event_log, stream, oracles.event_log_rows),
        (oracles.write_triples, batch, oracles.triples_rows),
    ):
        path = tmp_path / "stream.csv"
        digest = write(path, record, hdr)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert data_rows(path) == rows(record).encode("ascii")


def test_writers_cover_every_label(tmp_path):
    n = len(DETECTOR_LABELS)
    every = np.arange(n)
    stream = EventStream(
        detector=every, time_ns=every, x_bin=np.where(every == CODE_D0, 7, -1), n_bins=8
    )
    oracles.write_event_log(tmp_path / "events.csv", stream, header())
    assert data_rows(tmp_path / "events.csv") == oracles.event_log_rows(stream).encode("ascii")
    assert data_rows(tmp_path / "events.csv").startswith(b"0,0,7\n1,1,\n")
    every = np.arange(4)
    batch = TripleBatch(
        triple_id=every, x_bin=every, babu=every, alisha=every[::-1], block_index=every * 0
    )
    oracles.write_triples(tmp_path / "triples.csv", batch, header())
    assert data_rows(tmp_path / "triples.csv") == oracles.triples_rows(batch).encode("ascii")


@fast
@given(data=st.data(), extra=st.integers(0, 20), chunk=chunks, read=reads)
def test_every_channel_round_trips(tmp_path, monkeypatch, data, extra, chunk, read):
    """Every detector code 0..8 and outcome 0..3, in any order, reads back as written.

    Each code is in every drawn file; a row holds it as its decimal digit,
    and both readers give it back.
    """
    monkeypatch.setattr(events, "_CHUNK_ROWS", chunk)
    monkeypatch.setattr(events, "_READ_BYTES", read)

    def codes(n):
        every = data.draw(st.permutations(range(n)))
        return np.array(every + data.draw(st.lists(st.integers(0, n - 1), min_size=extra, max_size=extra)))

    detector = codes(len(DETECTOR_LABELS))
    n = len(detector)
    stream = EventStream(
        detector=detector, time_ns=np.arange(n), x_bin=np.where(detector == CODE_D0, 3, -1), n_bins=8
    )
    babu, alisha = codes(4), codes(4)
    m = len(babu)
    batch = TripleBatch(
        triple_id=np.arange(m), x_bin=np.zeros(m), babu=babu, alisha=alisha, block_index=np.zeros(m)
    )
    cases = (  # per file, its channel columns by field position
        (oracles.write_event_log, stream, read_event_log, oracles.read_event_log_lines, {0: detector}),
        (oracles.write_triples, batch, read_triples, oracles.read_triples_lines, {2: babu, 3: alisha}),
    )
    for write, record, read, oracle, channels in cases:
        path = tmp_path / "stream.csv"
        write(path, record, header())
        rows = [row.split(b",") for row in data_rows(path).splitlines()]
        for f, column in channels.items():
            assert [int(row[f]) for row in rows] == column.tolist()
        for got in (read(path)[0], oracle(path)[0]):
            for name, column in vars(record).items():
                if name != "n_bins":
                    np.testing.assert_array_equal(getattr(got, name), column, err_msg=name)


@pytest.mark.parametrize(
    "which, column, value",
    [
        ("triples", "block_index", 10**18),
        ("triples", "block_index", -(2**63)),
        ("triples", "block_index", -(10**18)),
        ("triples", "block_index", -1),
        ("triples", "x_bin", -1),
        ("events", "time_ns", 2**63 - 1),
        ("events", "time_ns", 10**18),
        ("events", "time_ns", -1),
        ("events", "x_bin", -1),
        ("events", "x_bin", X_MIN),
        ("events", "detector", len(DETECTOR_LABELS)),
        ("events", "detector", -1),
    ],
)
def test_writers_refuse_what_readers_refuse(tmp_path, which, column, value):
    """A field outside the row grammar fails in one line, naming column and row; no file."""
    rng = np.random.default_rng(0)
    path = tmp_path / "stream.csv"
    if which == "triples":
        record, write, what = random_batch(rng, 5, big=False), oracles.write_triples, "triples file"
    else:
        record, write, what = random_events(rng, 5, big=False), oracles.write_event_log, "event log"
        record.detector[3] = CODE_D0  # so row 3 writes its x_bin
    getattr(record, column)[3] = value
    with pytest.raises(ValueError) as info:
        write(path, record, header())
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"cannot write {what}: {column} {value} in row 3 ")
    assert not path.exists()


@pytest.mark.parametrize("x", [X_MIN, -7, 0, 5, X_MAX])
def test_event_log_writer_refuses_x_bin_off_d0(tmp_path, x):
    """A non-D0 row leaves x_bin empty, which reads as -1: any other x_bin there is refused.

    The message names the column, the value and the row, and no file is
    left behind; -1 there is written as the empty field.
    """
    path = tmp_path / "events.csv"
    stream = EventStream(detector=[0, 1, 5], time_ns=[0, 3, 4], x_bin=[3, -1, x], n_bins=8)
    with pytest.raises(ValueError) as info:
        oracles.write_event_log(path, stream, header())
    assert str(info.value) == (
        f"cannot write event log: x_bin {x} in row 2 is not -1 on a non-D0 row, "
        "which leaves x_bin empty"
    )
    assert not path.exists()
    stream.x_bin[2] = -1
    oracles.write_event_log(path, stream, header())
    assert data_rows(path) == b"0,0,3\n1,3,\n5,4,\n"
    assert read_event_log(path)[0].x_bin.tolist() == [3, -1, -1]


def test_shortest_rows_come_from_the_formats_and_read_back(tmp_path):
    """The shortest row simulate's disk budget counts: 5 bytes an event record, 8 a triple.

    A digit per written field, an empty x_bin off D0, the separators and
    "\n"; a file of rows that short reads back.
    """
    assert (events._EVENT_LOG.min_row_bytes, events._TRIPLES.min_row_bytes) == (5, 8)
    stream = EventStream(detector=[1, 5, 8], time_ns=[0, 3, 9], x_bin=[-1, -1, -1], n_bins=8)
    batch = TripleBatch(
        triple_id=[0, 1], x_bin=[0, 7], babu=[0, 3], alisha=[1, 2], block_index=[0, 9]
    )
    for fmt, write, read, record, same in (
        (events._EVENT_LOG, oracles.write_event_log, read_event_log, stream, assert_streams_equal),
        (events._TRIPLES, oracles.write_triples, read_triples, batch, assert_batches_equal),
    ):
        path = tmp_path / "stream.csv"
        write(path, record, header())
        rows = data_rows(path).splitlines(keepends=True)
        assert {len(row) for row in rows} == {fmt.min_row_bytes}
        same(read(path)[0], record)


@pytest.mark.parametrize("declared", [11, 13])
def test_event_log_pieces_must_hold_the_declared_rows(tmp_path, monkeypatch, declared):
    """Pieces written under an n_rows they do not add up to are refused, and the file removed."""
    monkeypatch.setattr(events, "_CHUNK_ROWS", 5)
    stream = random_events(np.random.default_rng(0), 12, big=False)
    pieces = [{name: getattr(stream, name)[lo : lo + 4] for name in EVENT_COLUMNS} for lo in (0, 4, 8)]
    path = tmp_path / "events.csv"
    with pytest.raises(ValueError) as info:
        events.write_event_log(path, iter(pieces), header(), declared)
    assert str(info.value) == f"cannot write event log: 12 rows where the header declares {declared}"
    assert not path.exists()
    events.write_event_log(path, iter(pieces), header(), 12)
    oracles.write_event_log(tmp_path / "whole.csv", stream, header())
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_x_bin_extremes_round_trip(tmp_path):
    """x_bin at 0 and the int32 maximum through both writers and readers; a sign is refused.

    On a D0 row, the int32 minimum and -1 fail in one line naming the row,
    and leave no file.
    """
    x = np.array([0, X_MAX, 1, X_MAX - 1, 9, 10], dtype=np.int32)
    n = len(x)
    zeros = np.zeros(n)
    batch = TripleBatch(
        triple_id=np.arange(n), x_bin=x, babu=np.arange(n) % 4, alisha=zeros, block_index=zeros
    )
    stream = EventStream(detector=np.zeros(n), time_ns=np.arange(n), x_bin=x, n_bins=8)
    oracles.write_triples(tmp_path / "triples.csv", batch, header())
    oracles.write_event_log(tmp_path / "events.csv", stream, header())
    assert data_rows(tmp_path / "triples.csv") == oracles.triples_rows(batch).encode("ascii")
    assert data_rows(tmp_path / "events.csv") == oracles.event_log_rows(stream).encode("ascii")
    assert data_rows(tmp_path / "triples.csv").startswith(b"0,0,0,0\n0,2147483647,1,0\n")
    assert_batches_equal(read_triples(tmp_path / "triples.csv")[0], batch)
    assert_streams_equal(read_event_log(tmp_path / "events.csv")[0], stream)
    for bad in (X_MIN, -1):
        path = tmp_path / "signed.csv"
        signed = EventStream(detector=[0, 0], time_ns=[0, 1], x_bin=[5, bad], n_bins=8)
        with pytest.raises(ValueError) as info:
            oracles.write_event_log(path, signed, header())
        assert str(info.value) == f"cannot write event log: x_bin {bad} in row 1 is outside 0..{X_MAX}"
        assert not path.exists()


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


@fast
@given(seed=seeds, n=st.integers(0, 3000), n_blocks=st.integers(1, 6), fringe=st.booleans())
def test_decode_grid_equals_per_block_fits(seed, n, n_blocks, fringe):
    geom = default_geometry()
    rng = np.random.default_rng(seed)
    if fringe:  # fringed x draws, so some blocks classify as interference
        u = geom.fringe_frequency * geom.bin_centers
        p = 1.0 + np.cos(u)
        x = rng.choice(geom.n_bins, n, p=p / p.sum())
    else:
        x = rng.integers(0, geom.n_bins, n)
    triples = TripleBatch(
        triple_id=np.arange(n),
        x_bin=x,
        babu=rng.integers(0, 2, n),
        alisha=rng.integers(0, 2, n),
        block_index=rng.integers(0, n_blocks, n),
    )
    schedule = SwitchSchedule(bits=tuple(rng.integers(0, 2, n_blocks).tolist()), block_size=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        for decode, babu in ((decode_omniscient, 0), (decode_alisha_only, None)):
            report = decode(triples, schedule, geom)
            want = oracles.decode_per_block(triples, schedule, geom, babu, 0)
            got = (report.decoded_bits, report.per_block_visibility, report.per_block_stderr)
            assert got == want
