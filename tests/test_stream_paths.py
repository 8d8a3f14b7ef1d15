"""Differential tests: whole-array stream paths against their loop references.

Streams and files are generated from a hypothesis-drawn seed and shape, so a
failing case is reproducible from the printed example.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qeraser.analysis import LowSampleWarning, decode_alisha_only, decode_omniscient
from qeraser.events import (
    CODE_D0,
    DETECTOR_LABELS,
    EventStream,
    SimStreamHeader,
    TripleBatch,
    match_coincidences,
    read_event_log,
    read_triples,
    write_event_log,
    write_triples,
)
from qeraser.experiment import SwitchSchedule, default_geometry

import oracles

TRIPLE_COLUMNS = ("triple_id", "x_bin", "babu", "alisha", "block_index")
EVENT_COLUMNS = ("event_id", "detector", "time_ns", "x_bin")
BIG = 10**18 - 1  # the largest magnitude an integer field may hold

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


def random_stream(seed, n_triples, spacing, rate, n_cluster, n_bins=8) -> EventStream:
    """Triples on a grid, extra D0s forced next to grid D0s, uniform dark counts."""
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
    return EventStream(
        event_id=rng.permutation(len(t)), detector=code, time_ns=t[order], x_bin=x, n_bins=n_bins
    )


def assert_batches_equal(got: TripleBatch, want: TripleBatch):
    for name in TRIPLE_COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def assert_streams_equal(got: EventStream, want: EventStream):
    for name in EVENT_COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.n_bins == want.n_bins


# ---------------------------------------------------------------------------
# matcher
# ---------------------------------------------------------------------------


@fast
@given(
    seed=seeds,
    n_triples=st.integers(0, 60),
    spacing=st.integers(40, 200),
    rate=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
    n_cluster=st.integers(0, 20),
    window=st.integers(0, 40),
    blocks=st.sampled_from(["none", "sequence", "time"]),
)
def test_matcher_equals_loop(seed, n_triples, spacing, rate, n_cluster, window, blocks):
    stream = random_stream(seed, n_triples, spacing, rate, n_cluster)
    kw = {"none": {}, "sequence": {"block_size": 7}, "time": {"block_size": 7, "spacing_ns": spacing}}
    got, got_orphans = match_coincidences(stream, window, **kw[blocks])
    want, want_orphans = oracles.match_coincidences_loop(stream, window, **kw[blocks])
    assert_batches_equal(got, want)
    assert got_orphans.total == want_orphans.total
    assert list(got_orphans.by_detector.items()) == list(want_orphans.by_detector.items())
    np.testing.assert_array_equal(got_orphans.event_ids, want_orphans.event_ids)


def test_matcher_dense_clusters_equal_loop():
    """Every D0 clustered: the run walk carries pointers across whole runs."""
    stream = random_stream(5, 400, 40, 5e-2, 400)
    for window in (0, 1, 7, 20, 40):
        got, got_orphans = match_coincidences(stream, window)
        want, want_orphans = oracles.match_coincidences_loop(stream, window)
        assert_batches_equal(got, want)
        np.testing.assert_array_equal(got_orphans.event_ids, want_orphans.event_ids)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def random_batch(rng, n, big) -> TripleBatch:
    hi = BIG if big else 1000
    return TripleBatch(
        triple_id=rng.integers(-hi, hi + 1, n),
        x_bin=rng.integers(-hi, hi + 1, n),
        babu=rng.integers(0, 4, n),
        alisha=rng.integers(0, 4, n),
        block_index=rng.integers(-hi, hi + 1, n),
    )


def random_events(rng, n, big) -> EventStream:
    hi = BIG if big else 1000
    code = rng.integers(0, len(DETECTOR_LABELS), n)
    return EventStream(
        event_id=rng.integers(-hi, hi + 1, n),
        detector=code,
        time_ns=rng.integers(-hi, hi + 1, n),
        x_bin=np.where(code == CODE_D0, rng.integers(-hi, hi + 1, n), -1),
        n_bins=8,
    )


@fast
@given(seed=seeds, n=st.integers(0, 40), big=st.booleans())
def test_readers_roundtrip_equal_line_readers(tmp_path, seed, n, big):
    rng = np.random.default_rng(seed)
    hdr = header()
    path = tmp_path / "triples.csv"
    write_triples(path, random_batch(rng, n, big), hdr)
    got, got_hdr = read_triples(path)
    want, want_hdr = oracles.read_triples_lines(path)
    assert got_hdr == want_hdr == hdr
    assert_batches_equal(got, want)

    path = tmp_path / "events.csv"
    write_event_log(path, random_events(rng, n, big), hdr)
    got, got_hdr = read_event_log(path)
    want, want_hdr = oracles.read_event_log_lines(path)
    assert got_hdr == want_hdr == hdr
    assert_streams_equal(got, want)


def _mutate(data: bytes, rng, kind: str) -> bytes:
    if kind == "truncate":
        return data[: rng.integers(0, len(data))]
    if kind == "flip":
        i = rng.integers(0, len(data))
        return data[:i] + bytes([rng.integers(0, 256)]) + data[i + 1 :]
    if kind == "label":
        return data.replace(b"D2", b"D7", 1) if rng.random() < 0.5 else data.replace(b"D1'", b"D1\"", 1)
    # oversized integer: 19 or more digits in place of a row's first field
    rows = data.split(b"\n")
    i = int(rng.integers(13, len(rows) - 1)) if len(rows) > 14 else len(rows) - 1
    rows[i] = b"9" * int(rng.integers(19, 25)) + rows[i][rows[i].find(b",") :]
    return b"\n".join(rows)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=seeds,
    which=st.sampled_from(["triples", "events"]),
    kind=st.sampled_from(["truncate", "flip", "label", "oversized"]),
)
def test_fuzzed_files_fail_only_with_value_error(tmp_path, seed, which, kind):
    """A damaged file either reads as the line reader reads it, or raises ValueError."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "stream.csv"
    if which == "triples":
        write_triples(path, random_batch(rng, 6, big=False), header())
        read, oracle, columns = read_triples, oracles.read_triples_lines, TRIPLE_COLUMNS
    else:
        write_event_log(path, random_events(rng, 6, big=False), header())
        read, oracle, columns = read_event_log, oracles.read_event_log_lines, EVENT_COLUMNS
    path.write_bytes(_mutate(path.read_bytes(), rng, kind))
    try:
        got, got_hdr = read(path)
    except ValueError:
        return
    want, want_hdr = oracle(path)  # anything the strict grammar accepts, int() accepts
    assert got_hdr == want_hdr
    for name in columns:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
