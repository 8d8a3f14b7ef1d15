"""Event-level simulation: triple sampling, time tags, matching, logs.

Triples are drawn per schedule block from the exact joint table and then
unrolled into a time-tagged detection stream (one screen record plus two
idler records per triple).  A greedy window matcher rebuilds triples from
the stream, which is the honest route any decoder has to take.

Sampling is factorised: the (screen bin, alisha outcome) pair is drawn from
the babu-independent marginal on its own RNG stream, and babu's outcome is
drawn conditionally on a second stream.  The joint law is unchanged, but
alisha's side of the record is then bit-identical under any change of
babu's splitter program, which turns the no-signalling statement into an
exact file-level fact rather than a statistical one.

All randomness comes from numpy's PCG64 generator seeded through
SeedSequence(seed, spawn_key=(domain, block)); the algorithm id is recorded
in every stream header.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import re
import stat
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .experiment import MODE_DOUBLE, ExperimentConfig, distribution_for
from .optics import ALISHA_LABELS, BABU_LABELS, D3, screen_marginal

RNG_ALGORITHM = "numpy-pcg64-seedseq"
DEFAULT_WINDOW_NS = 20
BASE_SPACING_NS = 1000
MIN_SPACING_NS = 40  # keep triples separated by well over the delay spread

# spawn_key domains, so the streams never collide
_DOMAIN_MARGINAL = 0
_DOMAIN_CONDITIONAL = 1
_DOMAIN_DELAYS = 2
_DOMAIN_BACKGROUND = 3

DETECTOR_LABELS = ("D0",) + BABU_LABELS + ALISHA_LABELS
CODE_D0 = 0
# babu's outcome j is detector code _BABU_CODE + j, alisha's k is _ALISHA_CODE + k
_BABU_CODE = 1
_ALISHA_CODE = _BABU_CODE + len(BABU_LABELS)

# Each record column's dtype, the one declaration the record constructors, the
# producers and the readers go by: detector codes and idler outcomes fit int8,
# screen bins int32 (n_bins <= MAX_BINS), triple ids, times and block indexes int64.
_DTYPE = {
    "time_ns": np.dtype(np.int64),
    "triple_id": np.dtype(np.int64),
    "block_index": np.dtype(np.int64),
    "x_bin": np.dtype(np.int32),
    "detector": np.dtype(np.int8),
    "babu": np.dtype(np.int8),
    "alisha": np.dtype(np.int8),
}


def _set_columns(record, fmt: _Format) -> None:
    """Cast each of record's columns (its attributes with a _DTYPE) to it, checking the values first.

    A channel's values must lie among its fmt labels' indices, any other
    column's in its dtype's range, so no value wraps in the cast; then the
    columns must share one length.  An array already of its dtype is kept,
    not copied.
    """
    names = [name for name in vars(record) if name in _DTYPE]
    channels = {name: (0, len(labels) - 1) for name, labels in fmt.columns if labels}
    for name in names:
        values = np.asarray(getattr(record, name))
        i = np.iinfo(_DTYPE[name])
        lo, hi = channels.get(name, (i.min, i.max))
        if values.size:
            low, high = int(values.min()), int(values.max())  # exact for any integer dtype
            if low < lo or high > hi:
                raise ValueError(f"{name} {low if low < lo else high} is outside {lo}..{hi}")
        setattr(record, name, values.astype(_DTYPE[name], copy=False))
    if len({len(getattr(record, name)) for name in names}) > 1:
        raise ValueError(f"{fmt.noun} columns must share one length")


@dataclass(eq=False)
class TripleBatch:
    """A run's coincidence triples, column-oriented, each column of its _DTYPE.

    triple_id is each triple's place in the run, from 0 (_numbered); a
    triples file holds it only as its row numbers.
    """

    triple_id: np.ndarray
    x_bin: np.ndarray
    babu: np.ndarray
    alisha: np.ndarray
    block_index: np.ndarray

    def __post_init__(self):
        _set_columns(self, _TRIPLES)

    def __len__(self) -> int:
        return len(self.triple_id)


@dataclass(eq=False)
class EventStream:
    """Time-sorted detection stream, what a time tagger reports; detector as codes into DETECTOR_LABELS."""

    detector: np.ndarray
    time_ns: np.ndarray
    x_bin: np.ndarray  # -1 for records without a screen position
    n_bins: int

    def __post_init__(self):
        _set_columns(self, _EVENT_LOG)

    def __len__(self) -> int:
        return len(self.time_ns)


@dataclass(frozen=True, kw_only=True)
class SimStreamHeader:
    """Provenance block at the top of event and triple files, fields in file order."""

    seed: int
    config_digest: str
    coincidence_window_ns: int
    rng_algorithm: str = RNG_ALGORITHM
    bits: str
    block_size: int
    spacing_ns: int
    n_triples: int
    n_bins: int

    def __post_init__(self):
        # the reader's rule for header integers, so a header written is one read back
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not 0 <= value <= _MAX_INT:
                raise ValueError(f"stream header field {f.name}={value} is outside 0..{_MAX_INT}")


@dataclass(frozen=True)
class OrphanReport:
    """Records no triple took: their count, and per label that has any, in DETECTOR_LABELS order."""

    total: int
    by_detector: dict


def triple_spacing_ns(pair_rate_scale: float, n_triples: int = 1) -> int:
    """Inter-triple gap; scale 1 means one triple per microsecond.

    Refuses a gap below MIN_SPACING_NS, and one at which n_triples triples
    would time their last idler, at most 10 ns after its D0, past _MAX_INT ns.
    """
    s = float(pair_rate_scale)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("pair_rate_scale must be positive")
    if BASE_SPACING_NS / s > _MAX_INT:
        raise ValueError(f"pair_rate_scale {s!r} spaces triples more than {_MAX_INT} ns apart")
    spacing = int(round(BASE_SPACING_NS / s))
    if spacing < MIN_SPACING_NS:
        raise ValueError(
            f"pair rate scale {s!r} packs triples closer than {MIN_SPACING_NS} ns; "
            "coincidence windows would overlap"
        )
    if (n_triples - 1) * spacing + 10 > _MAX_INT:
        raise ValueError(
            f"pair_rate_scale {s!r} spaces triples {spacing} ns apart, "
            f"so {n_triples} triples would time records past {_MAX_INT} ns"
        )
    return spacing


# ---------------------------------------------------------------------------
# The stream path.  simulate builds, matches and writes the run _CHUNK_TRIPLES
# triples at a time (event_chunks, write_and_match); sample_triples,
# emit_events, inject_background and match_coincidences run the same chunk
# code over a whole run or stream.
# ---------------------------------------------------------------------------

_CHUNK_TRIPLES = 8_192  # triples per chunk of the stream path: bounds what a run holds at once


def sample_triples(config: ExperimentConfig, seed: int = 0) -> TripleBatch:
    """Draw block_size triples per schedule bit from the exact joint table.

    Deterministic for a given (config, seed): block b consumes the spawned
    streams (0, b) and (1, b) only, so blocks could be generated in any order
    with identical output.
    """
    [columns] = _triple_chunks(config, seed, None)
    return _numbered(columns)


def _numbered(columns: dict) -> TripleBatch:
    """columns, a run's triples, as a TripleBatch: each triple numbered by its place, from 0."""
    n = len(columns["x_bin"])
    return TripleBatch(triple_id=np.arange(n, dtype=_DTYPE["triple_id"]), **columns)


def _triple_chunks(config: ExperimentConfig, seed: int, size):
    """The run's triples as consecutive column mappings of size triples each (None: one chunk).

    The request is checked and the sampling tables built at once; each chunk
    is drawn when it is asked for.  A block cut by a chunk's end carries its
    two generators into the next chunk: uniform draws taken in pieces equal
    one whole draw, so any chunking gives sample_triples' triples.
    """
    if config.mode != MODE_DOUBLE:
        raise ValueError("triple sampling needs a double_delayed_choice config")
    schedule = config.schedule
    if schedule is None:
        raise ValueError("no switch schedule given")
    if int(seed) < 0:
        raise ValueError("seed must be a non-negative integer")
    seed = int(seed)

    marg_flat = screen_marginal(config.geometry, config.envelope, config.alisha).ravel()
    marg_cum = np.cumsum(marg_flat)
    marg_cum /= marg_cum[-1]

    cond_cum = {}
    for bit in sorted(set(schedule.bits)):
        probs = distribution_for(config, splitter_present=bool(bit)).probs
        cond = probs.transpose(0, 2, 1).reshape(-1, 4).copy()  # row = (bin, k)
        rowsum = cond.sum(axis=1, keepdims=True)
        np.divide(cond, rowsum, out=cond, where=rowsum > 0)
        cond[rowsum[:, 0] == 0] = 0.25  # rows with zero marginal are never drawn
        cum = np.cumsum(cond, axis=1)
        cum[:, -1] = 1.0
        cond_cum[int(bit)] = cum

    n, total = schedule.block_size, schedule.n_triples

    def chunks():
        for lo in range(0, total, size or total):
            hi = min(lo + (size or total), total)
            x_bin, babu, alisha = (
                np.empty(hi - lo, dtype=_DTYPE[name]) for name in ("x_bin", "babu", "alisha")
            )
            at = lo
            while at < hi:  # one piece per block the chunk reaches into
                b, end = at // n, min(hi, (at // n + 1) * n)
                if at == b * n:
                    rng_m, rng_c = (
                        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain, b)))
                        for domain in (_DOMAIN_MARGINAL, _DOMAIN_CONDITIONAL)
                    )
                piece = slice(at - lo, end - lo)
                flat = np.searchsorted(marg_cum, rng_m.random(end - at), side="right")
                np.clip(flat, 0, marg_flat.size - 1, out=flat)
                rows = cond_cum[int(schedule.bits[b])][flat]
                np.sum(rows <= rng_c.random(end - at)[:, None], axis=1, out=babu[piece])
                np.floor_divide(flat, 4, out=x_bin[piece])
                np.remainder(flat, 4, out=alisha[piece])
                at = end
            yield {
                "x_bin": x_bin,
                "babu": babu,
                "alisha": alisha,
                "block_index": np.arange(lo, hi, dtype=_DTYPE["block_index"]) // n,
            }

    return chunks()


def _delay_chunks(n: int, seed: int):
    """The (n, 2) idler delays in ns, as int8 pieces of _CHUNK_TRIPLES rows, each drawn when needed.

    Each piece is an int64 draw from the one delay generator; pieces equal
    one whole draw, so the delays do not depend on the chunking.  The chunk
    size is read when this is called.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_DOMAIN_DELAYS, 0)))
    size = _CHUNK_TRIPLES
    return (rng.integers(1, 11, (min(size, n - lo), 2)).astype(np.int8) for lo in range(0, n, size))


def emit_events(triples: TripleBatch, config: ExperimentConfig, seed: int = 0) -> EventStream:
    """Unroll triples into a time-sorted stream of single detections.

    Triple t sits at t * spacing; its screen record comes first and the two
    idler records lag by independent integer delays in [1, 10] ns, the
    earlier first and babu's first on a tie.  Spacings of MIN_SPACING_NS and
    up keep triples from interleaving, so row t of an (n, 3) layout holds
    triple t's records in time order and no sort over the stream is needed.
    Delay draws depend only on (seed, triple position), never on outcomes,
    so two runs differing only in babu's settings share identical timestamps.
    The delays are _delay_chunks' pieces joined, the draws event_chunks
    makes one chunk at a time.  Raises ValueError for a run
    triple_spacing_ns refuses.
    """
    n = len(triples)
    spacing = triple_spacing_ns(config.pair_rate_scale, n)
    pieces = _delay_chunks(n, int(seed))
    delays = np.concatenate([np.empty((0, 2), np.int8), *pieces])  # no piece when n is 0
    return EventStream(**_emit(vars(triples), delays, 0, spacing), n_bins=config.geometry.n_bins)


def _emit(triples: dict, delays, first: int, spacing: int) -> dict:
    """The record columns of triples (columns) first, first + 1, ...: emit_events' rows from 3 first on."""
    n = len(triples["x_bin"])
    # each idler as delay * 16 + detector code: babu's codes lie below
    # alisha's, so sorting a triple's pair puts babu first on a tie
    idlers = delays.astype(np.int16)
    idlers *= 16
    idlers[:, 0] += triples["babu"]
    idlers[:, 1] += triples["alisha"]
    idlers += (_BABU_CODE, _ALISHA_CODE)
    idlers.sort(axis=1)
    detector = np.empty((n, 3), dtype=_DTYPE["detector"])
    detector[:, 0] = CODE_D0
    np.remainder(idlers, 16, out=detector[:, 1:])
    idlers //= 16
    time_ns = np.empty((n, 3), dtype=_DTYPE["time_ns"])
    time_ns[:, 0] = np.arange(first, first + n, dtype=_DTYPE["time_ns"]) * spacing
    np.add(time_ns[:, :1], idlers, out=time_ns[:, 1:])
    del idlers
    x_bin = np.full((n, 3), -1, dtype=_DTYPE["x_bin"])
    x_bin[:, 0] = triples["x_bin"]
    return {"detector": detector.ravel(), "time_ns": time_ns.ravel(), "x_bin": x_bin.ravel()}


def inject_background(stream: EventStream, rate_per_ns: float, seed: int = 0) -> EventStream:
    """Overlay Poisson dark counts on a time-sorted stream.

    Original records keep their content and order.  The dark counts on
    [first time, last time] are drawn window by window (_dark_windows), the
    same draws event_chunks makes, so the result does not depend on how a
    run is chunked.  Each dark count goes after every original record at
    its time, and dark counts at one time keep draw order.  Rate 0 returns
    the stream as is.  Raises ValueError for an unsorted stream.
    """
    rate = _background_rate(rate_per_ns)
    _require_sorted(stream.time_ns)
    if rate == 0.0 or len(stream) < 2:
        return stream
    t0, t1 = int(stream.time_ns[0]), int(stream.time_ns[-1])
    total, windows = _dark_windows(rate, t0, t1, stream.n_bins, int(seed))
    dark = _gather((dark for _, dark in windows), _EVENT_LOG.names, lambda: total)
    return EventStream(**_merge(vars(stream), dark), n_bins=stream.n_bins)


def _background_rate(rate_per_ns) -> float:
    rate = float(rate_per_ns)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"background rate must be finite and non-negative, got {rate!r}")
    return rate


# dark counts per background window, on average: part of the stream's
# definition, like the spawn domains, since the windows' draws depend on it
_DARK_WINDOW = 1 << 14


def _dark_windows(rate: float, t0: int, t1: int, n_bins: int, seed: int) -> tuple:
    """(count, windows): Poisson(rate * (t1 - t0)) dark counts on [t0, t1], drawn window by window.

    The background generator draws the count N at once.  [t0, t1] is cut
    into J = max(1, ceil(N / _DARK_WINDOW)) near-equal windows, and windows
    iterates over them in time order, each drawn when it is asked for: its
    count, a binomial share of the dark counts left by its share of the
    time left, then its times, codes and screen bins, each as int64 and
    narrowed to its column's dtype.  A window's sort is stable, so ties keep
    draw order.  Each window is (end, columns): end is one past its last ns,
    columns the three event columns, which take 13 bytes per dark count.  A
    window is drawn in a helper's frame, so the generator holds none
    between windows.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_DOMAIN_BACKGROUND, 0)))
    total = int(rng.poisson(rate * (t1 - t0)))
    n_windows = max(1, -(-total // _DARK_WINDOW))

    def window(lo, hi, n):
        time_ns = rng.integers(lo, hi, size=n)
        detector = rng.integers(0, len(DETECTOR_LABELS), size=n).astype(_DTYPE["detector"])
        x_bin = rng.integers(0, n_bins, size=n).astype(_DTYPE["x_bin"])
        x_bin[detector != CODE_D0] = -1
        order = np.argsort(time_ns, kind="stable")
        time_ns.sort()  # the same values as time_ns[order], sorted in place
        return {"detector": detector[order], "time_ns": time_ns, "x_bin": x_bin[order]}

    def windows():
        left, lo = total, t0
        for j in range(1, n_windows + 1):
            hi = t0 + j * (t1 + 1 - t0) // n_windows
            n = int(rng.binomial(left, (hi - lo) / (t1 + 1 - lo)))
            yield hi, window(lo, hi, n)
            left, lo = left - n, hi

    return total, windows()


def _merge(stream: dict, dark: dict) -> dict:
    """stream's event columns with the time-sorted dark columns merged in, each after its time's records.

    Each dark column is taken out of dark as it is merged, the int64 one
    first, so a caller that holds the columns only in dark has each freed
    once merged.  No dark counts: stream's event columns as they are, and
    dark emptied.
    """
    n_bg = len(dark["time_ns"])
    if not n_bg:
        dark.clear()
        return {name: stream[name] for name in _EVENT_LOG.names}
    original = np.ones(len(stream["time_ns"]) + n_bg, dtype=bool)
    at = np.searchsorted(stream["time_ns"], dark["time_ns"], side="right")
    at += np.arange(n_bg)  # each earlier dark count shifts the next one place on
    original[at] = False
    del at

    def merged(name):
        column = stream[name]
        out = np.empty(len(original), dtype=column.dtype)
        out[original] = column
        out[~original] = dark.pop(name)
        return out

    return {name: merged(name) for name in ("time_ns", "detector", "x_bin")}


def _require_sorted(time_ns: np.ndarray) -> None:
    """Refuse times that ever decrease, with no full-length integer temporary."""
    if (time_ns[1:] < time_ns[:-1]).any():
        raise ValueError("event stream is not time-sorted")


def event_chunks(config: ExperimentConfig, seed: int, rate_per_ns: float) -> tuple:
    """(records, chunks): the run's stream as emit_events and inject_background build it, in chunks.

    records is the stream's length, 3 n_triples plus the dark counts.  chunks
    iterates over consecutive pieces of the stream, each a mapping of its
    record columns as a reader pass of the event log holds them, cut by
    _stream_chunks, so a piece holds at most one batch's records
    (_CHUNK_TRIPLES triples) and one window's dark counts, whatever the
    rate.  The checks and the dark-count total are done and drawn here.
    The background's span needs the last triple's delays, so the delays are
    drawn here once, a chunk at a time, and each chunk dropped; the pieces
    draw them again, a chunk at a time.  Each batch is sampled and emitted,
    and each window drawn, when a piece first needs it, and the iterator
    frees the draws when it ends.
    """
    rate = _background_rate(rate_per_ns)
    seed = int(seed)
    batches = _triple_chunks(config, seed, _CHUNK_TRIPLES)
    n = config.schedule.n_triples
    spacing = triple_spacing_ns(config.pair_rate_scale, n)
    for last in _delay_chunks(n, seed):
        pass
    # emit_events' stream runs from 0 to the last triple's later idler
    t_end = (n - 1) * spacing + int(last[-1].max())
    n_dark, windows = _dark_windows(rate, 0, t_end, config.geometry.n_bins, seed)
    delays = _delay_chunks(n, seed)
    return 3 * n + n_dark, _stream_chunks(batches, delays, windows, spacing)


def _stream_chunks(batches, delays, windows, spacing: int):
    """The stream's pieces: each ends at the next batch's first D0 or its window's end, the earlier.

    batches are the run's consecutive triple chunks, as columns, and delays
    gives each batch's idler delays, one piece per batch.  A piece
    merges the batch's records and the window's dark counts timed before
    its end, and every later record comes at or after that end, so a dark
    count timed at a batch's first D0 goes after that D0.  The piece that
    takes a window's last dark counts is made once the window is let go,
    and the next window is drawn when that piece has been taken.  The last
    window ends past the last record, so its end ends the stream.
    """
    windows = iter(windows)
    end, dark = next(windows)
    hi = 0  # one past the last batch's last triple
    for batch, batch_delays in zip(batches, delays, strict=True):
        lo, hi = hi, hi + len(batch["x_bin"])
        stop = hi * spacing  # the next batch's first D0
        stream = _emit(batch, batch_delays, lo, spacing)
        while dark is not None:
            cut = min(stop, end)
            k, j = (int(np.searchsorted(t, cut)) for t in (stream["time_ns"], dark["time_ns"]))
            head = {name: c[:j] for name, c in dark.items()}
            # the rest of the window goes with the next batch, or none is left
            dark = {name: c[j:] for name, c in dark.items()} if stop < end else None
            piece = _merge({name: c[:k] for name, c in stream.items()}, head)  # empties head
            if len(piece["time_ns"]):
                yield piece
            if dark is not None:
                break
            stream = {name: c[k:] for name, c in stream.items()}
            end, dark = next(windows, (None, None))


def _gather(parts, names, size) -> dict:
    """parts, mappings of columns, joined into one column per name, each of its _DTYPE.

    The columns are allocated size() rows long when the first part arrives;
    each part is copied in and let go, and the columns are cut to fit.
    """
    columns, n = {}, 0
    for part in parts:
        if not columns:
            rows = size()
            columns = {name: np.empty(rows, dtype=_DTYPE[name]) for name in names}
        for name, column in columns.items():
            column[n : n + len(part[name])] = part[name]
        n += len(part[names[0]])
        del part  # before the next part is made
    for name in names:  # no view of a column is left, so it is cut in place
        columns.setdefault(name, np.empty(0, dtype=_DTYPE[name])).resize(n, refcheck=False)
    return columns


class _Matcher:
    """match_coincidences' greedy matcher, fed one time-sorted piece of event columns at a time.

    Between feeds it holds only unclaimed records, in three queues by kind:
    D0s as (time, x_bin), babu's and alisha's idlers as (time, code).  Each
    feed appends a slice to the queues, decides the D0s whose window closes
    before its last time, since every later record comes at or after it,
    and returns the triples they matched, as columns.  An idler queue then
    drops what the undecided D0s (at the last time less w or later) cannot
    claim: the records before its greedy pointer or the last time less 2w.
    Dropped records that matched nothing are orphans.  finish decides the
    rest, returns its triples and leaves the orphan report in report.  The
    matcher keeps no matched triple: it only counts them.
    """

    def __init__(self, window_ns: int, block_size: int, spacing_ns: int):
        self.w = int(window_ns)
        if self.w < 0:
            raise ValueError("window must be non-negative")
        for name, value in (("block_size", block_size), ("spacing_ns", spacing_ns)):
            if int(value) < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        # |t| < 10**18 for any parseable log, so clamping keeps Python's floor
        self.period = min(int(spacing_ns) * int(block_size), np.iinfo(np.int64).max)
        self.queues = [
            (np.empty(0, dtype=_DTYPE["time_ns"]), np.empty(0, dtype=_DTYPE[name]))
            for name in ("x_bin", "detector", "detector")
        ]
        self.last = None  # the last time fed
        self.matched = 0  # triples matched so far
        self.orphans = np.zeros(len(DETECTOR_LABELS), dtype=np.int64)
        self.report = None  # the OrphanReport, once finished

    def feed(self, piece: dict) -> dict:
        """Queue a piece's columns (not empty) from the last time fed on; the triples decided."""
        time_ns, detector = piece["time_ns"], piece["detector"]
        if self.last is not None and time_ns[0] < self.last:
            raise ValueError("event stream is not time-sorted")
        _require_sorted(time_ns)
        self.last = int(time_ns[-1])
        babu = (detector >= _BABU_CODE) & (detector < _ALISHA_CODE)
        kinds = (detector == CODE_D0, babu, detector >= _ALISHA_CODE)
        for i, (kind, other) in enumerate(zip(kinds, (piece["x_bin"], detector, detector))):
            pos = np.flatnonzero(kind)
            times, values = self.queues[i]
            self.queues[i] = (
                np.concatenate([times, time_ns.take(pos)]),
                np.concatenate([values, other.take(pos)]),
            )
        return self._step(final=False)

    def finish(self) -> dict:
        """The triples of every D0 still queued; report then holds the whole stream's orphans."""
        rest = self._step(final=True)
        by_detector = {label: int(n) for label, n in zip(DETECTOR_LABELS, self.orphans) if n}
        self.report = OrphanReport(total=int(self.orphans.sum()), by_detector=by_detector)
        return rest

    def _step(self, final: bool) -> dict:
        """Decide the queued D0s before the last time less w (all of them if final), then drop.

        Each arm's greedy pointer starts at its queue's head.  A D0 more than
        2w after the previous D0 can only meet idlers that no earlier D0
        could reach (every idler an earlier D0 consumed or skipped lies below
        its t - w), so its greedy pointers are the searchsorted positions of
        t - w.  D0s with both neighbours that far away are decided in one
        array pass; only runs of closer D0s are walked one by one.
        """
        w = self.w
        (td, xd), (tb, cb), (ta, ca) = self.queues
        nb, na = len(tb), len(ta)
        cut = len(td) if final else int(np.searchsorted(td, self.last - w))
        td = td[:cut]

        # per D0, each arm's first idler at or after t - w, as an index into the arm
        first_b = np.searchsorted(tb, td - w)
        first_a = np.searchsorted(ta, td - w)
        hit = (first_b < nb) & (first_a < na)
        if nb and na:
            hit &= tb.take(first_b, mode="clip") <= td + w
            hit &= ta.take(first_a, mode="clip") <= td + w
        far = td[1:] - td[:-1] > 2 * w
        isolated = np.ones(cut, dtype=bool)
        isolated[1:] &= far
        isolated[:-1] &= far
        clustered = np.flatnonzero(~isolated)
        walk = zip(
            clustered.tolist(),
            td[clustered].tolist(),
            first_b[clustered].tolist(),
            first_a[clustered].tolist(),
        )
        del far, isolated, clustered
        # the first idlers become the picks: -1 where none is in the window
        pick_b, pick_a = first_b, first_a
        np.logical_not(hit, out=hit)
        pick_b[hit] = pick_a[hit] = -1
        tb_at, ta_at = tb.item, ta.item
        pb = pa = 0
        for i, t0, sb, sa in walk:
            # pointers left by an earlier run never pass sb, sa
            pb = max(pb, sb)
            pa = max(pa, sa)
            if pb < nb and pa < na and tb_at(pb) <= t0 + w and ta_at(pa) <= t0 + w:
                pick_b[i] = pb
                pick_a[i] = pa
                pb += 1
                pa += 1
            else:
                pick_b[i] = pick_a[i] = -1

        got = np.flatnonzero(pick_b >= 0)
        pick_b, pick_a = pick_b[got], pick_a[got]
        self.matched += len(got)
        decided = {
            "x_bin": xd[got],
            "babu": cb[pick_b] - _BABU_CODE,
            "alisha": ca[pick_a] - _ALISHA_CODE,
            "block_index": td[got] // self.period,
        }
        self.orphans[CODE_D0] += cut - len(got)
        drop = [cut]
        for (t, codes), picks in zip(self.queues[1:], (pick_b, pick_a)):
            k = len(t)
            if not final:
                # an undecided D0 lies at last - w or later, so it claims no idler before
                # last - 2w, nor one the greedy pointer passed, up to the last match
                k = max(np.searchsorted(t, self.last - 2 * w), picks.max(initial=-1) + 1)
            # a dropped idler that was not picked is an orphan
            self.orphans += np.bincount(codes[:k], minlength=len(DETECTOR_LABELS))
            self.orphans -= np.bincount(codes[picks], minlength=len(DETECTOR_LABELS))
            drop.append(k)
        self.queues = [
            tuple(column[k:].copy() for column in queue) for queue, k in zip(self.queues, drop)
        ]
        return decided


def match_coincidences(
    stream: EventStream,
    window_ns: int = DEFAULT_WINDOW_NS,
    *,
    block_size: int,
    spacing_ns: int,
) -> tuple[TripleBatch, OrphanReport]:
    """Greedy earliest-first triple matching within a symmetric time window.

    Walks D0 records in time order; each one claims the earliest unconsumed
    record from each idler arm within window_ns, or becomes an orphan.  The
    block index is recovered from the D0 timestamp (spacing_ns and block_size
    normally come from the stream header), which stays correct even when
    background events distort the matched sequence numbering.  The stream's
    columns are fed to the matcher 3 _CHUNK_TRIPLES records at a time, as
    views; _gather puts the triples into columns sized for one per D0, the
    most there can be, so beyond a slice's temporaries it holds its output.
    """
    matcher = _Matcher(window_ns, block_size, spacing_ns)
    step = 3 * _CHUNK_TRIPLES
    records = {name: getattr(stream, name) for name in _EVENT_LOG.names}

    def decided():
        for lo in range(0, len(stream), step):
            yield matcher.feed({name: c[lo : lo + step] for name, c in records.items()})
        yield matcher.finish()

    columns = _gather(
        decided(), _TRIPLES.names, lambda: int(np.count_nonzero(stream.detector == CODE_D0))
    )
    return _numbered(columns), matcher.report


def write_and_match(path, header: SimStreamHeader, records: int, chunks, spill) -> tuple:
    """(sha256, matched, which_path, orphans): write chunks as the event log at path, matching each.

    chunks are consecutive pieces of one time-sorted stream of records
    records, as event_chunks gives them.  The matcher takes the header's
    window, block size and spacing, as match_coincidences would on the log
    read back.  A piece is matched, then checked and written; a refused
    field leaves no event log (see write_event_log).  The triples each piece
    decides are checked and written, as triples.csv rows, to spill, an
    open binary file, and only counted: matched in all, and which_path,
    those with an idler at D3 or D4.  write_spilled_triples then writes
    triples.csv from spill.
    """
    matcher = _Matcher(header.coincidence_window_ns, header.block_size, header.spacing_ns)
    which_path = 0

    def spill_rows(piece):
        nonlocal which_path
        spill.writelines(_row_bytes(_TRIPLES, piece, matcher.matched - len(piece["x_bin"])))
        which_path += int(np.count_nonzero((piece["babu"] >= D3) | (piece["alisha"] >= D3)))

    def matched(chunks):
        for chunk in chunks:
            spill_rows(matcher.feed(chunk))
            yield chunk
        spill_rows(matcher.finish())  # in the writer's loop: a failure here leaves no event log

    digest = write_event_log(path, matched(chunks), header, records)
    return digest, matcher.matched, which_path, matcher.report


def write_spilled_triples(path, spill, header: SimStreamHeader, n_rows: int) -> str:
    """Write the triples file at path: its header for n_rows rows, then spill's bytes from its start.

    spill holds the rows, as write_and_match writes them; it is copied
    _READ_BYTES at a time.
    """
    spill.seek(0)
    rows = iter(lambda: spill.read(_READ_BYTES), b"")
    return _write_text(path, _stream_header(_TRIPLES, header, n_rows), rows)


# ---------------------------------------------------------------------------
# Text formats.  '#'-prefixed key=value header, then one record per line.
# Integers only, so identical runs are byte-identical; a channel column is an
# index into the labels its header line names.
#
# Row grammar, checked by the readers and kept by the writers: header lines
# only before the first data row; blank lines are skipped; fields are split on
# ',' with no padding; an integer field is unsigned, [0-9]{1,18}, and fits its
# column's dtype (int64 for every integer column but x_bin, which is int32),
# and a channel lies among its labels' indices.  "\r\n" and "\r" line ends
# read as "\n".
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"[0-9]{1,18}")
_MAX_DIGITS = 18
_MAX_INT = 10**_MAX_DIGITS - 1
_POW10 = 10 ** np.arange(1, _MAX_DIGITS, dtype=np.int64)  # a d-digit value reaches d - 1 of these
_CHUNK_ROWS = 16_384  # rows per write or parse pass: bounds its temporaries (about 80 B a row to write)
_READ_BYTES = 1 << 18  # bytes per read of a stream file, about one parse pass of rows


@dataclass(frozen=True)
class _Format:
    """One stream file kind: header tag, row noun and columns in file order.

    A column is (name, None) for an integer, or (name, labels) for a channel,
    written as its index into a fixed label tuple that the header names once,
    as a <name>_labels= line.  With d0_x_bin, the x_bin field is present
    exactly on D0 rows, else empty (-1).  Reader and writer both work from
    this record, its header and its ranges.
    """

    tag: str
    what: str
    noun: str
    columns: tuple
    d0_x_bin: bool = False

    @functools.cached_property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.columns)

    @property
    def min_row_bytes(self) -> int:
        """The shortest row's length: a digit per field (x_bin empty with d0_x_bin), separators, "\n"."""
        return 2 * len(self.columns) - self.d0_x_bin

    @property
    def labels(self) -> dict:
        """The header's <name>_labels= values, one per channel column."""
        return {f"{name}_labels": ",".join(labels) for name, labels in self.columns if labels}

    @property
    def header(self) -> dict:
        """What a file of this kind's header must hold: its tag, columns= and labels lines."""
        return {"tag": self.tag, "columns": ",".join(self.names), **self.labels}

    @functools.cached_property
    def ranges(self) -> tuple:
        """Per column, (0, hi): a channel's last label index, else its dtype's maximum up to _MAX_INT."""
        return tuple(
            (0, len(labels) - 1 if labels else min(np.iinfo(_DTYPE[name]).max, _MAX_INT))
            for name, labels in self.columns
        )


_EVENT_LOG = _Format(
    "qeraser-event-log v3",
    "event log",
    "event",
    (("detector", DETECTOR_LABELS), ("time_ns", None), ("x_bin", None)),
    d0_x_bin=True,
)
_TRIPLES = _Format(
    "qeraser-triples v3",
    "triples file",
    "triple",
    (("block_index", None), ("x_bin", None), ("babu", BABU_LABELS), ("alisha", ALISHA_LABELS)),
)


def _write_text(path, header_lines, chunks) -> str:
    """Write header_lines as '# ' lines, then each bytes chunk; the sha256 hex of the file.

    Every '#'-headered file goes through here.  Bytes are written in binary
    mode, so line ends are '\n' on every platform, and hashed as they are
    written, so no caller reads a file back to vouch for it.  Each chunk is
    let go once written, before the next is made, so one is held at a time.
    The first chunk is made before the file is opened, and a file whose
    chunks fail part way is removed, so a failing writer leaves no file
    behind.
    """
    digest = hashlib.sha256()
    head = "".join(f"# {line}\n" for line in header_lines).encode("utf-8")
    chunks = iter(chunks)
    data = next(chunks, b"")
    fh = open(path, "wb")
    try:
        with fh:
            digest.update(head)
            fh.write(head)
            while data is not None:
                digest.update(data)
                fh.write(data)
                del data
                data = next(chunks, None)
    except BaseException:
        os.unlink(path)
        raise
    return digest.hexdigest()


def _header_lines(pairs: dict, columns: str) -> list:
    """A '#'-headered file's header lines: tool_version, each key=value of pairs, then columns."""
    return [f"tool_version={__version__}", *(f"{k}={v}" for k, v in pairs.items()), f"columns={columns}"]


def _stream_header(fmt: _Format, header: SimStreamHeader, n_rows: int) -> list:
    """The header lines of a stream file of fmt's kind holding n_rows rows; labels come before columns=."""
    pairs = {**asdict(header), "n_rows": n_rows, **fmt.labels}
    return [fmt.tag, *_header_lines(pairs, ",".join(fmt.names))]


def _row_bytes(fmt: _Format, part: dict, first_row: int):
    """The bytes of part's rows, _CHUNK_ROWS at a time, once its fields are checked.

    part maps each of fmt's column names to its column; its rows are
    first_row on in their file, which a refused field's message names.
    """
    columns = [part[name] for name in fmt.names]
    _check_fields(fmt, columns, first_row)
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        yield _format_rows(fmt, [c[lo : lo + _CHUNK_ROWS] for c in columns])


def _check_fields(fmt: _Format, columns, first_row: int) -> None:
    """Refuse a value the file would not read back, naming its column and its row (first_row on).

    A written field must lie in the row grammar; a field left empty reads
    as -1, so its value must be -1.
    """
    written = _written_fields(fmt, columns)
    for name, (lo, hi), col, present in zip(fmt.names, fmt.ranges, columns, written):
        bad = (col < lo) | (col > hi)
        if present is not True:
            bad = np.where(present, bad, col != -1)
        if bad.any():
            i = int(np.argmax(bad))
            rule = f"is outside {lo}..{hi}"
            if present is not True and not present[i]:
                rule = f"is not -1 on a non-D0 row, which leaves {name} empty"
            raise ValueError(
                f"cannot write {fmt.what}: {name} {int(col[i])} in row {first_row + i} {rule}"
            )


def _written_fields(fmt: _Format, columns) -> list:
    """Per column, where its field is written: every row, or with d0_x_bin, x_bin on D0 rows."""
    present = [True] * len(columns)
    if fmt.d0_x_bin:
        present[fmt.names.index("x_bin")] = columns[fmt.names.index("detector")] == CODE_D0
    return present


def _format_rows(fmt: _Format, columns) -> np.ndarray:
    """The bytes of the rows held in columns (integer arrays in file order).

    Each field's width per row lays the rows out in one exact-size buffer;
    only the widths, a byte or two per field, are held for every field.
    The fields are then written right to left: each puts its separator,
    then its decimal digits from the right, digit j only into rows whose
    field has more than j.  Every written field is unsigned (_check_fields).
    """
    right = np.full(len(columns[0]), len(columns), dtype=np.int64)  # a separator per field
    widths = []  # per field: its digit count
    for col, present in zip(columns, _written_fields(fmt, columns)):
        n_digits = np.searchsorted(_POW10, col, side="right").astype(np.uint8)
        n_digits += 1
        n_digits *= present
        widths.append(n_digits)
        right += n_digits
    np.cumsum(right, out=right)  # one past each row's '\n'
    buf = np.empty(int(right[-1]), dtype=np.uint8)
    for f in reversed(range(len(columns))):
        n_digits = widths.pop()
        right -= 1
        buf[right] = ord("\n" if f == len(columns) - 1 else ",")
        _put_digits(buf, right, columns[f].astype(np.int64), n_digits)
        right -= n_digits
    return buf


def _put_digits(buf, end, value, n_digits) -> None:
    """buf[end - n_digits : end] = each value's last n_digits decimal digits.

    value is overwritten.
    """
    at = end - 1
    for j in range(int(n_digits.max(initial=0))):
        live = n_digits > j
        if not live.all():
            at, value, n_digits = at[live], value[live], n_digits[live]
        rest = value // 10  # np.divmod takes several times longer
        value -= rest * 10  # the digit
        buf[at] = value.astype(np.uint8) + np.uint8(ord("0"))
        value = rest
        at -= 1


def _header_int(key: str, value: str) -> int:
    if not _INT_RE.fullmatch(value):
        raise ValueError(f"stream header field {key}={value!r} is not an integer")
    return int(value)


class _StreamPasses:
    """A stream file's data rows, one parse pass at a time; iterate over it once.

    The file is read _READ_BYTES at a time: the header lines, which set
    n_rows, the row count the header declares, and must then carry fmt's
    tag, columns= and labels lines, then each read's data rows, _CHUNK_ROWS
    lines at a time, whose separators are indexed and whose fields are
    parsed.  Each such pass is yielded as its rows' columns (name -> array
    of the column's _DTYPE) in file order, while no fault is certain:
    passes stop at a row with the wrong field count or one whose fields
    fail to parse, and past n_rows rows.  Later rows are only counted, and
    checked for their field count up to the first wrong one.  A regular
    file whose size holds fewer than n_rows rows of fmt.min_row_bytes
    cannot be good: its rows are checked all the same, but no pass is
    yielded, so no reader sizes columns from that count.
    After the last read the file's faults are raised in the order the row
    grammar ranks them, whichever pass they sit in: the row count, then the
    first row with the wrong field count, then the first row whose fields
    fail to parse, re-checked by _row_error for the message.  A good file
    sets header.
    """

    def __init__(self, path, fmt: _Format):
        self.path, self.fmt = path, fmt
        self.n_rows = self.header = None

    def __iter__(self):
        fmt = self.fmt
        with open(self.path, "rb") as fh:
            st = os.fstat(fh.fileno())
            tag, meta, rows = _read_header(_read_lines(fh))
            if "n_rows" not in meta:
                raise ValueError("stream header missing field 'n_rows'")
            declared = self.n_rows = _header_int("n_rows", meta["n_rows"])
            for key, want in fmt.header.items():
                got = tag if key == "tag" else meta.get(key)
                if got != want:
                    raise ValueError(f"stream header {key} {got!r} is not {want!r}")
            # a good row takes min_row_bytes or more, the last maybe without its "\n"
            fits = not stat.S_ISREG(st.st_mode) or declared <= (st.st_size + 1) // fmt.min_row_bytes
            k = len(fmt.columns) - 1
            n = 0
            bad = {}  # "fields", "grammar": the first row breaking that rule
            for buf in rows:
                for start, end in _line_blocks(buf):
                    n += len(start)
                    if n > declared or "fields" in bad:
                        continue
                    comma = np.flatnonzero(buf[start[0] : end[-1]] == ord(",")) + start[0]
                    # m * k separators sit k to a row iff each row's first and last fall inside it
                    if len(comma) != len(start) * k or not (
                        (comma[::k] >= start).all() and (comma[k - 1 :: k] < end).all()
                    ):
                        per_row = np.bincount(np.searchsorted(end, comma), minlength=len(start))
                        i = int(np.argmax(per_row != k))
                        bad["fields"] = buf[start[i] : end[i]].tobytes()
                    elif "grammar" not in bad:
                        out = [np.empty(len(start), dtype=_DTYPE[name]) for name in fmt.names]
                        good = _parse_rows(buf, fmt, start, end, comma.reshape(-1, k), out)
                        if not good.all():
                            i = int(np.argmin(good))
                            bad["grammar"] = buf[start[i] : end[i]].tobytes()
                        elif fits:
                            yield dict(zip(fmt.names, out))
        if declared != n:
            raise ValueError(
                f"{fmt.what} declares {declared} rows but contains {n}; "
                "file is truncated or corrupt"
            )
        if bad:
            line = bad.get("fields") or bad["grammar"]
            raise ValueError(_row_error(fmt, line.decode("utf-8", errors="backslashreplace")))
        try:
            # annotations are strings under postponed evaluation
            self.header = SimStreamHeader(
                **{
                    f.name: _header_int(f.name, meta[f.name]) if f.type == "int" else meta[f.name]
                    for f in fields(SimStreamHeader)
                }
            )
        except KeyError as exc:
            raise ValueError(f"stream header missing field {exc}") from exc


def _read_columns(path, fmt: _Format) -> tuple[dict, SimStreamHeader]:
    """A stream file's columns and its header: each pass gathered into columns sized from n_rows."""
    passes = _StreamPasses(path, fmt)
    return _gather(passes, fmt.names, lambda: passes.n_rows), passes.header


def _read_lines(fh):
    """fh's bytes from here on, _READ_BYTES at a time, as whole lines each ending in b"\n".

    A partial last line is carried into the next read, and so is a final
    b"\r", which a b"\n" may follow.  "\r\n" and "\r" line ends read as "\n",
    and the file's last line gets a "\n" if it has none.
    """
    carry = b""
    while True:
        more = fh.read(_READ_BYTES)
        end = not more
        data = carry + more
        del more  # so that only lines and carry are held while lines is parsed
        cut = len(data)
        if not end:  # up to the last line end, short of a final "\r"
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        lines, carry = data[:cut], data[cut:]
        del data
        if b"\r" in lines:
            lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if lines and not lines.endswith(b"\n"):  # only at the end of the file
            lines += b"\n"
        if lines:
            yield lines
        if end:
            return


def _read_header(reads) -> tuple:
    """The header's first '#' line (its tag) and key=value pairs, and the data rows' reads as uint8.

    The header is the '#' and blank lines before the first data row; it is
    parsed from the reads, and the data rows start in the read that holds
    the first of them.  With no '#' line the tag is None.
    """
    tag, meta = None, {}
    for data in reads:
        pos = 0
        while data.startswith(b"#", pos) or data.startswith(b"\n", pos):
            eol = data.index(b"\n", pos)
            try:
                body = data[pos + 1 : eol].decode("utf-8").strip()
            except UnicodeDecodeError:
                line = data[pos:eol].decode("utf-8", errors="backslashreplace")
                raise ValueError(f"header line is not UTF-8: {line!r}") from None
            tag = body if tag is None and data[pos] == ord("#") else tag
            if data[pos] == ord("#") and "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            pos = eol + 1
        if pos < len(data):
            rest = (np.frombuffer(more, dtype=np.uint8) for more in reads)
            return tag, meta, itertools.chain([np.frombuffer(data, dtype=np.uint8, offset=pos)], rest)
    return tag, meta, iter(())


def _line_blocks(buf):
    """(start, end) of buf's non-blank lines, _CHUNK_ROWS at a time; buf ends in b"\n"."""
    end = np.flatnonzero(buf == ord("\n"))
    start = np.empty_like(end)
    start[:1] = 0
    start[1:] = end[:-1] + 1
    lit = end > start
    if not lit.all():
        start, end = start[lit], end[lit]
    for lo in range(0, len(end), _CHUNK_ROWS):
        yield start[lo : lo + _CHUNK_ROWS], end[lo : lo + _CHUNK_ROWS]


def _parse_rows(buf, fmt: _Format, start, end, comma, out) -> np.ndarray:
    """Parse rows buf[start:end], split at comma (rows, k), into out (one array per field).

    Returns which rows are well-formed: an integer must also fit its column.
    """
    k = comma.shape[1]
    good = np.ones(len(start), dtype=bool)
    for f, (name, (_, hi)) in enumerate(zip(fmt.names, fmt.ranges)):
        left = start if f == 0 else comma[:, f - 1] + 1
        right = end if f == k else comma[:, f]
        value, ok = _parse_ints(buf, left, right)
        ok &= value <= hi  # digits only, so never below 0
        if fmt.d0_x_bin and name == "x_bin":
            present = right > left
            is_d0 = out[fmt.names.index("detector")] == CODE_D0
            ok = (ok | ~present) & (present == is_d0)
            value[~present] = -1
        out[f][:] = value
        good &= ok
    return good


def _parse_ints(buf, left, right) -> tuple[np.ndarray, np.ndarray]:
    """Values of the integer fields buf[left:right], and which are well-formed."""
    n_digits = right - left
    good = (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
    value = np.zeros(len(left), dtype=np.int64)
    scale = 1
    for k in range(min(int(n_digits.max(initial=0)), _MAX_DIGITS)):
        inside = k < n_digits
        digit = buf.take(right - 1 - k, mode="clip") - np.uint8(ord("0"))
        good &= (digit < 10) | ~inside
        value += np.where(inside, digit, 0).astype(np.int64) * scale
        scale *= 10
    return value, good


def _row_error(fmt: _Format, line: str) -> str:
    """Message naming the first rule of the row grammar that line breaks.

    The fields come first, in column order (an empty x_bin is checked
    below); then whether x_bin is present exactly on the rows whose
    detector field reads as channel 0, as the parser reads it.
    """
    if line.startswith("#"):
        return f"header line after the first data row: {line!r}"
    fields = line.split(",")
    if len(fields) != len(fmt.columns):
        return f"malformed {fmt.noun} row: {line!r}"
    for name, (lo, hi), field in zip(fmt.names, fmt.ranges, fields):
        if fmt.d0_x_bin and name == "x_bin" and field == "":
            continue
        if not _INT_RE.fullmatch(field):
            return f"bad integer {field!r} in {fmt.noun} row (want [0-9]{{1,18}}): {line!r}"
        if not lo <= int(field) <= hi:
            return f"{name} {field} is outside {lo}..{hi} in {fmt.noun} row: {line!r}"
    row = dict(zip(fmt.names, fields))
    if fmt.d0_x_bin and (row["x_bin"] != "") != (int(row["detector"]) == CODE_D0):
        return f"x_bin presence inconsistent with detector: {line!r}"
    return f"malformed {fmt.noun} row: {line!r}"


def write_event_log(path, pieces, header: SimStreamHeader, n_rows: int) -> str:
    """Write pieces, consecutive pieces of n_rows records in all, as the event log at path.

    A piece maps each event column name to its column, as event_chunks
    gives them.  Every field of a piece is checked against the row grammar
    before any of its rows is written, the first piece's before the file is
    opened, so a value the reader would refuse raises a one-line ValueError
    naming its row in the file and leaves no file behind.  n_rows goes in
    the header; pieces holding another number of records are refused the
    same way.
    """

    def chunks():
        row = 0
        for piece in pieces:
            yield from _row_bytes(_EVENT_LOG, piece, row)
            row += len(piece["time_ns"])
        if row != n_rows:
            raise ValueError(
                f"cannot write event log: {row} rows where the header declares {n_rows}"
            )

    return _write_text(path, _stream_header(_EVENT_LOG, header, n_rows), chunks())


def read_event_log(path) -> tuple[EventStream, SimStreamHeader]:
    cols, header = _read_columns(path, _EVENT_LOG)
    return EventStream(**cols, n_bins=header.n_bins), header


def read_triples(path) -> tuple[TripleBatch, SimStreamHeader]:
    cols, header = _read_columns(path, _TRIPLES)
    return _numbered(cols), header


def triple_passes(path) -> _StreamPasses:
    """The triples file at path, read one pass at a time: passes of its columns, then its header.

    Iterating gives the file's four columns in consecutive pieces, and
    raises what read_triples would after the last; header is then set.
    """
    return _StreamPasses(path, _TRIPLES)
