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

import hashlib
import itertools
import math
import os
import re
import stat
from dataclasses import dataclass, fields

import numpy as np

from .experiment import MODE_DOUBLE, ExperimentConfig, distribution_for
from .optics import ALISHA_LABELS, BABU_LABELS, screen_marginal

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

# Each record column's dtype, the one declaration the record constructors, the
# producers and the readers go by: detector codes and idler outcomes fit int8,
# screen bins int32 (n_bins <= MAX_BINS), ids, times and block indexes int64.
_DTYPE = {
    "event_id": np.dtype(np.int64),
    "time_ns": np.dtype(np.int64),
    "triple_id": np.dtype(np.int64),
    "block_index": np.dtype(np.int64),
    "x_bin": np.dtype(np.int32),
    "detector": np.dtype(np.int8),
    "babu": np.dtype(np.int8),
    "alisha": np.dtype(np.int8),
}


def _set_columns(record, ranges: dict) -> None:
    """Cast each of record's columns to its _DTYPE, checking the values as given first.

    A column's values must lie in ranges[name] where given, else in its
    dtype's range, so no value wraps in the cast.  An array already of its
    dtype is kept, not copied.
    """
    for name in (f.name for f in fields(record) if f.name in _DTYPE):
        values = np.asarray(getattr(record, name))
        dtype = _DTYPE[name]
        info = np.iinfo(dtype)
        lo, hi = ranges.get(name, (info.min, info.max))
        if values.size:
            low, high = int(values.min()), int(values.max())  # exact for any integer dtype
            if low < lo or high > hi:
                raise ValueError(f"{name} {low if low < lo else high} is outside {lo}..{hi}")
        setattr(record, name, values.astype(dtype, copy=False))


@dataclass(eq=False)
class TripleBatch:
    """Column-oriented batch of coincidence triples, each column of its _DTYPE."""

    triple_id: np.ndarray
    x_bin: np.ndarray
    babu: np.ndarray
    alisha: np.ndarray
    block_index: np.ndarray

    def __post_init__(self):
        _set_columns(self, {"babu": (0, 3), "alisha": (0, 3)})
        n = len(self.triple_id)
        if any(
            len(getattr(self, name)) != n
            for name in ("x_bin", "babu", "alisha", "block_index")
        ):
            raise ValueError("triple columns must share one length")

    def __len__(self) -> int:
        return len(self.triple_id)


@dataclass(eq=False)
class EventStream:
    """Time-sorted detection stream; detector held as codes into DETECTOR_LABELS."""

    event_id: np.ndarray
    detector: np.ndarray
    time_ns: np.ndarray
    x_bin: np.ndarray  # -1 for records without a screen position
    n_bins: int

    def __post_init__(self):
        _set_columns(self, {"detector": (0, len(DETECTOR_LABELS) - 1)})
        n = len(self.event_id)
        if any(len(getattr(self, name)) != n for name in ("detector", "time_ns", "x_bin")):
            raise ValueError("event columns must share one length")

    def __len__(self) -> int:
        return len(self.event_id)


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
            if f.type == "int" and not -_MAX_INT <= value <= _MAX_INT:
                raise ValueError(
                    f"stream header field {f.name}={value} is outside -{_MAX_INT}..{_MAX_INT}"
                )


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
    [batch] = _triple_chunks(config, seed, None)
    return batch


def _triple_chunks(config: ExperimentConfig, seed: int, size):
    """The run's triples as consecutive TripleBatch chunks of size triples (None: one chunk).

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
                np.clip(babu[piece], 0, 3, out=babu[piece])
                np.floor_divide(flat, 4, out=x_bin[piece])
                np.remainder(flat, 4, out=alisha[piece])
                at = end
            yield TripleBatch(
                triple_id=np.arange(lo, hi, dtype=_DTYPE["triple_id"]),
                x_bin=x_bin,
                babu=babu,
                alisha=alisha,
                block_index=np.arange(lo, hi, dtype=_DTYPE["block_index"]) // n,
            )

    return chunks()


def _draw_delays(n: int, seed: int) -> np.ndarray:
    """The (n, 2) idler delays in ns, held as int8, drawn _CHUNK_TRIPLES rows at a time.

    Each piece is an int64 draw from the one delay generator; pieces equal
    one whole draw, so the delays do not depend on the chunking.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_DOMAIN_DELAYS, 0)))
    delays = np.empty((n, 2), dtype=np.int8)
    for lo in range(0, n, _CHUNK_TRIPLES):
        k = min(_CHUNK_TRIPLES, n - lo)
        delays[lo : lo + k] = rng.integers(1, 11, size=(k, 2))
    return delays


def emit_events(triples: TripleBatch, config: ExperimentConfig, seed: int = 0) -> EventStream:
    """Unroll triples into a time-sorted stream of single detections.

    Triple t sits at t * spacing; its screen record comes first and the two
    idler records lag by independent integer delays in [1, 10] ns, the
    earlier first and babu's first on a tie.  Spacings of MIN_SPACING_NS and
    up keep triples from interleaving, so row t of an (n, 3) layout holds
    triple t's records in time order and no sort over the stream is needed.
    Delay draws depend only on (seed, triple position), never on outcomes,
    so two runs differing only in babu's settings share identical timestamps.
    Raises ValueError for a run triple_spacing_ns refuses.
    """
    n = len(triples)
    spacing = triple_spacing_ns(config.pair_rate_scale, n)
    return _emit(triples, _draw_delays(n, int(seed)), 0, spacing, config.geometry.n_bins)


def _emit(triples: TripleBatch, delays, first: int, spacing: int, n_bins: int) -> EventStream:
    """The records of triples first, first + 1, ...: emit_events' rows first .. first + len - 1."""
    n = len(triples)
    # each idler as delay * 16 + detector code: babu's codes (1-4) lie below
    # alisha's (5-8), so sorting a triple's pair puts babu first on a tie
    idlers = delays.astype(np.int16)
    idlers *= 16
    idlers[:, 0] += triples.babu
    idlers[:, 1] += triples.alisha
    idlers += (1, 5)
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
    x_bin[:, 0] = triples.x_bin
    return EventStream(
        event_id=np.arange(3 * first, 3 * (first + n), dtype=_DTYPE["event_id"]),
        detector=detector.ravel(),
        time_ns=time_ns.ravel(),
        x_bin=x_bin.ravel(),
        n_bins=n_bins,
    )


def inject_background(stream: EventStream, rate_per_ns: float, seed: int = 0) -> EventStream:
    """Overlay Poisson dark counts on a time-sorted stream.

    Original records keep their ids, content and order; background records
    get fresh ids past the current maximum, in draw order.  Each dark count
    goes after every original record at its time, and dark counts at one
    time keep draw order, so the result is sorted by (time, background,
    id) whenever the stream's records at each time are in id order, as
    emit_events' are.  Rate 0 returns the stream as is.  Raises ValueError
    for an unsorted stream.
    """
    rate = _background_rate(rate_per_ns)
    _require_sorted(stream.time_ns)
    if rate == 0.0 or len(stream) < 2:
        return stream
    t0, t1 = int(stream.time_ns[0]), int(stream.time_ns[-1])
    next_id = int(stream.event_id.max()) + 1
    return _merge(stream, _draw_dark(rate, t0, t1, stream.n_bins, next_id, int(seed)))


def _background_rate(rate_per_ns) -> float:
    rate = float(rate_per_ns)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"background rate must be finite and non-negative, got {rate!r}")
    return rate


def _draw_dark(rate: float, t0: int, t1: int, n_bins: int, next_id: int, seed: int) -> dict:
    """Poisson(rate * (t1 - t0)) dark counts on [t0, t1], sorted by time: column name -> array.

    Drawn whole from the background generator, count, times, codes, then
    screen bins, each as int64 and narrowed to its column's dtype.  The sort
    is stable, so ties keep draw order, which is id order; ids count from
    next_id in draw order.  The four columns take 21 bytes per dark count.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_DOMAIN_BACKGROUND, 0)))
    n_bg = int(rng.poisson(rate * (t1 - t0)))
    time_ns = rng.integers(t0, t1 + 1, size=n_bg)
    detector = rng.integers(0, len(DETECTOR_LABELS), size=n_bg).astype(_DTYPE["detector"])
    x_bin = rng.integers(0, n_bins, size=n_bg).astype(_DTYPE["x_bin"])
    x_bin[detector != CODE_D0] = -1
    event_id = np.argsort(time_ns, kind="stable")
    time_ns.sort()  # the same values as time_ns[event_id], sorted in place
    detector = detector[event_id]
    x_bin = x_bin[event_id]
    event_id += next_id
    return {"event_id": event_id, "detector": detector, "time_ns": time_ns, "x_bin": x_bin}


def _merge(stream: EventStream, dark: dict) -> EventStream:
    """stream with the time-sorted dark columns merged in, each after every record at its time.

    Each dark column is taken out of dark as it is merged, the int64 ones
    first, so a caller that holds the columns only in dark has each freed
    once merged.  No dark counts: the stream as is.
    """
    n_bg = len(dark["time_ns"])
    if not n_bg:
        return stream
    original = np.ones(len(stream) + n_bg, dtype=bool)
    at = np.searchsorted(stream.time_ns, dark["time_ns"], side="right")
    at += np.arange(n_bg)  # each earlier dark count shifts the next one place on
    original[at] = False
    del at

    def merged(name):
        column = getattr(stream, name)
        out = np.empty(len(original), dtype=column.dtype)
        out[original] = column
        out[~original] = dark.pop(name)
        return out

    event_id = merged("event_id")
    time_ns = merged("time_ns")
    return EventStream(
        event_id=event_id,
        detector=merged("detector"),
        time_ns=time_ns,
        x_bin=merged("x_bin"),
        n_bins=stream.n_bins,
    )


def _require_sorted(time_ns: np.ndarray) -> None:
    """Refuse times that ever decrease, with no full-length integer temporary."""
    if (time_ns[1:] < time_ns[:-1]).any():
        raise ValueError("event stream is not time-sorted")


def event_chunks(config: ExperimentConfig, seed: int, rate_per_ns: float) -> tuple:
    """(records, chunks): the run's stream as emit_events and inject_background build it, in chunks.

    records is the stream's length, 3 n_triples plus the dark counts.  chunks
    iterates over consecutive EventStream pieces of the stream: piece c holds
    triples c K .. (c + 1) K - 1 (K = _CHUNK_TRIPLES) and the dark counts
    timed before the next piece's first D0, which the merge puts after that
    D0.  The checks, the delays and the dark counts are done and drawn here,
    whole: the dark counts' Poisson mean needs the last triple's delays.
    Each piece is sampled, emitted and merged when it is asked for, and the
    iterator frees the draws when it ends.
    """
    rate = _background_rate(rate_per_ns)
    seed = int(seed)
    batches = _triple_chunks(config, seed, _CHUNK_TRIPLES)
    n = config.schedule.n_triples
    spacing = triple_spacing_ns(config.pair_rate_scale, n)
    delays = _draw_delays(n, seed)
    # emit_events' stream runs from 0 to the last triple's later idler, ids up to 3n - 1
    t_end = (n - 1) * spacing + int(delays[-1].max())
    n_bins = config.geometry.n_bins
    dark = _draw_dark(rate, 0, t_end, n_bins, 3 * n, seed) if rate > 0.0 else None
    records = 3 * n + (0 if dark is None else len(dark["time_ns"]))
    return records, _stream_chunks(batches, delays, dark, spacing, n_bins)


def _stream_chunks(batches, delays, dark, spacing: int, n_bins: int):
    """event_chunks' pieces: each batch emitted with its delays, and its share of dark merged."""
    taken, n = 0, len(delays)
    for batch in batches:
        lo = int(batch.triple_id[0])
        hi = lo + len(batch)
        stream = _emit(batch, delays[lo:hi], lo, spacing, n_bins)
        if dark is not None:
            # a dark count timed at the next piece's first D0 goes after it
            times = dark["time_ns"]
            end = len(times) if hi == n else int(np.searchsorted(times, hi * spacing))
            stream = _merge(stream, {name: column[taken:end] for name, column in dark.items()})
            taken = end
        yield stream


class _Matcher:
    """match_coincidences' greedy matcher, fed one time-sorted slice of a stream at a time.

    Between feeds it holds only unclaimed records, in three queues by kind:
    D0s as (time, x_bin), babu's and alisha's idlers as (time, code).  Each
    feed appends a slice to the queues and decides the D0s whose window
    closes before its last time, since every later record comes at or after
    it.  An idler queue then drops what the undecided D0s (at the last time
    less w or later) cannot claim: the records before its greedy pointer or
    the last time less 2w.  Dropped records that matched nothing are
    orphans.  result decides the rest and joins the matched pieces.
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
        self.pieces = []  # (x_bin, babu, alisha, block_index) matched per feed
        self.orphans = np.zeros(len(DETECTOR_LABELS), dtype=np.int64)

    def feed(self, time_ns, detector, x_bin) -> None:
        if not len(time_ns):
            return
        if self.last is not None and time_ns[0] < self.last:
            raise ValueError("event stream is not time-sorted")
        _require_sorted(time_ns)
        self.last = int(time_ns[-1])
        kinds = (detector == CODE_D0, (detector >= 1) & (detector <= 4), detector >= 5)
        for i, (kind, other) in enumerate(zip(kinds, (x_bin, detector, detector))):
            pos = np.flatnonzero(kind)
            times, values = self.queues[i]
            self.queues[i] = (
                np.concatenate([times, time_ns.take(pos)]),
                np.concatenate([values, other.take(pos)]),
            )
        self._step(final=False)

    def result(self) -> tuple[TripleBatch, OrphanReport]:
        self._step(final=True)
        columns = {}
        for name in ("x_bin", "babu", "alisha", "block_index"):  # each piece freed once joined
            columns[name] = np.concatenate([piece[0] for piece in self.pieces])
            self.pieces = [piece[1:] for piece in self.pieces]
        matched = len(columns["x_bin"])
        batch = TripleBatch(triple_id=np.arange(matched, dtype=_DTYPE["triple_id"]), **columns)
        by_detector = {label: int(n) for label, n in zip(DETECTOR_LABELS, self.orphans) if n}
        return batch, OrphanReport(total=int(self.orphans.sum()), by_detector=by_detector)

    def _step(self, final: bool) -> None:
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
        self.pieces.append((xd[got], cb[pick_b] - 1, ca[pick_a] - 5, td[got] // self.period))
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
    background events distort the matched sequence numbering.  The stream is
    fed to the matcher 3 _CHUNK_TRIPLES records at a time, so its
    temporaries are bounded by a slice and the records the matcher queues.
    """
    matcher = _Matcher(window_ns, block_size, spacing_ns)
    step = 3 * _CHUNK_TRIPLES
    for lo in range(0, len(stream), step):
        part = slice(lo, lo + step)
        matcher.feed(stream.time_ns[part], stream.detector[part], stream.x_bin[part])
    return matcher.result()


def write_and_match(path, header: SimStreamHeader, records: int, chunks) -> tuple:
    """(sha256, triples, orphans): write chunks as the event log at path, matching each as it goes.

    chunks are consecutive pieces of one time-sorted stream of records
    records, as event_chunks gives them.  The matcher takes the header's
    window, block size and spacing, as match_coincidences would on the log
    read back.  A piece is matched, then checked and written; a refused
    field leaves no file (see _write_stream).
    """
    matcher = _Matcher(header.coincidence_window_ns, header.block_size, header.spacing_ns)

    def matched(chunks):
        for chunk in chunks:
            matcher.feed(chunk.time_ns, chunk.detector, chunk.x_bin)
            yield chunk

    digest = write_event_log(path, matched(chunks), header, records)
    return (digest, *matcher.result())


# ---------------------------------------------------------------------------
# Text formats.  '#'-prefixed key=value header, then one record per line.
# Integers and fixed labels only, so identical runs are byte-identical.
#
# Row grammar, checked by the readers and kept by the writers: header lines
# only before the first data row; blank lines are skipped; fields are split on
# ',' with no padding; an integer field is -?[0-9]{1,18} and fits its
# column's dtype (int64 for every integer column but x_bin, which is int32);
# labels are exact.  "\r\n" and "\r" line ends read as "\n".
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"-?[0-9]{1,18}")
_MAX_DIGITS = 18
_MAX_INT = 10**_MAX_DIGITS - 1
_POW10 = 10 ** np.arange(1, _MAX_DIGITS, dtype=np.int64)  # a d-digit value reaches d - 1 of these
_CHUNK_ROWS = 65_536  # rows per write or parse pass: bounds memory, keeps temporaries in cache
_READ_BYTES = 1 << 20  # bytes per read of a stream file, about one parse pass of rows


@dataclass(frozen=True)
class _Format:
    """One stream file kind: header tag, row noun and columns in file order.

    A column is (name, None) for an integer, or (name, labels) for one of a
    fixed label tuple, held in memory as its index into the tuple.  With
    d0_x_bin, the x_bin field is present exactly on D0 rows and reads as -1
    where it is empty.  The reader and the writer both work from this record.
    """

    kind: str
    what: str
    noun: str
    columns: tuple
    d0_x_bin: bool = False

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.columns)


_EVENT_LOG = _Format(
    "event-log",
    "event log",
    "event",
    (("event_id", None), ("detector", DETECTOR_LABELS), ("time_ns", None), ("x_bin", None)),
    d0_x_bin=True,
)
_TRIPLES = _Format(
    "triples",
    "triples file",
    "triple",
    (
        ("triple_id", None),
        ("block_index", None),
        ("x_bin", None),
        ("babu", BABU_LABELS),
        ("alisha", ALISHA_LABELS),
    ),
)


def _write_text(path, header_lines, chunks) -> str:
    """Write header_lines as '# ' lines, then each bytes chunk; the sha256 hex of the file.

    Every '#'-headered file goes through here.  Bytes are written in binary
    mode, so line ends are '\n' on every platform, and hashed as they are
    written, so no caller reads a file back to vouch for it.  The first
    chunk is made before the file is opened, and a file whose chunks fail
    part way is removed, so a failing writer leaves no file behind.
    """
    digest = hashlib.sha256()
    head = "".join(f"# {line}\n" for line in header_lines).encode("utf-8")
    chunks = iter(chunks)
    first = next(chunks, b"")
    fh = open(path, "wb")
    try:
        with fh:
            for data in itertools.chain([head, first], chunks):
                digest.update(data)
                fh.write(data)
    except BaseException:
        os.unlink(path)
        raise
    return digest.hexdigest()


def _write_stream(path, fmt: _Format, header: SimStreamHeader, n_rows: int, parts) -> str:
    """Header, then the rows of each part (a record holding fmt's columns), _CHUNK_ROWS at a time.

    Every field of a part is checked against the row grammar before any of
    its rows is written, the first part's before the file is opened, so a
    value the reader would refuse raises a one-line ValueError naming its
    row in the file and leaves no file behind.  n_rows goes in the header;
    parts holding another number of rows are refused the same way.
    """
    from . import __version__

    lines = [f"qeraser-{fmt.kind} v1", f"tool_version={__version__}"]
    lines += [f"{f.name}={getattr(header, f.name)}" for f in fields(header)]
    lines += [f"n_rows={n_rows}", f"columns={','.join(fmt.names)}"]

    def chunks():
        row = 0
        for part in parts:
            columns = [getattr(part, name) for name in fmt.names]
            _check_fields(fmt, columns, row)
            n = len(columns[0])
            for lo in range(0, n, _CHUNK_ROWS):
                yield _format_rows(fmt, [c[lo : lo + _CHUNK_ROWS] for c in columns])
            row += n
        if row != n_rows:
            raise ValueError(
                f"cannot write {fmt.what}: {row} rows where the header declares {n_rows}"
            )

    return _write_text(path, lines, chunks())


def _check_fields(fmt: _Format, columns, first_row: int) -> None:
    """Refuse a field outside the row grammar, naming its column and its row (first_row on)."""
    for (name, labels), col, present in zip(fmt.columns, columns, _written_fields(fmt, columns)):
        lo, hi = (0, len(labels) - 1) if labels is not None else (-_MAX_INT, _MAX_INT)
        bad = np.flatnonzero(((col < lo) | (col > hi)) & present)
        if len(bad):
            i = int(bad[0])
            raise ValueError(
                f"cannot write {fmt.what}: {name} {int(col[i])} in row {first_row + i} "
                f"is outside {lo}..{hi}"
            )


def _written_fields(fmt: _Format, columns) -> list:
    """Per column, where its field is written: every row, or with d0_x_bin, x_bin on D0 rows."""
    present = [True] * len(columns)
    if fmt.d0_x_bin:
        present[fmt.names.index("x_bin")] = columns[fmt.names.index("detector")] == CODE_D0
    return present


def _format_rows(fmt: _Format, columns) -> np.ndarray:
    """The bytes of the rows held in columns (integer arrays in file order).

    Each field's width per row lays the rows out in one exact-size buffer.
    The fields are then written right to left: each puts its separator, then
    its bytes from the right, byte j only into rows whose field is longer
    than j.  An integer is its decimal digits after an optional '-'; a label
    is its big-endian key (as _parse_labels packs it) in base 256.
    """
    parts = []  # per field: (value, digit count, base, zero digit, rows with a '-')
    for (_, labels), col, present in zip(fmt.columns, columns, _written_fields(fmt, columns)):
        if labels is None:
            value = np.abs(col.astype(np.int64))  # an int32 minimum stays negative in np.abs
            n_digits = (np.searchsorted(_POW10, value, side="right") + 1) * present
            parts.append((value, n_digits, 10, ord("0"), (col < 0) & present))
        else:
            sizes = np.array([len(label) for label in labels], dtype=np.int64)
            parts.append((_label_keys(labels)[col], sizes[col], 256, 0, np.zeros(len(col), bool)))
    right = np.cumsum(sum(n_digits + neg + 1 for _, n_digits, _, _, neg in parts))
    buf = np.empty(int(right[-1]), dtype=np.uint8)  # right: one past each row's '\n'
    for f, (value, n_digits, base, zero, neg) in reversed(list(enumerate(parts))):
        right -= 1
        buf[right] = ord("\n" if f == len(parts) - 1 else ",")
        _put_digits(buf, right, value, n_digits, base, zero)
        right -= n_digits + neg
        buf[right[neg]] = ord("-")
    return buf


def _put_digits(buf, end, value, n_digits, base: int, zero: int) -> None:
    """buf[end - n_digits : end] = each value's last n_digits base-`base` digits, plus zero."""
    at = end - 1
    zero = np.uint8(zero)
    for j in range(int(n_digits.max(initial=0))):
        live = n_digits > j
        if not live.all():
            at, value, n_digits = at[live], value[live], n_digits[live]
        rest = value // base  # np.divmod takes several times longer
        buf[at] = (value - rest * base).astype(np.uint8) + zero
        value = rest
        at -= 1


def _header_int(key: str, value: str) -> int:
    if not _INT_RE.fullmatch(value):
        raise ValueError(f"stream header field {key}={value!r} is not an integer")
    return int(value)


def _read_stream(path, fmt: _Format) -> tuple[dict, SimStreamHeader]:
    """A stream file's columns (name -> array of the column's _DTYPE) and its header.

    One pass over the file, read _READ_BYTES at a time: the header lines,
    then each read's data rows, _CHUNK_ROWS lines at a time, whose separators
    are indexed and whose fields are parsed into columns sized from n_rows.
    Past the columns' end, or past a row with the wrong field count, rows are
    only counted.  The file's faults are reported in the order the row
    grammar ranks them, whichever read they sit in: the row count, then the
    first row with the wrong field count, then the first row whose fields
    fail to parse, re-checked by _row_error for the message.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        meta, rows = _read_header(_read_lines(fh))
        if "n_rows" not in meta:
            raise ValueError("stream header missing field 'n_rows'")
        declared = _header_int("n_rows", meta["n_rows"])
        # a row takes two bytes or more, so a larger count cannot be a regular file's
        limit = st.st_size // 2 if stat.S_ISREG(st.st_mode) else declared
        k = len(fmt.columns) - 1
        capacity = declared if 0 <= declared <= limit else 0
        cols = [np.empty(capacity, dtype=_DTYPE[name]) for name in fmt.names]
        n = 0
        bad = {}  # "fields", "grammar": the first row breaking that rule
        for buf in rows:
            for start, end in _line_blocks(buf):
                lo, n = n, n + len(start)
                if n > capacity or "fields" in bad:
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
                    out = [c[lo:n] for c in cols]
                    good = _parse_rows(buf, fmt, start, end, comma.reshape(-1, k), out)
                    if not good.all():
                        i = int(np.argmin(good))
                        bad["grammar"] = buf[start[i] : end[i]].tobytes()
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
        header = SimStreamHeader(
            **{
                f.name: _header_int(f.name, meta[f.name]) if f.type == "int" else meta[f.name]
                for f in fields(SimStreamHeader)
            }
        )
    except KeyError as exc:
        raise ValueError(f"stream header missing field {exc}") from exc
    return dict(zip(fmt.names, cols)), header


def _read_lines(fh):
    """fh's bytes from here on, _READ_BYTES at a time, as whole lines each ending in b"\n".

    A partial last line is carried into the next read, and so is a final
    b"\r", which a b"\n" may follow.  "\r\n" and "\r" line ends read as "\n",
    and the file's last line gets a "\n" if it has none.
    """
    carry = b""
    while True:
        more = fh.read(_READ_BYTES)
        data = carry + more
        cut = len(data)
        if more:  # up to the last line end, short of a final "\r"
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        lines, carry = data[:cut], data[cut:]
        if b"\r" in lines:
            lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if lines and not lines.endswith(b"\n"):  # only at the end of the file
            lines += b"\n"
        if lines:
            yield lines
        if not more:
            return


def _read_header(reads) -> tuple:
    """The header's key=value pairs, and the data rows' reads as uint8 arrays.

    The header is the '#' and blank lines before the first data row; it is
    parsed from the reads, and the data rows start in the read that holds
    the first of them.
    """
    meta: dict = {}
    for data in reads:
        pos = 0
        while data.startswith(b"#", pos) or data.startswith(b"\n", pos):
            eol = data.index(b"\n", pos)
            try:
                body = data[pos + 1 : eol].decode("utf-8").strip()
            except UnicodeDecodeError:
                line = data[pos:eol].decode("utf-8", errors="backslashreplace")
                raise ValueError(f"header line is not UTF-8: {line!r}") from None
            if data[pos] == ord("#") and "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            pos = eol + 1
        if pos < len(data):
            rest = (np.frombuffer(more, dtype=np.uint8) for more in reads)
            return meta, itertools.chain([np.frombuffer(data, dtype=np.uint8, offset=pos)], rest)
    return meta, iter(())


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
    for f, (name, labels) in enumerate(fmt.columns):
        left = start if f == 0 else comma[:, f - 1] + 1
        right = end if f == k else comma[:, f]
        if labels is not None:
            value, ok = _parse_labels(buf, left, right, labels)
        else:
            value, ok = _parse_ints(buf, left, right)
            info = np.iinfo(out[f].dtype)
            ok &= (value >= info.min) & (value <= info.max)
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
    neg = buf[left] == ord("-")
    n_digits = right - left - neg
    good = (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
    value = np.zeros(len(left), dtype=np.int64)
    scale = 1
    for k in range(min(int(n_digits.max(initial=0)), _MAX_DIGITS)):
        inside = k < n_digits
        digit = buf.take(right - 1 - k, mode="clip") - np.uint8(ord("0"))
        good &= (digit < 10) | ~inside
        value += np.where(inside, digit, 0).astype(np.int64) * scale
        scale *= 10
    np.negative(value, out=value, where=neg)
    return value, good


def _parse_labels(buf, left, right, labels: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Indices into labels of the fields buf[left:right], and which hold a label.

    Each field packs big-endian into an int64 key, looked up among the
    labels' sorted keys.
    """
    keys = _label_keys(labels)
    codes = np.argsort(keys)
    keys = keys[codes]
    longest = max(len(label) for label in labels)
    width = right - left
    key = np.zeros(len(left), dtype=np.int64)
    for k in range(longest):
        key = np.where(k < width, key * 256 + buf.take(left + k, mode="clip"), key)
    idx = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    good = (keys[idx] == key) & (width <= longest)  # an empty field packs to 0, no label
    return codes[idx], good


def _label_keys(labels: tuple) -> np.ndarray:
    """Each label's ASCII bytes packed big-endian into an int64, in label order."""
    return np.array(
        [int.from_bytes(label.encode("ascii"), "big") for label in labels], dtype=np.int64
    )


def _row_error(fmt: _Format, line: str) -> str:
    """Message naming the first rule of the row grammar that line breaks."""
    if line.startswith("#"):
        return f"header line after the first data row: {line!r}"
    fields = line.split(",")
    if len(fields) != len(fmt.columns):
        return f"malformed {fmt.noun} row: {line!r}"
    for (name, labels), field in zip(fmt.columns, fields):
        if labels is not None and field not in labels:
            known = " ".join(labels)
            return f"unknown {name} {field!r} in {fmt.noun} row (labels {known}): {line!r}"
    row = dict(zip(fmt.names, fields))
    if fmt.d0_x_bin and (row["x_bin"] != "") != (row["detector"] == DETECTOR_LABELS[CODE_D0]):
        return f"x_bin presence inconsistent with detector: {line!r}"
    for (name, labels), field in zip(fmt.columns, fields):
        if labels is not None or (fmt.d0_x_bin and name == "x_bin" and field == ""):
            continue
        if not _INT_RE.fullmatch(field):
            return f"bad integer {field!r} in {fmt.noun} row (want -?[0-9]{{1,18}}): {line!r}"
        info = np.iinfo(_DTYPE[name])
        if not info.min <= int(field) <= info.max:
            return f"{name} {field} is outside {info.min}..{info.max} in {fmt.noun} row: {line!r}"
    return f"malformed {fmt.noun} row: {line!r}"


def write_event_log(path, stream, header: SimStreamHeader, n_rows: int | None = None) -> str:
    """Write stream, an EventStream or consecutive EventStream pieces of n_rows records in all."""
    if isinstance(stream, EventStream):
        stream, n_rows = [stream], len(stream)
    return _write_stream(path, _EVENT_LOG, header, n_rows, stream)


def read_event_log(path) -> tuple[EventStream, SimStreamHeader]:
    cols, header = _read_stream(path, _EVENT_LOG)
    return EventStream(**cols, n_bins=header.n_bins), header


def write_triples(path, batch: TripleBatch, header: SimStreamHeader) -> str:
    return _write_stream(path, _TRIPLES, header, len(batch), [batch])


def read_triples(path) -> tuple[TripleBatch, SimStreamHeader]:
    cols, header = _read_stream(path, _TRIPLES)
    return TripleBatch(**cols), header
