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
    """Records left over by the matcher, counted per detector."""

    total: int
    by_detector: dict
    event_ids: np.ndarray


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


def sample_triples(config: ExperimentConfig, seed: int = 0) -> TripleBatch:
    """Draw block_size triples per schedule bit from the exact joint table.

    Deterministic for a given (config, seed): block b consumes the spawned
    streams (0, b) and (1, b) only, so blocks could be generated in any order
    with identical output.
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

    n = schedule.block_size
    n_blocks = len(schedule.bits)
    x_bin, babu, alisha = (
        np.empty((n_blocks, n), dtype=_DTYPE[name]) for name in ("x_bin", "babu", "alisha")
    )
    for b, bit in enumerate(schedule.bits):
        rng_m = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_DOMAIN_MARGINAL, b))
        )
        rng_c = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_DOMAIN_CONDITIONAL, b))
        )
        flat = np.searchsorted(marg_cum, rng_m.random(n), side="right")
        np.clip(flat, 0, marg_flat.size - 1, out=flat)
        rows = cond_cum[int(bit)][flat]
        np.sum(rows <= rng_c.random(n)[:, None], axis=1, out=babu[b])
        np.clip(babu[b], 0, 3, out=babu[b])
        np.floor_divide(flat, 4, out=x_bin[b])
        np.remainder(flat, 4, out=alisha[b])

    return TripleBatch(
        triple_id=np.arange(n_blocks * n, dtype=_DTYPE["triple_id"]),
        x_bin=x_bin.ravel(),
        babu=babu.ravel(),
        alisha=alisha.ravel(),
        block_index=np.repeat(np.arange(n_blocks, dtype=_DTYPE["block_index"]), n),
    )


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
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_DOMAIN_DELAYS, 0))
    )
    # each idler as delay * 16 + detector code: babu's codes (1-4) lie below
    # alisha's (5-8), so sorting a triple's pair puts babu first on a tie
    idlers = rng.integers(1, 11, size=(n, 2))
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
    time_ns[:, 0] = np.arange(n, dtype=_DTYPE["time_ns"]) * spacing
    np.add(time_ns[:, :1], idlers, out=time_ns[:, 1:])
    del idlers
    x_bin = np.full((n, 3), -1, dtype=_DTYPE["x_bin"])
    x_bin[:, 0] = triples.x_bin
    return EventStream(
        event_id=np.arange(3 * n, dtype=_DTYPE["event_id"]),
        detector=detector.ravel(),
        time_ns=time_ns.ravel(),
        x_bin=x_bin.ravel(),
        n_bins=config.geometry.n_bins,
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
    rate = float(rate_per_ns)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"background rate must be finite and non-negative, got {rate!r}")
    _require_sorted(stream.time_ns)
    if rate == 0.0 or len(stream) < 2:
        return stream
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_DOMAIN_BACKGROUND, 0))
    )
    t0 = int(stream.time_ns[0])
    t1 = int(stream.time_ns[-1])
    n_bg = int(rng.poisson(rate * (t1 - t0)))
    # made before the dark columns, so the heap can hand their pages back once they are freed
    original = np.ones(len(stream) + n_bg, dtype=bool)
    # drawn as int64, so the values are the same; held in their columns' dtypes
    bg_times = rng.integers(t0, t1 + 1, size=n_bg)
    bg_codes = rng.integers(0, len(DETECTOR_LABELS), size=n_bg).astype(_DTYPE["detector"])
    bg_x = rng.integers(0, stream.n_bins, size=n_bg).astype(_DTYPE["x_bin"])
    bg_x[bg_codes != CODE_D0] = -1
    next_id = int(stream.event_id.max()) + 1

    ids = np.argsort(bg_times, kind="stable")  # ties stay in draw order, which is id order
    bg_times = bg_times[ids]
    bg_codes = bg_codes[ids]
    bg_x = bg_x[ids]
    ids += next_id
    at = np.searchsorted(stream.time_ns, bg_times, side="right")
    at += np.arange(n_bg)  # each earlier dark count shifts the next one place on
    original[at] = False
    del at

    def merged(column, dark):
        out = np.empty(len(original), dtype=column.dtype)
        out[original] = column
        out[~original] = dark
        return out

    # the int64 dark columns first, each freed once merged
    event_id = merged(stream.event_id, ids)
    del ids
    time_ns = merged(stream.time_ns, bg_times)
    del bg_times
    return EventStream(
        event_id=event_id,
        detector=merged(stream.detector, bg_codes),
        time_ns=time_ns,
        x_bin=merged(stream.x_bin, bg_x),
        n_bins=stream.n_bins,
    )


def _require_sorted(time_ns: np.ndarray) -> None:
    """Refuse times that ever decrease, with no full-length integer temporary."""
    if (time_ns[1:] < time_ns[:-1]).any():
        raise ValueError("event stream is not time-sorted")


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
    background events distort the matched sequence numbering.

    A D0 more than 2w after the previous D0 can only meet idlers that no
    earlier D0 could reach (every idler an earlier D0 consumed or skipped lies
    below its t - w), so its greedy pointers are the searchsorted positions of
    t - w.  D0s with both neighbours that far away are decided in one array
    pass; only runs of closer D0s are walked one by one.
    """
    w = int(window_ns)
    if w < 0:
        raise ValueError("window must be non-negative")
    for name, value in (("block_size", block_size), ("spacing_ns", spacing_ns)):
        if int(value) < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    t = stream.time_ns
    _require_sorted(t)

    codes = stream.detector
    index = np.int32 if len(codes) < 2**31 else np.int64  # record positions
    d0_pos = np.flatnonzero(codes == CODE_D0).astype(index)
    b_pos = np.flatnonzero((codes >= 1) & (codes <= 4)).astype(index)
    a_pos = np.flatnonzero(codes >= 5).astype(index)
    nb, na = len(b_pos), len(a_pos)
    td = t[d0_pos]

    # per D0, each arm's first idler at or after t - w, as an index into the arm;
    # each arm's times are held only for its own search
    lo = td - w
    first_b = np.searchsorted(t[b_pos], lo).astype(index)
    first_a = np.searchsorted(t[a_pos], lo).astype(index)
    del lo
    hit = (first_b < nb) & (first_a < na)
    if nb and na:
        hit &= t[b_pos.take(first_b, mode="clip")] <= td + w
        hit &= t[a_pos.take(first_a, mode="clip")] <= td + w

    far = td[1:] - td[:-1] > 2 * w
    isolated = np.ones(len(td), dtype=bool)
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
    del first_b, first_a
    np.logical_not(hit, out=hit)
    pick_b[hit] = pick_a[hit] = -1
    del hit
    t_at, b_at, a_at = t.item, b_pos.item, a_pos.item
    pb = pa = 0
    for i, t0, sb, sa in walk:
        # pointers carried over from an earlier run never pass sb, sa
        pb = max(pb, sb)
        pa = max(pa, sa)
        if pb < nb and pa < na and t_at(b_at(pb)) <= t0 + w and t_at(a_at(pa)) <= t0 + w:
            pick_b[i] = pb
            pick_a[i] = pa
            pb += 1
            pa += 1
        else:
            pick_b[i] = pick_a[i] = -1
    del walk, b_at, a_at

    used_d = pick_b >= 0
    # |t| < 10**18 for any parseable log, so clamping keeps Python's floor
    period = min(int(spacing_ns) * int(block_size), np.iinfo(np.int64).max)
    blocks = td[used_d] // period
    del td
    d0_pos = d0_pos[used_d]
    b_pos = b_pos[pick_b[used_d]]
    a_pos = a_pos[pick_a[used_d]]
    del used_d, pick_b, pick_a
    batch = TripleBatch(
        triple_id=np.arange(len(d0_pos), dtype=_DTYPE["triple_id"]),
        x_bin=stream.x_bin[d0_pos],
        babu=codes[b_pos] - 1,
        alisha=codes[a_pos] - 5,
        block_index=blocks,
    )

    orphan = np.ones(len(codes), dtype=bool)
    for pos in (d0_pos, b_pos, a_pos):
        orphan[pos] = False
    del d0_pos, b_pos, a_pos, pos
    orphan_pos = np.flatnonzero(orphan)
    del orphan
    orphan_codes = codes[orphan_pos]
    counts = np.bincount(orphan_codes, minlength=len(DETECTOR_LABELS))
    present = np.flatnonzero(counts)
    first_seen = [int(np.argmax(orphan_codes == code)) for code in present]
    # labels in order of first appearance, as a record-by-record count gives them
    by_detector = {
        DETECTOR_LABELS[present[i]]: int(counts[present[i]]) for i in np.argsort(first_seen)
    }
    report = OrphanReport(
        total=len(orphan_pos),
        by_detector=by_detector,
        event_ids=stream.event_id[orphan_pos],
    )
    return batch, report


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
    written, so no caller reads a file back to vouch for it.
    """
    digest = hashlib.sha256()
    head = "".join(f"# {line}\n" for line in header_lines).encode("utf-8")
    with open(path, "wb") as fh:
        for data in itertools.chain([head], chunks):
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_stream(path, fmt: _Format, header: SimStreamHeader, record) -> str:
    """Header, then the record's columns in file order, _CHUNK_ROWS rows at a time.

    Every written field is checked against the row grammar before the file
    is opened, so a value the reader would refuse leaves no file behind.
    """
    from . import __version__

    columns = [getattr(record, name) for name in fmt.names]
    n = len(columns[0])
    written = _written_fields(fmt, columns)
    for (name, labels), col, present in zip(fmt.columns, columns, written):
        lo, hi = (0, len(labels) - 1) if labels is not None else (-_MAX_INT, _MAX_INT)
        bad = np.flatnonzero(((col < lo) | (col > hi)) & present)
        if len(bad):
            i = int(bad[0])
            raise ValueError(
                f"cannot write {fmt.what}: {name} {int(col[i])} in row {i} is outside {lo}..{hi}"
            )
    lines = [f"qeraser-{fmt.kind} v1", f"tool_version={__version__}"]
    lines += [f"{f.name}={getattr(header, f.name)}" for f in fields(header)]
    lines += [f"n_rows={n}", f"columns={','.join(fmt.names)}"]
    chunks = (
        _format_rows(fmt, [c[lo : lo + _CHUNK_ROWS] for c in columns])
        for lo in range(0, n, _CHUNK_ROWS)
    )
    return _write_text(path, lines, chunks)


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


def write_event_log(path, stream: EventStream, header: SimStreamHeader) -> str:
    return _write_stream(path, _EVENT_LOG, header, stream)


def read_event_log(path) -> tuple[EventStream, SimStreamHeader]:
    cols, header = _read_stream(path, _EVENT_LOG)
    return EventStream(**cols, n_bins=header.n_bins), header


def write_triples(path, batch: TripleBatch, header: SimStreamHeader) -> str:
    return _write_stream(path, _TRIPLES, header, batch)


def read_triples(path) -> tuple[TripleBatch, SimStreamHeader]:
    cols, header = _read_stream(path, _TRIPLES)
    return TripleBatch(**cols), header
