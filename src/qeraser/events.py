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

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .experiment import MODE_DOUBLE, ExperimentConfig, SwitchSchedule
from .optics import (
    ALISHA_LABELS,
    BABU_LABELS,
    joint_distribution,
    screen_marginal,
)

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
_CODE_BY_LABEL = {label: code for code, label in enumerate(DETECTOR_LABELS)}
_MAX_LABEL_BYTES = max(len(label) for label in DETECTOR_LABELS)
CODE_D0 = 0


@dataclass(eq=False)
class TripleBatch:
    """Column-oriented batch of coincidence triples (int64 arrays)."""

    triple_id: np.ndarray
    x_bin: np.ndarray
    babu: np.ndarray
    alisha: np.ndarray
    block_index: np.ndarray

    def __post_init__(self):
        for name in ("triple_id", "x_bin", "babu", "alisha", "block_index"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = len(self.triple_id)
        if any(
            len(getattr(self, name)) != n
            for name in ("x_bin", "babu", "alisha", "block_index")
        ):
            raise ValueError("triple columns must share one length")
        if n and (self.babu.min() < 0 or self.babu.max() > 3):
            raise ValueError("babu outcomes out of range")
        if n and (self.alisha.min() < 0 or self.alisha.max() > 3):
            raise ValueError("alisha outcomes out of range")

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
        for name in ("event_id", "detector", "time_ns", "x_bin"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = len(self.event_id)
        if any(len(getattr(self, name)) != n for name in ("detector", "time_ns", "x_bin")):
            raise ValueError("event columns must share one length")

    def __len__(self) -> int:
        return len(self.event_id)


@dataclass(frozen=True)
class SimStreamHeader:
    """Provenance block written at the top of event and triple files."""

    seed: int
    config_digest: str
    coincidence_window_ns: int
    bits: str
    block_size: int
    spacing_ns: int
    n_triples: int
    n_bins: int
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class OrphanReport:
    """Records left over by the matcher, counted per detector."""

    total: int
    by_detector: dict
    event_ids: np.ndarray


def triple_spacing_ns(pair_rate_scale: float) -> int:
    """Inter-triple gap; scale 1 means one triple per microsecond."""
    s = float(pair_rate_scale)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("pair_rate_scale must be positive")
    spacing = int(round(BASE_SPACING_NS / s))
    if spacing < MIN_SPACING_NS:
        raise ValueError(
            f"pair rate scale {s!r} packs triples closer than {MIN_SPACING_NS} ns; "
            "coincidence windows would overlap"
        )
    return spacing


def _empty_batch() -> TripleBatch:
    z = np.zeros(0, dtype=np.int64)
    return TripleBatch(z, z, z, z, z)


def sample_triples(
    config: ExperimentConfig,
    schedule: SwitchSchedule | None = None,
    seed: int = 0,
) -> TripleBatch:
    """Draw block_size triples per schedule bit from the exact joint table.

    Deterministic for a given (config, schedule, seed): block b consumes the
    spawned streams (0, b) and (1, b) only, so blocks could be generated in
    any order with identical output.
    """
    if config.mode != MODE_DOUBLE:
        raise ValueError("triple sampling needs a double_delayed_choice config")
    if schedule is None:
        schedule = config.schedule
    if schedule is None:
        raise ValueError("no switch schedule given")
    if int(seed) < 0:
        raise ValueError("seed must be a non-negative integer")
    seed = int(seed)
    if not schedule.bits:
        return _empty_batch()

    geom = config.geometry
    alisha = config.alisha
    marg_flat = screen_marginal(geom, config.envelope, alisha).ravel()
    marg_cum = np.cumsum(marg_flat)
    marg_cum /= marg_cum[-1]

    cond_cum = {}
    for bit in sorted(set(schedule.bits)):
        babu = replace(config.babu, splitter_present=bool(bit))
        dist = joint_distribution(geom, config.envelope, babu, alisha)
        cond = dist.probs.transpose(0, 2, 1).reshape(-1, 4).copy()  # row = (bin, k)
        rowsum = cond.sum(axis=1, keepdims=True)
        np.divide(cond, rowsum, out=cond, where=rowsum > 0)
        cond[rowsum[:, 0] == 0] = 0.25  # rows with zero marginal are never drawn
        cum = np.cumsum(cond, axis=1)
        cum[:, -1] = 1.0
        cond_cum[int(bit)] = cum

    n = schedule.block_size
    xs, js, ks, blocks = [], [], [], []
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
        j = (rows <= rng_c.random(n)[:, None]).sum(axis=1)
        np.clip(j, 0, 3, out=j)
        xs.append(flat // 4)
        ks.append(flat % 4)
        js.append(j)
        blocks.append(np.full(n, b, dtype=np.int64))

    x_bin = np.concatenate(xs)
    return TripleBatch(
        triple_id=np.arange(len(x_bin), dtype=np.int64),
        x_bin=x_bin,
        babu=np.concatenate(js),
        alisha=np.concatenate(ks),
        block_index=np.concatenate(blocks),
    )


def emit_events(triples: TripleBatch, config: ExperimentConfig, seed: int = 0) -> EventStream:
    """Unroll triples into a time-sorted stream of single detections.

    Triple t sits at t * spacing; its screen record comes first and the two
    idler records lag by independent integer delays in [1, 10] ns.  Delay
    draws depend only on (seed, triple position), never on outcomes, so two
    runs differing only in babu's settings share identical timestamps.
    """
    n = len(triples)
    spacing = triple_spacing_ns(config.pair_rate_scale)
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_DOMAIN_DELAYS, 0))
    )
    delays = rng.integers(1, 11, size=(n, 2))
    base = np.arange(n, dtype=np.int64) * spacing
    times = np.concatenate([base, base + delays[:, 0], base + delays[:, 1]])
    codes = np.concatenate(
        [
            np.zeros(n, dtype=np.int64),
            triples.babu + 1,
            triples.alisha + 5,
        ]
    )
    x_bin = np.concatenate([triples.x_bin, np.full(2 * n, -1, dtype=np.int64)])
    rank = np.concatenate(
        [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64), np.full(n, 2, dtype=np.int64)]
    )
    order = np.lexsort((rank, times))
    return EventStream(
        event_id=np.arange(3 * n, dtype=np.int64),
        detector=codes[order],
        time_ns=times[order],
        x_bin=x_bin[order],
        n_bins=config.geometry.n_bins,
    )


def inject_background(stream: EventStream, rate_per_ns: float, seed: int = 0) -> EventStream:
    """Overlay Poisson dark counts on an existing stream.

    Original records keep their ids and content; background records get
    fresh ids past the current maximum.  Rate 0 returns the stream as is.
    """
    rate = float(rate_per_ns)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"background rate must be finite and non-negative, got {rate!r}")
    if rate == 0.0 or len(stream) < 2:
        return stream
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(_DOMAIN_BACKGROUND, 0))
    )
    t0 = int(stream.time_ns[0])
    t1 = int(stream.time_ns[-1])
    n_bg = int(rng.poisson(rate * (t1 - t0)))
    bg_times = rng.integers(t0, t1 + 1, size=n_bg)
    bg_codes = rng.integers(0, len(DETECTOR_LABELS), size=n_bg)
    bg_x_all = rng.integers(0, stream.n_bins, size=n_bg)
    bg_x = np.where(bg_codes == CODE_D0, bg_x_all, -1)
    next_id = int(stream.event_id.max()) + 1
    bg_ids = next_id + np.arange(n_bg, dtype=np.int64)

    all_t = np.concatenate([stream.time_ns, bg_times])
    all_code = np.concatenate([stream.detector, bg_codes])
    all_x = np.concatenate([stream.x_bin, bg_x])
    all_id = np.concatenate([stream.event_id, bg_ids])
    is_bg = np.concatenate(
        [np.zeros(len(stream), dtype=np.int64), np.ones(n_bg, dtype=np.int64)]
    )
    order = np.lexsort((all_id, is_bg, all_t))
    return EventStream(
        event_id=all_id[order],
        detector=all_code[order],
        time_ns=all_t[order],
        x_bin=all_x[order],
        n_bins=stream.n_bins,
    )


def match_coincidences(
    stream: EventStream,
    window_ns: int = DEFAULT_WINDOW_NS,
    *,
    block_size: int | None = None,
    spacing_ns: int | None = None,
) -> tuple[TripleBatch, OrphanReport]:
    """Greedy earliest-first triple matching within a symmetric time window.

    Walks D0 records in time order; each one claims the earliest unconsumed
    record from each idler arm within window_ns, or becomes an orphan.  If
    spacing_ns and block_size are given (normally from the stream header)
    the block index is recovered from the D0 timestamp, which stays correct
    even when background events distort the matched sequence numbering.

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
        if value is not None and int(value) < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    t = stream.time_ns
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise ValueError("event stream is not time-sorted")

    codes = stream.detector
    d0_pos = np.flatnonzero(codes == CODE_D0)
    b_pos = np.flatnonzero((codes >= 1) & (codes <= 4))
    a_pos = np.flatnonzero(codes >= 5)
    td, tb, ta = t[d0_pos], t[b_pos], t[a_pos]
    nb, na = len(tb), len(ta)

    # first idler at or after t - w on each arm, per D0
    first_b = np.searchsorted(tb, td - w)
    first_a = np.searchsorted(ta, td - w)
    hit = (first_b < nb) & (first_a < na)
    hit[hit] = (tb[first_b[hit]] <= td[hit] + w) & (ta[first_a[hit]] <= td[hit] + w)
    pick_b = np.where(hit, first_b, -1)
    pick_a = np.where(hit, first_a, -1)

    far = np.diff(td) > 2 * w
    isolated = np.ones(len(td), dtype=bool)
    isolated[1:] &= far
    isolated[:-1] &= far
    clustered = np.flatnonzero(~isolated)
    if len(clustered):
        tb_at, ta_at = tb.item, ta.item
        pb = pa = 0
        for i, t0, sb, sa in zip(
            clustered.tolist(),
            td[clustered].tolist(),
            first_b[clustered].tolist(),
            first_a[clustered].tolist(),
        ):
            # pointers carried over from an earlier run never pass sb, sa
            pb = max(pb, sb)
            pa = max(pa, sa)
            if pb < nb and pa < na and tb_at(pb) <= t0 + w and ta_at(pa) <= t0 + w:
                pick_b[i] = pb
                pick_a[i] = pa
                pb += 1
                pa += 1
            else:
                pick_b[i] = pick_a[i] = -1

    used_d = pick_b >= 0
    pick_b = pick_b[used_d]
    pick_a = pick_a[used_d]
    matched = len(pick_b)
    if spacing_ns is not None and block_size is not None:
        # |t| < 10**18 for any parseable log, so clamping keeps Python's floor
        period = min(int(spacing_ns) * int(block_size), np.iinfo(np.int64).max)
        blocks = td[used_d] // period
    elif block_size is not None:
        blocks = np.arange(matched, dtype=np.int64) // int(block_size)
    else:
        blocks = np.zeros(matched, dtype=np.int64)

    orphan = np.ones(len(codes), dtype=bool)
    orphan[d0_pos[used_d]] = False
    orphan[b_pos[pick_b]] = False
    orphan[a_pos[pick_a]] = False
    orphan_pos = np.flatnonzero(orphan)
    orphan_codes = codes[orphan_pos]
    counts = np.bincount(orphan_codes, minlength=len(DETECTOR_LABELS))
    present = np.flatnonzero(counts)
    first_seen = [int(np.argmax(orphan_codes == code)) for code in present]
    # labels in order of first appearance, as a record-by-record count gives them
    by_detector = {
        DETECTOR_LABELS[present[i]]: int(counts[present[i]]) for i in np.argsort(first_seen)
    }
    report = OrphanReport(
        total=int(orphan_pos.size),
        by_detector=by_detector,
        event_ids=stream.event_id[orphan_pos],
    )
    batch = TripleBatch(
        triple_id=np.arange(matched, dtype=np.int64),
        x_bin=stream.x_bin[d0_pos[used_d]],
        babu=codes[b_pos[pick_b]] - 1,
        alisha=codes[a_pos[pick_a]] - 5,
        block_index=blocks,
    )
    return batch, report


# ---------------------------------------------------------------------------
# Text formats.  '#'-prefixed key=value header, then one record per line.
# Integers and fixed labels only, so identical runs are byte-identical.
#
# Row grammar, checked by the readers: header lines only before the first
# data row; blank lines are skipped; fields are split on ',' with no padding;
# an integer field is -?[0-9]{1,18}, so every value fits in int64; labels are
# exact.  "\r\n" and "\r" line ends read as "\n".
# ---------------------------------------------------------------------------

_HEADER_KEYS = (
    "seed",
    "config_digest",
    "coincidence_window_ns",
    "rng_algorithm",
    "bits",
    "block_size",
    "spacing_ns",
    "n_triples",
    "n_bins",
)
_INT_RE = re.compile(r"-?[0-9]{1,18}")
_MAX_DIGITS = 18
_CHUNK_ROWS = 65_536  # rows per write or parse pass: bounds memory, keeps temporaries in cache


def _header_lines(header: SimStreamHeader, kind: str, n_rows: int) -> list[str]:
    from . import __version__

    lines = [f"# qeraser-{kind} v1", f"# tool_version={__version__}"]
    for key in _HEADER_KEYS:
        lines.append(f"# {key}={getattr(header, key)}")
    lines.append(f"# n_rows={n_rows}")
    return lines


def _header_int(meta: dict, key: str) -> int:
    value = meta[key]
    if not _INT_RE.fullmatch(value):
        raise ValueError(f"stream header field {key}={value!r} is not an integer")
    return int(value)


def _header_from_meta(meta: dict) -> SimStreamHeader:
    try:
        return SimStreamHeader(
            seed=_header_int(meta, "seed"),
            config_digest=meta["config_digest"],
            coincidence_window_ns=_header_int(meta, "coincidence_window_ns"),
            rng_algorithm=meta["rng_algorithm"],
            bits=meta["bits"],
            block_size=_header_int(meta, "block_size"),
            spacing_ns=_header_int(meta, "spacing_ns"),
            n_triples=_header_int(meta, "n_triples"),
            n_bins=_header_int(meta, "n_bins"),
        )
    except KeyError as exc:
        raise ValueError(f"stream header missing field {exc}") from exc


@dataclass(eq=False)
class _Rows:
    """A stream file split into byte ranges: rows, and fields within rows."""

    buf: np.ndarray  # uint8 view of the data rows; every row ends in b"\n"
    start: np.ndarray  # per row, offset of its first byte
    end: np.ndarray  # per row, offset of its b"\n"
    comma: np.ndarray  # (rows, fields - 1) offsets of the separators

    def field(self, f: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """[left, right) byte range of field f for the given rows."""
        left = self.start[rows] if f == 0 else self.comma[rows, f - 1] + 1
        right = self.end[rows] if f == self.comma.shape[1] else self.comma[rows, f]
        return left, right

    def line(self, i: int) -> str:
        return _line_text(self.buf, self.start[i], self.end[i])


def _line_text(buf: np.ndarray, start: int, end: int) -> str:
    return buf[start:end].tobytes().decode("utf-8", errors="backslashreplace")


def _split_rows(path, what: str, n_fields: int, row_error) -> tuple[dict, _Rows]:
    """Read a stream file: header fields and the byte layout of its rows.

    Checks the declared row count and the field count of every row;
    row_error(line) gives the message for the first row that fails.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    meta: dict = {}
    pos = 0
    while data.startswith(b"#", pos) or data.startswith(b"\n", pos):
        eol = data.index(b"\n", pos)
        body = data[pos + 1 : eol].decode("utf-8").strip()
        if data[pos] == ord("#") and "=" in body:
            key, value = body.split("=", 1)
            meta[key.strip()] = value.strip()
        pos = eol + 1
    buf = np.frombuffer(data, dtype=np.uint8)[pos:]
    end = np.flatnonzero(buf == ord("\n"))
    start = np.empty_like(end)
    start[:1] = 0
    start[1:] = end[:-1] + 1
    blank = end == start
    if blank.any():
        start, end = start[~blank], end[~blank]
    n = len(start)
    declared = _header_int(meta, "n_rows") if "n_rows" in meta else -1
    if declared != n:
        raise ValueError(
            f"{what} declares {declared} rows but contains {n}; "
            "file is truncated or corrupt"
        )
    comma = np.flatnonzero(buf == ord(","))
    k = n_fields - 1
    if len(comma) == n * k:
        # n * k separators sit k to a row iff each row's k slots fall inside it
        comma = comma.reshape(n, k)
        if n == 0 or ((comma[:, 0] >= start).all() and (comma[:, -1] < end).all()):
            return meta, _Rows(buf, start, end, comma)
        comma = comma.ravel()
    per_row = np.bincount(np.searchsorted(end, comma), minlength=n)
    bad = int(np.argmax(per_row != k))
    raise ValueError(row_error(_line_text(buf, start[bad], end[bad])))


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


def _label_table(labels: dict) -> tuple[np.ndarray, np.ndarray]:
    """Labels packed big-endian into int64 keys, sorted, with their codes."""
    packed = {int.from_bytes(label.encode("ascii"), "big"): code for label, code in labels.items()}
    keys = sorted(packed)
    return np.array(keys, dtype=np.int64), np.array([packed[key] for key in keys], dtype=np.int64)


def _parse_labels(buf, left, right, table) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the label fields buf[left:right], and which hold a known label."""
    keys, codes = table
    width = right - left
    key = np.zeros(len(left), dtype=np.int64)
    for k in range(_MAX_LABEL_BYTES):
        key = np.where(k < width, key * 256 + buf.take(left + k, mode="clip"), key)
    idx = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    good = (keys[idx] == key) & (width <= _MAX_LABEL_BYTES)  # an empty field packs to 0, no label
    return codes[idx], good


def _reject_first_bad_row(rows: _Rows, span: slice, good: np.ndarray, row_error) -> None:
    if not good.all():
        i = span.start + int(np.argmin(good))
        raise ValueError(row_error(rows.line(i)))


def _field_error(line: str, what: str, parts: list[str], n_fields: int) -> str | None:
    """Message for a misplaced header line or a wrong field count, if any."""
    if line.startswith("#"):
        return f"header line after the first data row: {line!r}"
    if len(parts) != n_fields:
        return f"malformed {what} row: {line!r}"
    return None


def _bad_int(field: str, what: str, line: str) -> str:
    return f"bad integer {field!r} in {what} row (want -?[0-9]{{1,18}}): {line!r}"


_DETECTOR_TABLE = _label_table(_CODE_BY_LABEL)
_BABU_TABLE = _label_table({label: i for i, label in enumerate(BABU_LABELS)})
_ALISHA_TABLE = _label_table({label: i for i, label in enumerate(ALISHA_LABELS)})


def _event_row_error(line: str) -> str:
    parts = line.split(",")
    error = _field_error(line, "event", parts, 4)
    if error:
        return error
    code = _CODE_BY_LABEL.get(parts[1])
    if code is None:
        return f"unknown detector {parts[1]!r}"
    has_x = parts[3] != ""
    if has_x != (code == CODE_D0):
        return f"x_bin presence inconsistent with detector: {line!r}"
    for field in (parts[0], parts[2], parts[3]) if has_x else (parts[0], parts[2]):
        if not _INT_RE.fullmatch(field):
            return _bad_int(field, "event", line)
    return f"malformed event row: {line!r}"


def _triple_row_error(line: str) -> str:
    parts = line.split(",")
    error = _field_error(line, "triple", parts, 5)
    if error:
        return error
    if parts[3] not in BABU_LABELS or parts[4] not in ALISHA_LABELS:
        return f"unknown outcome labels in row: {line!r}"
    for field in parts[:3]:
        if not _INT_RE.fullmatch(field):
            return _bad_int(field, "triple", line)
    return f"malformed triple row: {line!r}"


def write_event_log(path, stream: EventStream, header: SimStreamHeader) -> None:
    lines = _header_lines(header, "event-log", len(stream))
    lines.append("# columns=event_id,detector,time_ns,x_bin")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, len(stream), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            fh.write(
                "".join(
                    f"{i},{DETECTOR_LABELS[d]},{t},{x if d == CODE_D0 else ''}\n"
                    for i, d, t, x in zip(
                        stream.event_id[rows].tolist(),
                        stream.detector[rows].tolist(),
                        stream.time_ns[rows].tolist(),
                        stream.x_bin[rows].tolist(),
                    )
                )
            )


def read_event_log(path) -> tuple[EventStream, SimStreamHeader]:
    meta, rows = _split_rows(path, "event log", 4, _event_row_error)
    header = _header_from_meta(meta)
    n = len(rows.start)
    ids, det, ts, xs = np.empty((4, n), dtype=np.int64)
    for lo in range(0, n, _CHUNK_ROWS):
        span = slice(lo, min(lo + _CHUNK_ROWS, n))
        ids[span], good = _parse_ints(rows.buf, *rows.field(0, span))
        det[span], ok = _parse_labels(rows.buf, *rows.field(1, span), _DETECTOR_TABLE)
        good &= ok
        ts[span], ok = _parse_ints(rows.buf, *rows.field(2, span))
        good &= ok
        left, right = rows.field(3, span)
        x, ok = _parse_ints(rows.buf, left, right)
        has_x = right > left
        good &= (ok | ~has_x) & (has_x == (det[span] == CODE_D0))
        xs[span] = np.where(has_x, x, -1)
        _reject_first_bad_row(rows, span, good, _event_row_error)
    stream = EventStream(event_id=ids, detector=det, time_ns=ts, x_bin=xs, n_bins=header.n_bins)
    return stream, header


def write_triples(path, batch: TripleBatch, header: SimStreamHeader) -> None:
    lines = _header_lines(header, "triples", len(batch))
    lines.append("# columns=triple_id,block_index,x_bin,babu,alisha")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, len(batch), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            fh.write(
                "".join(
                    f"{t},{b},{x},{BABU_LABELS[j]},{ALISHA_LABELS[k]}\n"
                    for t, b, x, j, k in zip(
                        batch.triple_id[rows].tolist(),
                        batch.block_index[rows].tolist(),
                        batch.x_bin[rows].tolist(),
                        batch.babu[rows].tolist(),
                        batch.alisha[rows].tolist(),
                    )
                )
            )


def read_triples(path) -> tuple[TripleBatch, SimStreamHeader]:
    meta, rows = _split_rows(path, "triples file", 5, _triple_row_error)
    header = _header_from_meta(meta)
    n = len(rows.start)
    cols = np.empty((5, n), dtype=np.int64)
    for lo in range(0, n, _CHUNK_ROWS):
        span = slice(lo, min(lo + _CHUNK_ROWS, n))
        good = np.ones(span.stop - span.start, dtype=bool)
        for f, table in enumerate((None, None, None, _BABU_TABLE, _ALISHA_TABLE)):
            if table is None:
                cols[f, span], ok = _parse_ints(rows.buf, *rows.field(f, span))
            else:
                cols[f, span], ok = _parse_labels(rows.buf, *rows.field(f, span), table)
            good &= ok
        _reject_first_bad_row(rows, span, good, _triple_row_error)
    tid, blk, xb, jj, kk = cols
    batch = TripleBatch(triple_id=tid, x_bin=xb, babu=jj, alisha=kk, block_index=blk)
    return batch, header
