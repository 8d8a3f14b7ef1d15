"""Reference implementations the whole-array stream path is tested against.

These are the line-by-line readers and the full greedy matcher loop that
``qeraser.events`` used before its numpy passes, and the per-block decode
loop of ``qeraser.analysis``.  They are kept verbatim as differential
oracles: the fast paths must return the same arrays, headers, floats and
orphan reports.  The readers here are looser than the library's grammar
(Python's ``int()`` accepts ``+5``, ``1_0`` and padded fields, and ``#`` lines
anywhere), so they agree with the library on every file the writers produce.
"""

from __future__ import annotations

import warnings

import numpy as np

from qeraser.analysis import LowSampleWarning, build_histogram, classify_pattern, fit_fringe
from qeraser.events import (
    CODE_D0,
    DETECTOR_LABELS,
    EventStream,
    OrphanReport,
    SimStreamHeader,
    TripleBatch,
)
from qeraser.optics import ALISHA_LABELS, BABU_LABELS

_CODE_BY_LABEL = {label: code for code, label in enumerate(DETECTOR_LABELS)}


def match_coincidences_loop(
    stream: EventStream,
    window_ns: int = 20,
    *,
    block_size: int | None = None,
    spacing_ns: int | None = None,
) -> tuple[TripleBatch, OrphanReport]:
    """Greedy earliest-first matcher, one Python iteration per D0 record."""
    w = int(window_ns)
    if w < 0:
        raise ValueError("window must be non-negative")
    t = stream.time_ns
    if len(t) > 1 and np.any(np.diff(t) < 0):
        raise ValueError("event stream is not time-sorted")

    codes = stream.detector
    d0_pos = np.flatnonzero(codes == CODE_D0)
    b_pos = np.flatnonzero((codes >= 1) & (codes <= 4))
    a_pos = np.flatnonzero(codes >= 5)

    td = t[d0_pos].tolist()
    xd = stream.x_bin[d0_pos].tolist()
    tb = t[b_pos].tolist()
    cb = codes[b_pos].tolist()
    ta = t[a_pos].tolist()
    ca = codes[a_pos].tolist()

    nb, na = len(tb), len(ta)
    used_b = np.zeros(nb, dtype=bool)
    used_a = np.zeros(na, dtype=bool)
    used_d = np.zeros(len(td), dtype=bool)

    xs, js, ks, blocks = [], [], [], []
    matched = 0
    pb = pa = 0
    for di, t0 in enumerate(td):
        while pb < nb and tb[pb] < t0 - w:
            pb += 1
        while pa < na and ta[pa] < t0 - w:
            pa += 1
        if pb < nb and tb[pb] <= t0 + w and pa < na and ta[pa] <= t0 + w:
            used_d[di] = True
            used_b[pb] = True
            used_a[pa] = True
            xs.append(xd[di])
            js.append(cb[pb] - 1)
            ks.append(ca[pa] - 5)
            if spacing_ns is not None and block_size is not None:
                blocks.append(t0 // (int(spacing_ns) * int(block_size)))
            elif block_size is not None:
                blocks.append(matched // int(block_size))
            else:
                blocks.append(0)
            matched += 1
            pb += 1
            pa += 1

    orphan_pos = np.concatenate(
        [d0_pos[~used_d], b_pos[~used_b], a_pos[~used_a]]
    ).astype(np.int64)
    orphan_pos.sort()
    by_detector: dict = {}
    for code in codes[orphan_pos]:
        label = DETECTOR_LABELS[int(code)]
        by_detector[label] = by_detector.get(label, 0) + 1
    report = OrphanReport(
        total=int(orphan_pos.size),
        by_detector=by_detector,
        event_ids=stream.event_id[orphan_pos],
    )
    batch = TripleBatch(
        triple_id=np.arange(matched, dtype=np.int64),
        x_bin=np.array(xs, dtype=np.int64),
        babu=np.array(js, dtype=np.int64),
        alisha=np.array(ks, dtype=np.int64),
        block_index=np.array(blocks, dtype=np.int64),
    )
    return batch, report


def _parse_header(fh) -> tuple[dict, list[str]]:
    """Read '#' lines anywhere; returns (key->value, remaining data lines)."""
    meta: dict = {}
    data: list[str] = []
    for raw in fh:
        line = raw.rstrip("\n")
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if line:
            data.append(line)
    return meta, data


def _header_from_meta(meta: dict) -> SimStreamHeader:
    try:
        return SimStreamHeader(
            seed=int(meta["seed"]),
            config_digest=meta["config_digest"],
            coincidence_window_ns=int(meta["coincidence_window_ns"]),
            rng_algorithm=meta["rng_algorithm"],
            bits=meta["bits"],
            block_size=int(meta["block_size"]),
            spacing_ns=int(meta["spacing_ns"]),
            n_triples=int(meta["n_triples"]),
            n_bins=int(meta["n_bins"]),
        )
    except KeyError as exc:
        raise ValueError(f"stream header missing field {exc}") from exc


def read_event_log_lines(path) -> tuple[EventStream, SimStreamHeader]:
    """Event-log reader with one split and three int() calls per row."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, data = _parse_header(fh)
    header = _header_from_meta(meta)
    declared = int(meta.get("n_rows", -1))
    if declared != len(data):
        raise ValueError(
            f"event log declares {declared} rows but contains {len(data)}; "
            "file is truncated or corrupt"
        )
    ids, det, ts, xs = [], [], [], []
    for line in data:
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed event row: {line!r}")
        code = _CODE_BY_LABEL.get(parts[1])
        if code is None:
            raise ValueError(f"unknown detector {parts[1]!r}")
        has_x = parts[3] != ""
        if has_x != (code == CODE_D0):
            raise ValueError(f"x_bin presence inconsistent with detector: {line!r}")
        ids.append(int(parts[0]))
        det.append(code)
        ts.append(int(parts[2]))
        xs.append(int(parts[3]) if has_x else -1)
    stream = EventStream(
        event_id=ids, detector=det, time_ns=ts, x_bin=xs, n_bins=header.n_bins
    )
    return stream, header


def read_triples_lines(path) -> tuple[TripleBatch, SimStreamHeader]:
    """Triples reader with one split and three int() calls per row."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, data = _parse_header(fh)
    header = _header_from_meta(meta)
    declared = int(meta.get("n_rows", -1))
    if declared != len(data):
        raise ValueError(
            f"triples file declares {declared} rows but contains {len(data)}; "
            "file is truncated or corrupt"
        )
    babu_code = {label: i for i, label in enumerate(BABU_LABELS)}
    alisha_code = {label: i for i, label in enumerate(ALISHA_LABELS)}
    tid, blk, xb, jj, kk = [], [], [], [], []
    for line in data:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"malformed triple row: {line!r}")
        if parts[3] not in babu_code or parts[4] not in alisha_code:
            raise ValueError(f"unknown outcome labels in row: {line!r}")
        tid.append(int(parts[0]))
        blk.append(int(parts[1]))
        xb.append(int(parts[2]))
        jj.append(babu_code[parts[3]])
        kk.append(alisha_code[parts[4]])
    batch = TripleBatch(triple_id=tid, x_bin=xb, babu=jj, alisha=kk, block_index=blk)
    return batch, header


def decode_per_block(triples, schedule, geom, babu_filter, alisha_filter):
    """(decoded, visibility, stderr) tuples from one build_histogram per block."""
    decoded, vis, err = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowSampleWarning)
        for b in range(len(schedule.bits)):
            hist = build_histogram(
                triples, geom.n_bins, babu=babu_filter, alisha=alisha_filter, block=b
            )
            if hist.total == 0:
                decoded.append(0)
                vis.append(0.0)
                err.append(float("inf"))
                continue
            fit = fit_fringe(hist, geom)
            decoded.append(1 if classify_pattern(fit) == "interference" else 0)
            vis.append(fit.visibility)
            err.append(fit.standard_error)
    return tuple(decoded), tuple(vis), tuple(err)
