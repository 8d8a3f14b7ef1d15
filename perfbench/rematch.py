"""Library-level step of the noisy_fine workload: re-match a written event log.

Reads the log once with ``read_event_log`` and runs ``match_coincidences``
twice, first at the window recorded in the log's header and then at the
narrower ``SECOND_WINDOW_NS``.  Prints one JSON line: counts for both passes
and a sha256 of the first pass's triple columns, which the benchmark compares
with the ``triples.csv`` that ``simulate`` wrote from the same stream.

    PYTHONPATH=src python3 perfbench/rematch.py --log run/events.csv
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

TRIPLE_COLUMNS = ("triple_id", "block_index", "x_bin", "babu", "alisha")
SECOND_WINDOW_NS = 5


def batch_digest(batch) -> str:
    """sha256 of a TripleBatch's columns as little-endian int64."""
    h = hashlib.sha256()
    for name in TRIPLE_COLUMNS:
        h.update(np.ascontiguousarray(getattr(batch, name), dtype="<i8").tobytes())
    return h.hexdigest()


def rematch(log_path: str) -> dict:
    # attribute lookups at call time, so the traced run sees wrapped functions
    from qeraser import events

    stream, header = events.read_event_log(log_path)
    result = {"records": len(stream), "window_ns": header.coincidence_window_ns}
    for key, window in (("first", header.coincidence_window_ns), ("second", SECOND_WINDOW_NS)):
        batch, orphans = events.match_coincidences(
            stream, window, block_size=header.block_size, spacing_ns=header.spacing_ns
        )
        result[key] = {"window_ns": window, "matched": len(batch), "orphans": orphans.total}
        if key == "first":
            result[key]["digest"] = batch_digest(batch)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(rematch(args.log), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
