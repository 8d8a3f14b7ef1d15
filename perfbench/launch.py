"""Run one command and report its wall time and its own peak RSS.

    python3 perfbench/launch.py REPORT.json PROGRAM [ARGS...]

Linux counts in a child's ``ru_maxrss`` the resident size of the process
that spawned it, because exec keeps the high-water mark of the memory image
it replaces.  The benchmark process holds numpy, scipy and the regenerated
input stream, so a command spawned from it directly would report that size
whenever it is the larger.  This launcher is a bare interpreter of a few MB:
the command it spawns reports its own peak.  Writes ``{"wall_s",
"maxrss_bytes"}`` to REPORT.json and exits with the command's exit code.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    spawned = []

    def stop(signum, frame):  # SIGTERM from the benchmark: end the command; main still reaps it
        for pid in spawned:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGTERM, stop)
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})  # no SIGTERM before pid is known
    start = time.perf_counter()
    spawned.append(os.posix_spawnp(argv[0], argv, os.environ, setsigmask=()))
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _, status, usage = os.wait4(spawned[0], 0)
    wall = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "maxrss_bytes": usage.ru_maxrss * 1024}, fh)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
