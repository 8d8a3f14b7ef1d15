#!/usr/bin/env python3
"""Bit errors of both decoders against the dark-count rate.

For each dark-count rate and each seed of a range, the script builds the
stream `simulate` writes for the default config (its schedule repeated
--repeat times, --block-size triples a block), rebuilds the triples with the
window matcher and decodes the schedule twice: with both idler records, and
from the screen plus alisha's idler only.  Dark counts add accidental
coincidences, which dilute the (D1, D1') fringes the first decoder reads; the
second stays at chance at every rate.  It prints, per rate, each decoder's bit
errors summed over the seeds and the seeds at which the omniscient decoder
missed a bit.

Run from the repo root (the defaults are the noisy_fine benchmark's size):

    PYTHONPATH=src python3 scripts/ber_vs_background.py --seeds 0:10 --rates 0,2e-3,1e-2
    PYTHONPATH=src python3 scripts/ber_vs_background.py --block-size 500
"""

import argparse
import sys
import warnings
from dataclasses import replace

from qeraser.analysis import LowSampleWarning, decode_alisha_only, decode_omniscient
from qeraser.events import (
    DEFAULT_WINDOW_NS,
    emit_events,
    inject_background,
    match_coincidences,
    sample_triples,
    triple_spacing_ns,
)
from qeraser.experiment import SwitchSchedule, default_config


def seed_range(text: str) -> range:
    """'A:B' as range(A, B)."""
    start, _, stop = text.partition(":")
    return range(int(start), int(stop))


def bit_errors(report) -> int:
    return sum(d != t for d, t in zip(report.decoded_bits, report.true_bits))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=range(0, 5), help="A:B, seeds A to B - 1")
    parser.add_argument("--rates", default="0,1e-3,2e-3,5e-3", help="dark counts per ns, comma-separated")
    parser.add_argument("--block-size", type=int, default=2500)
    parser.add_argument("--repeat", type=int, default=10, help="copies of the default schedule's bits")
    args = parser.parse_args(argv)
    rates = [float(r) for r in args.rates.split(",") if r]
    if not rates or not len(args.seeds):
        parser.error("need at least one rate and one seed")

    config = default_config()
    schedule = SwitchSchedule(bits=config.schedule.bits * args.repeat, block_size=args.block_size)
    config = replace(config, schedule=schedule)
    spacing = triple_spacing_ns(config.pair_rate_scale, schedule.n_triples)
    n_bits = len(schedule.bits)
    print(f"{n_bits} blocks x {schedule.block_size} triples, window +-{DEFAULT_WINDOW_NS} ns, "
          f"seeds {args.seeds.start}..{args.seeds.stop - 1}")
    print(f"{'rate/ns':>10} {'omniscient':>12} {'alisha':>12}  omniscient misses at seeds")

    for rate in rates:
        omni_total = alisha_total = 0
        missed = []
        for seed in args.seeds:
            stream = emit_events(sample_triples(config, seed), config, seed)
            stream = inject_background(stream, rate, seed)
            matched, _ = match_coincidences(
                stream, DEFAULT_WINDOW_NS, block_size=schedule.block_size, spacing_ns=spacing
            )
            del stream
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LowSampleWarning)
                omni = bit_errors(decode_omniscient(matched, schedule, config.geometry))
                alisha = bit_errors(decode_alisha_only(matched, schedule, config.geometry))
            omni_total += omni
            alisha_total += alisha
            if omni:
                missed.append(seed)
        bits = n_bits * len(args.seeds)
        print(f"{rate:>10.3g} {omni_total:>5}/{bits:<6} {alisha_total:>5}/{bits:<6}  "
              f"{' '.join(map(str, missed)) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
