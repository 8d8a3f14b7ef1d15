#!/usr/bin/env python3
"""Scan babu's recombiner angle: fringe contrast dials from 0 to 1 and back
while the screen-side marginal never moves.

With a balanced alisha arm the (D1, D1') slice has visibility sin(2 theta)
exactly; theta = 0 keeps full path information (flat slice), theta = pi/4
erases it completely (full-contrast fringe).  At every angle the screen
marginal stays flat to machine precision.

    python3 scripts/scan_erasure.py --steps 9
    python3 scripts/scan_erasure.py --chi 0.7853981633974483 --csv scan.csv
"""

import argparse
import math
import sys
import warnings

import numpy as np

from qeraser.analysis import LowSampleWarning, fit_fringe
from qeraser.experiment import default_config
from qeraser.optics import ArmOptics, D1, joint_distribution, screen_marginal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=9)
    parser.add_argument("--chi", type=float, default=0.0)
    parser.add_argument("--csv", default="")
    args = parser.parse_args(argv)
    if args.steps < 2:
        parser.error("need at least 2 steps")

    config = default_config()
    geom = config.geometry
    alisha = config.alisha
    reference = screen_marginal(geom, config.envelope, alisha)

    rows = []
    print(f"{'theta':>8} {'vis (fit)':>12} {'sin(2t)cos(chi)':>16} "
          f"{'|diff|':>10} {'marginal shift':>15}")
    for theta in np.linspace(0.0, math.pi / 2.0, args.steps):
        babu = ArmOptics(config.babu.tap_probability, theta=float(theta), chi=args.chi)
        dist = joint_distribution(geom, config.envelope, babu, alisha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowSampleWarning)
            fit = fit_fringe(dist.pattern(D1, D1), geom)
        expected = abs(math.sin(2.0 * theta) * math.cos(args.chi))
        shift = float(np.abs(dist.alisha_marginal() - reference).max())
        print(f"{theta:8.4f} {fit.visibility:12.9f} {expected:16.9f} "
              f"{abs(fit.visibility - expected):10.2e} {shift:15.2e}")
        rows.append((float(theta), fit.visibility, expected, shift))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("# columns=theta,visibility,expected,marginal_shift\n")
            for r in rows:
                fh.write(",".join(repr(v) for v in r) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
