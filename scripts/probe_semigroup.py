#!/usr/bin/env python3
"""Semigroup probes for the linear velocity field v(x) = x.

The exact flow dilates space by e^t, so single-atom pairs should contract
with ratio e^t.  Prints the measured ratios, the fitted exponential
constant, and the short-time germ table against the characteristic flow.
"""

import argparse
import dataclasses
import math

from measureflow.analysis import germ_compat_check, semigroup_probe
from measureflow.fields import PvfSpec
from measureflow.measures import DiscreteMeasure
from measureflow.problems import builtin_problem


def _step_times(times, n):
    """The step times k/n of a level-n run nearest to ``times`` (k >= 1)."""
    return sorted({max(1, round(t * n)) / n for t in times})


def _fmt(value):
    """A ratio to 4 decimals; none when the pair starts in one cell."""
    return "none" if value is None else f"{value:.4f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=32)
    args = parser.parse_args()

    pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
    problem = dataclasses.replace(builtin_problem("translate"), pvf=pvf, reference=None)
    pairs = [
        (DiscreteMeasure.dirac([0.5]), DiscreteMeasure.dirac([0.75])),
        (DiscreteMeasure.dirac([0.25]), DiscreteMeasure.dirac([0.875])),
    ]
    probe = semigroup_probe(problem, pairs, _step_times([0.25, 0.5, 0.75, 1.0], args.N),
                            N=args.N, adaptive_extent=True)
    print(f"== data-dependence ratios at N={args.N} (expect ~ e^t) ==")
    for row in probe.rows:
        print(
            f"  pair {row.pair_index} t={row.t:5.2f}: ratio {_fmt(row.ratio)}"
            f"  (e^t = {math.exp(row.t):.4f}, implied C = {_fmt(row.implied_c)})"
        )
    print(f"  fitted C: {probe.fitted_c:.4f}")

    fine = 2 * args.N
    germ = germ_compat_check(pvf, None, [1.0], _step_times([1 / 32, 1 / 16, 1 / 8, 1 / 4], fine),
                             N=fine, adaptive_extent=True)
    print(f"\n== germ table from x0=1 at N={fine} ==")
    print(f"  snap offset: {germ.snap_offset:.3e}")
    for t, dist, corrected in germ.rows:
        print(f"  t={t:7.4f}: distance {dist:.3e}  corrected {corrected:.3e}  t^2 {t*t:.3e}")
    print(f"  quadratic coefficient: {germ.quad_coeff:.4f}")


if __name__ == "__main__":
    main()
