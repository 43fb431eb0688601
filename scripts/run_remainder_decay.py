#!/usr/bin/env python3
"""Averaging remainder decay against the iteration count m.

Runs periodic averaging on perturbations with genuine angle-action coupling
(a purely angle-dependent single mode is normalized exactly in one step and
leaves nothing to measure) and records the measured per-m remainder norms.
"""

import argparse
import csv

from driftbench.diophantine import period_of
from driftbench.normalform import NormalFormConfig, periodic_averaging
from driftbench.series import Domain, FourierTaylorSeries, open_new


def coupled_system(mu: float, k_max: int = 16, d_max: int = 3):
    d = Domain(2, 1.0)
    one = FourierTaylorSeries.constant(d, 1.0, k_max, d_max)
    i1 = FourierTaylorSeries.action_coordinate(d, 0, k_max, d_max)
    f = FourierTaylorSeries.cosine(d, (1, 0), mu, k_max, d_max).product(one + i1)
    H = FourierTaylorSeries.linear(d, (1.0, 0.0), k_max, d_max) + f
    return H, period_of((1, 0))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=1e-3)
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--lie-order", type=int, default=6)
    ap.add_argument("--out", default="remainder_decay.csv")
    args = ap.parse_args()
    H, w = coupled_system(args.mu)
    with open_new(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "remainder_norm", "contraction"])
        prev = None
        for m in range(1, args.m_max + 1):
            out = periodic_averaging(H, w, NormalFormConfig(m=m, lie_order=args.lie_order))
            r = out.remainder.coefficient_norm()
            contraction = r / prev if prev else float("nan")
            writer.writerow([m, format(r, ".17g"), format(contraction, ".6g")])
            print(f"m={m}: remainder {r:.6e}  contraction {contraction:.3e}")
            prev = r or prev
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
