#!/usr/bin/env python3
"""Monte-Carlo sample of the linear-shift prevalence claim.

Draws xi from a box and records, for each shifted Hamiltonian h - xi.I, the
largest ladder gamma at which the Morse check passes.  Desk-scale evidence
only: the fraction is recorded, never asserted.
"""

import argparse
import csv

from driftbench.series import Domain, FourierTaylorSeries, open_new
from driftbench.steepness import sample_prevalence
from driftbench.systems import SeriesHamiltonian, degenerate_steep, quasi_convex


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--tau", type=float, default=10.5)  # needs tau > 2(n^2+1) = 10
    ap.add_argument("--xi-box", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="prevalence.csv")
    args = ap.parse_args()

    d = Domain(2, 1.0)
    cases = {
        "identity-quadratic": quasi_convex(0.0).h_action,           # |I|^2/2
        "degenerate-quadratic": SeriesHamiltonian(                  # I_1^2/2
            FourierTaylorSeries.monomial(d, (2, 0), 0.5)
        ),
        "zero": SeriesHamiltonian(FourierTaylorSeries.zero(d)),
        "degenerate-steep-toy": degenerate_steep(0.0).h_action,
    }
    with open_new(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "samples", "fraction", "gamma_histogram"])
        for name, h in cases.items():
            rep = sample_prevalence(
                h, args.tau, args.samples, args.xi_box, n=2,
                L_max=2, grid_res=17, seed=args.seed,
            )
            hist = ";".join(f"{g}:{c}" for g, c in sorted(rep.histogram.items()))
            writer.writerow([name, rep.num_samples, rep.fraction, hist])
            print(f"{name:<24} fraction={rep.fraction}  histogram={hist}")
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
