#!/usr/bin/env python3
"""Reproduce the admissible-perturbation table along the right lane.

For each target action the reported value is the smallest gradient norm of
the reduced function over lane samples with |I| <= I*, next to the
large-action envelope 4*pi*|a10|*I*exp(-pi*I/2).
"""
import argparse

from scatmap import ModelParams
from scatmap.highways import epsilon_star


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=0.9)
    ap.add_argument("--grid", type=int, default=1601)
    ap.add_argument("--targets", default="1,2,3,4")
    args = ap.parse_args()

    params = ModelParams(a00=0.0, a10=args.mu, a01=1.0)
    print(f"mu = {args.mu}")
    print(f"{'I*':>4} {'eps*':>10} {'envelope':>10} {'argmin I':>9}")
    for tok in args.targets.split(","):
        i_star = float(tok)
        est = epsilon_star(params, i_star, grid=args.grid)
        print(f"{i_star:4g} {est.value:10.4f} {est.envelope:10.4f} {est.argmin_I:9.3f}")


if __name__ == "__main__":
    main()
