#!/usr/bin/env python3
"""Scan the tree-probability identity over a grid of types.

For each feasible type at the requested size, print both exact
probabilities side by side (they must agree).  Optionally sample one larger
type with the seeded exact-in-law sampler and judge the counts in integers
by a 5-sigma test: acceptances against M^n_p / (2^k - 1)^n, and both hit
counts against the closed-form P(|R_1| = k-1), which the identity makes the
tree probability too.  No enumeration runs at the sampled size.

Usage:
  python3 scripts/puzzle_scan.py --k 3 --n-max 4
  python3 scripts/puzzle_scan.py --k 3 --n-max 8
  python3 scripts/puzzle_scan.py --k 4 --n-max 5
  python3 scripts/puzzle_scan.py --k 3 --n-max 4 --sample 6 2,3,4 --trials 100000
  python3 scripts/puzzle_scan.py --k 4 --n-max 2 --sample 20 10,10,10,10 --trials 200000
  python3 scripts/puzzle_scan.py --k 3 --n-max 2 --sample 60 26,26,26 --trials 400000
"""
from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction

from constellation_lab.counting import m_coefficient
from constellation_lab.puzzle import (
    r1_probability,
    ratio,
    sample_puzzle,
    verify_puzzle,
)


def feasible_types(n: int, k: int):
    for p in itertools.product(range(0, n + 1), repeat=k):
        if m_coefficient(n, p):
            yield p


def within_five_sigma(hits: int, trials: int, prob: Fraction) -> bool:
    """(hits - N P)^2 <= 25 N P (1 - P), in integers."""
    num, den = prob.numerator, prob.denominator
    return (hits * den - trials * num) ** 2 <= 25 * trials * num * (den - num)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--sample", nargs=2, metavar=("N", "P"), default=None)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bad = 0
    for n in range(1, args.n_max + 1):
        for p in feasible_types(n, args.k):
            r = verify_puzzle(n, args.k, p)
            mark = "" if r.equal else "   <-- MISMATCH"
            print(f"n={n} p={p}: P(tree) = {ratio(r.tree)}  P(|R_1|={args.k - 1}) = {ratio(r.r1)}{mark}")
            bad += not r.equal

    if args.sample is not None:
        n = int(args.sample[0])
        p = tuple(int(x) for x in args.sample[1].split(","))
        res = sample_puzzle(n, args.k, p, trials=args.trials, seed=args.seed)
        accept = Fraction(m_coefficient(n, p), (2**args.k - 1) ** n)
        exact = r1_probability(n, args.k, p)
        print()
        for label, hits, of, prob in [
            ("accepted", res.accepted, res.trials, accept),
            ("tree", res.tree_hits, res.accepted, exact),
            (f"|R_1|={args.k - 1}", res.r1_hits, res.accepted, exact),
        ]:
            ok = within_five_sigma(hits, of, prob)
            mark = "" if ok else "   <-- OUTSIDE 5 SIGMA"
            print(f"sampled n={n} p={p}: {label} {hits}/{of}, exact probability {ratio(prob)}{mark}")
            bad += not ok

    print()
    print("no mismatches" if bad == 0 else f"{bad} MISMATCHES")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
