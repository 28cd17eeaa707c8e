#!/usr/bin/env python3
"""Run the full verification sweep through the CLI and summarize.

Covers the same ground as the acceptance suite but through the installed
command-line surface, so it doubles as an end-to-end smoke test.  Exits
nonzero if any check fails.
"""
from __future__ import annotations

import sys
import time

from constellation_lab.cli import main

SWEEPS = [
    ["jackson-check", "--n", "4", "--k", "2", "--all-p"],
    ["jackson-check", "--n", "3", "--k", "3", "--all-p"],
    ["jackson-check", "--n", "2", "--k", "4", "--all-p"],
    ["jackson-check", "--n", "4", "--k", "3", "--all-p"],
    ["gf-check", "--n", "3", "--k", "2", "--all-x"],
    ["gf-check", "--n", "3", "--k", "3", "--all-x"],
    ["mv-check", "--n", "4", "--k", "2"],
    ["mv-check", "--n", "3", "--k", "3"],
    ["mv-check", "--n", "4", "--k", "3"],
    ["symmetry-check", "--n", "4", "--k", "2"],
    ["symmetry-check", "--n", "3", "--k", "4"],
    ["roundtrip", "--bijection", "phi", "--n", "3", "--k", "2"],
    ["roundtrip", "--bijection", "phi", "--n", "2", "--k", "3"],
    ["roundtrip", "--bijection", "swap", "--n", "3", "--k", "2"],
    ["roundtrip", "--bijection", "lambda", "--n", "3", "--k", "2"],
    ["roundtrip", "--bijection", "lambda", "--n", "2", "--k", "3"],
    ["roundtrip", "--bijection", "lambda", "--n", "3", "--k", "3"],
    ["roundtrip", "--bijection", "theta", "--n", "3", "--k", "2"],
    ["roundtrip", "--bijection", "sigma", "--n", "3", "--k", "2"],
    ["roundtrip", "--bijection", "psi", "--n", "2", "--k", "3"],
    ["roundtrip", "--bijection", "sigma", "--n", "2", "--k", "4"],
    ["roundtrip", "--bijection", "psi", "--n", "2", "--k", "4"],
    ["pointing-check", "--n", "3", "--k", "2"],
    ["pointing-check", "--n", "2", "--k", "3"],
    ["pointing-check", "--n", "3", "--k", "3"],
    ["pointing-check", "--n", "4", "--k", "2"],
    ["puzzle", "--n", "4", "--k", "3", "--p", "2,3,1"],
    ["puzzle", "--n", "6", "--k", "2", "--p", "3,2"],
    ["puzzle", "--n", "6", "--k", "3", "--p", "2,3,4", "--sample", "20000", "--seed", "7"],
]


def run() -> int:
    worst = 0
    for argv in SWEEPS:
        label = " ".join(argv)
        t0 = time.time()
        code = main(argv)
        print(f"--> exit {code} in {time.time() - t0:.2f}s  ({label})")
        print()
        worst = max(worst, code)
    print("ALL CHECKS PASSED" if worst == 0 else f"FAILURES PRESENT (worst exit {worst})")
    return worst


if __name__ == "__main__":
    sys.exit(run())
