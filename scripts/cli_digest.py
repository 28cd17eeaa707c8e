#!/usr/bin/env python3
"""Print a digest of what the CLI does on a fixed set of command lines.

Each argv of ``run_all_checks.SWEEPS``, plus the command lines below (counts,
streams, file input and output, and the usage, cap, sampling and invalid-input
error paths), runs once with ``--format text`` and once with ``--format json``
through ``constellation_lab.cli.main``, in process.  One line per run gives the
format, the exit code, and the sha256 of stdout, of stderr and of the
``--out`` file ("-" when none was written).  An argparse error is pinned by
the code of its ``SystemExit``, and its usage text is wrapped at 80 columns
whatever the terminal.

Two source trees behave the same on these command lines when their digests
are equal:

  PYTHONPATH=old/src python3 scripts/cli_digest.py > old.txt
  PYTHONPATH=src python3 scripts/cli_digest.py > new.txt
  diff old.txt new.txt

The digest of this tree is committed as ``tests/data/cli_digest.txt``, and
``tests/test_scripts.py`` compares the script's output with it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

from constellation_lab.biddings import Bidding, psi_inverse
from constellation_lab.cli import main
from constellation_lab.constellations import Constellation, from_permutations
from constellation_lab.permutations import Permutation
from run_all_checks import SWEEPS

# {dir} stands for a temporary directory that holds the input files below
# and the --out file; the printed argv keeps the placeholder
EXTRA = [
    ["count", "--what", "m", "--n", "4", "--k", "3", "--p", "2,3,1"],
    ["count", "--colored", "--n", "3", "--p", "2,2"],
    ["count", "--what", "compositions", "--n", "3", "--gamma", "1,2", "--gamma", "2,1"],
    ["count", "--what", "kappa", "--n", "3", "--lam", "1,2", "--lam", "3"],
    ["enumerate", "--what", "factorizations", "--n", "3", "--k", "2"],
    ["enumerate", "--what", "mtuples", "--n", "2", "--k", "2", "--p", "1,1"],
    ["render", "--kind", "halfedge", "--input", "{dir}/nebula.json"],
    ["render", "--kind", "nebula", "--input", "{dir}/nebula.json"],
    ["render", "--kind", "constellation", "--input", "{dir}/constellation.json"],
    ["psi", "--direction", "inv", "--input", "{dir}/bidding.json"],
    ["psi", "--direction", "fwd", "--input", "{dir}/nebula.json"],
    ["--out", "{dir}/out", "jackson-check", "--n", "3", "--k", "2", "--all-p"],
    ["--out", "{dir}/out", "puzzle", "--n", "3", "--k", "3", "--p", "1,2,1"],
    ["--out", "{dir}/out", "psi", "--direction", "inv", "--input", "{dir}/bidding.json"],
    ["--cap", "10", "jackson-check", "--n", "4", "--k", "2", "--all-p"],
    ["puzzle", "--n", "12", "--k", "4", "--p", "9,9,9,9", "--sample", "100"],
    ["puzzle", "--n", "0", "--k", "2", "--p", "0,0"],
    ["puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--sample", "0"],
    ["jackson-check", "--n", "4", "--k", "2"],
    ["jackson-check", "--n", "0", "--k", "2", "--all-p"],
    ["pointing-check", "--n", "3", "--k", "2", "--p", "1,1,1"],
    ["count", "--what", "m", "--n", "3"],
    ["psi", "--direction", "inv", "--input", "{dir}/missing.json"],
    ["jackson-check", "--n", "x", "--k", "2"],
    ["--cap", "5", "roundtrip", "--bijection", "phi", "--n", "3", "--k", "2"],
    ["--cap", "5", "roundtrip", "--bijection", "theta", "--n", "3", "--k", "2"],
    ["--cap", "5", "roundtrip", "--bijection", "sigma", "--n", "3", "--k", "2"],
    ["--cap", "5", "roundtrip", "--bijection", "psi", "--n", "3", "--k", "2"],
    ["puzzle", "--n", "6", "--k", "4", "--p", "4,4,4,4", "--sample", "30000", "--seed", "13"],
    ["puzzle", "--n", "3", "--k", "1", "--p", "0", "--sample", "50", "--seed", "2"],
    ["--cap", "5", "roundtrip", "--bijection", "swap", "--n", "3", "--k", "2"],
    ["--cap", "5", "roundtrip", "--bijection", "lambda", "--n", "3", "--k", "2"],
    ["--cap", "1", "pointing-check", "--n", "3", "--k", "2"],
    ["enumerate", "--what", "factorizations", "--n", "2", "--k", "2", "--p", "5,5"],
    ["puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--seed", "99"],
    ["--out", "{dir}/out", "--cap", "10", "enumerate", "--what", "factorizations", "--n", "4", "--k", "2"],
    ["roundtrip", "--bijection", "phi", "--n", "2", "--k", "2", "--p", "9,9"],
    ["roundtrip", "--bijection", "swap", "--n", "1", "--k", "2", "--p", "1,1"],
    ["roundtrip", "--bijection", "lambda", "--n", "2", "--k", "4"],
    ["roundtrip", "--bijection", "lambda", "--n", "4", "--k", "2"],
    ["puzzle", "--n", "8", "--k", "3", "--p", "4,5,4", "--sample", "5000", "--seed", "21"],
    ["puzzle", "--n", "6", "--k", "3", "--p", "2,3,4", "--sample", "5000", "--seed", "-3"],
    ["render", "--kind", "constellation", "--input", "{dir}/disconnected.json"],
    ["psi", "--direction", "fwd", "--input", "{dir}/bad_labels.json"],
    ["psi", "--direction", "fwd", "--input", "{dir}/aliased_labels.json"],
    ["puzzle", "--n", "2", "--k", "3", "--p", "2,2,2"],
    ["roundtrip", "--bijection", "phi", "--n", "2", "--k", "2", "--p", "0,2"],
    ["roundtrip", "--bijection", "swap", "--n", "2", "--k", "2", "--p", "0,2"],
    ["pointing-check", "--n", "2", "--k", "2", "--p=-1,3"],
    ["roundtrip", "--bijection", "sigma", "--n", "2", "--k", "1"],
    ["pointing-check", "--n", "2", "--k", "1"],
    ["mv-check", "--n", "2", "--k", "1"],
    ["count", "--colored", "--n", "0", "--p", "1,1"],
    ["gf-check", "--n", "2", "--k", "2", "--x", "1,1,1"],
    ["puzzle", "--n", "3", "--k", "2", "--p", "1,2,3"],
    ["puzzle", "--n", "3", "--k", "2", "--p", "1,2,3", "--sample", "10"],
    ["enumerate", "--what", "mtuples", "--n", "2", "--k", "2", "--p", "1,1,1"],
    ["symmetry-check", "--n", "5", "--k", "2"],
    ["symmetry-check", "--n", "3", "--k", "3"],
]

FORMATS = ("text", "json")


def write_inputs(folder: str) -> None:
    b = Bidding(
        omegas=(Permutation((1, 4, 3, 2)), Permutation((3, 2, 1, 4)), Permutation((4, 1, 3, 2))),
        subsets=(frozenset({2}), frozenset({2, 3}), frozenset({1, 2}), frozenset({2, 3})),
    )
    c = from_permutations(
        (Permutation((2, 1, 4, 3)), Permutation((1, 3, 2, 4)), Permutation((4, 2, 3, 1))), root=2
    )
    # two hyperedges with no vertex in common: valid rotations, not transitive
    disconnected = Constellation(
        k=2,
        n=2,
        hyperedges=((1, 3), (2, 4)),
        vertex_type=(1, 1, 2, 2),
        rotation=((1,), (2,), (1,), (2,)),
    )
    ln = psi_inverse(b)
    (x, _), *rest = ln.white_bud_labels
    # " 013" reads as dart 13 to int(), a second key for a labelled bud
    aliased = ln.to_json()
    aliased["white_bud_labels"][" 013"] = 0
    inputs = (
        ("bidding.json", b.to_json()),
        ("nebula.json", ln.to_json()),
        ("constellation.json", c.to_json()),
        ("disconnected.json", disconnected.to_json()),
        ("bad_labels.json", replace(ln, white_bud_labels=((x, 99), *rest)).to_json()),
        ("aliased_labels.json", aliased),
    )
    for name, data in inputs:
        with open(os.path.join(folder, name), "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def digest(argv: list[str], fmt: str, folder: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--format", fmt, *(a.replace("{dir}", folder) for a in argv)])
        except SystemExit as exc:
            code = exc.code
    out_file = os.path.join(folder, "out")
    written = "-"
    if os.path.exists(out_file):
        with open(out_file, encoding="utf-8") as handle:
            written = sha(handle.read())
        os.remove(out_file)
    # messages may name an input file; the placeholder keeps them comparable
    stderr = err.getvalue().replace(folder, "{dir}")
    fields = f"exit={code} stdout={sha(out.getvalue())} stderr={sha(stderr)} out={written}"
    return f"{fmt} {fields}  {' '.join(argv)}"


def main_digest() -> int:
    # argparse wraps usage text to the terminal width, which it reads from
    # COLUMNS; a fixed width keeps the digest independent of the terminal
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as folder:
        write_inputs(folder)
        for argv in [*SWEEPS, *EXTRA]:
            for fmt in FORMATS:
                print(digest(argv, fmt, folder))
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
