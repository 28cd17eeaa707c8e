#!/usr/bin/env python3
"""Per-object timings of the bijection chain and its guards, its domains, the census-side counts, the exact puzzle and its sampler.

Usage:
  PYTHONPATH=src python3 scripts/bench.py --out BENCH.json [--quick]
  PYTHONPATH=src python3 scripts/bench.py --compare A.json B.json [--out FILE]

A run times, in this process, one layer per line of the file:

- ``<row>.<forward|inverse>.<domain>`` for every row of ``cli.ROUNDTRIPS``:
  the row's forward map on each object of the domain, and its inverse on
  each forward image.  The ``exhaustive`` domain is the row's own domain
  over the benchmark's grid (n <= 3, k = 2, 3; theta, sigma and psi where
  n + k <= 5); the ``random`` domain is 100 seeded objects at n = 6, 7, 8
  and k = 3, built from the generators of ``perfbench/oracle.py``.
  Nebulas are copied before each repeat, outside the timer, so that no
  repeat reads the views that the nebula guard of an earlier one left on a
  map.
- ``guard.<class>.exhaustive`` for the classes ``ColoredFactorization``,
  ``TreeRootedConstellation``, ``TreePointedConstellation``, ``Nebula``,
  ``LabelledNebula``, ``Prebidding`` and ``Bidding``: the class's
  ``validate`` on each object of its row's exhaustive domain (phi's inputs
  and images, lambda's inputs and images, theta's images and inputs, and
  psi's inputs).
- ``domain.rooted.<n>-<k>``: one build of the rooted-constellation domain
  (``constellations._rooted_constellations``) at (5, 2), (4, 3) and
  (3, 4), with every memo of the library cleared before each repeat,
  outside the timer.  ``domain.arborescences.<n>-<k>``: every
  arborescence that ``arborescences_toward`` yields, per pair (c, v0) of
  the domain at (3, 3) and (4, 3).  ``pointing-check.4-3``: that command
  through ``cli.main``, with its JSON report sent to the null device and
  every memo cleared before each repeat, so that it builds the domain and
  the pointing census.
- ``census.<count>.<size>``: the sums that the counting sweeps make over the
  memoized cycle-type census.  ``count_colored.jackson-grid`` calls
  ``count_colored`` on every (n, p) of the ``jackson-check`` grid of the
  ``identity-sweep`` workload (k = 2, 3, 4 up to n = 6, 4, 3);
  ``symmetry-check.<n>-<k>`` runs that command through ``cli.main`` at
  (5, 2), (3, 3) and (3, 4), with its JSON report sent to the null device;
  ``count_by_color_compositions.4-3`` counts the one tuple ``MV_GAMMAS``.
  Before each repeat, outside the timer, every memo of the library is
  cleared and the censuses that the layer reads are walked again, so a
  repeat times the sums and the memos they fill, not the census walk.
- ``puzzle.<function>.<grid>`` and ``counting.m_coefficient.grid``: the
  exact puzzle side of the ``puzzle-exact`` workload.
  ``tree_probability.exact-grid`` runs on its grid types (every feasible
  type at k = 2, 3, 4 up to n = 6, 4, 3, and 4 seeded n = 5, k = 4 types
  with 100 <= M^5_p <= 160); ``k3-inclusion-exclusion.grid`` on every
  feasible k = 3 type at n <= 4 and ``exchange-lemma.grid`` on each of those
  with all six labellings; ``m_coefficient.grid`` on every p in
  [0..n]^k of the same (k, n) grid, from n = 0.  Every memo of the library is
  cleared before each repeat, outside the timer.
- ``sample_puzzle.<cold|warm>.<n>-<p>``: one ``sample_puzzle`` call on each
  type of the ``puzzle-sample`` workload, first with every memo of the
  library cleared (as a ``puzzle --sample`` process starts), then again.
  ``sample_puzzle.accept.<trials>``: the sampler's count of accepted trials
  (``puzzle._count_below``) alone, at 10^6 trials of the type n = 60,
  p = (26, 26, 26) that ``scripts/puzzle_scan.py`` samples.

Each layer runs ``REPEATS`` times.  Every repeat is bracketed by the
reference chunks of ``perfbench/speed.py``, imported read-only, and scaled by
``speed.factor`` of those chunks, so a drift of machine speed cancels.  A
layer reports the median and quartiles over its repeats of the normalised
microseconds per object (per call for the census, the puzzle and the sampler).
``--quick`` keeps the schema and shrinks the work: 10 random objects, 2
repeats, one sampled type.

``--compare A B`` prints, per layer in both files, the median of A, that of
B and their ratio B / A; with ``--out`` it also writes both runs and the
ratios to one file.  Keys are sorted, so two files diff cleanly.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import oracle  # noqa: E402
import speed  # noqa: E402

from constellation_lab import (  # noqa: E402
    biddings,
    cli,
    constellations,
    counting,
    nebulas,
    puzzle,
    tree_rooted,
)
from constellation_lab.counting import ColoredFactorization  # noqa: E402
from constellation_lab.permutations import Composition, Permutation  # noqa: E402

SCHEMA = "constellation-lab-bench/1"
SEED = 27
REPEATS = 7
QUICK_REPEATS = 2
RANDOM_OBJECTS = 100
QUICK_RANDOM_OBJECTS = 10
# (n, k, p, trials) of the puzzle-sample workload
SAMPLE_TYPES = ((6, 3, (2, 3, 4), 5000), (8, 3, (4, 5, 4), 5000), (6, 4, (4, 4, 4, 4), 30000))
QUICK_SAMPLE_TYPES = SAMPLE_TYPES[:1]
# (n, k, p, trials) of the accepted-trial count timed alone
ACCEPT_COUNT = (60, 3, (26, 26, 26), 10**6)
# (k, largest n) of the jackson-check grid of the identity-sweep workload and
# of the exact tree-puzzle grid of the puzzle-exact workload
GRID = ((2, 6), (3, 4), (4, 3))
# puzzle-exact also draws 4 types at n = 5, k = 4 with 100 <= M^5_p <= 160
BAND = (5, 4, 100, 160, 4)
# the largest symmetry-check sizes of the identity-sweep workload, as (n, k)
SYMMETRY_SIZES = ((5, 2), (3, 3), (3, 4))
# one mv-check tuple at n = 4, k = 3
MV_GAMMAS = ((1, 2, 1), (3, 1), (2, 2))
# (n, k) of the rooted-domain builds and of the arborescence walks
ROOTED_SIZES = ((5, 2), (4, 3), (3, 4))
ARBORESCENCE_SIZES = ((3, 3), (4, 3))


def _grid(row: str, n_max: int):
    for k in (2, 3):
        for n in range(1, n_max + 1):
            if row in ("theta", "sigma", "psi") and n + k > 5:
                continue
            yield n, k


def exhaustive_domain(row: str, n_max: int) -> list:
    domain = cli.ROUNDTRIPS[row][0]
    return [x for n, k in _grid(row, n_max) for x in domain(n, k, None, counting.DEFAULT_CAP)]


def _colored_factorization(rng: random.Random, n: int) -> ColoredFactorization:
    perms, colorings = oracle.random_colored_factorization(rng, n, 3)
    return ColoredFactorization(perms=tuple(map(Permutation, perms)), colorings=colorings)


def _bidding(rng: random.Random, n: int) -> biddings.Bidding:
    omegas, subsets = oracle.random_valid_bidding(rng, n, 3)
    return biddings.Bidding(omegas=tuple(map(Permutation, omegas)), subsets=subsets)


def _swap_move(rng: random.Random, n: int):
    """A tree-rooted image of phi with one move (t, i, j) of the swap domain."""
    while True:
        obj = tree_rooted.phi(_colored_factorization(rng, n))
        c = obj.constellation
        moves = [
            (t, c.labels[v - 1], j)
            for v, t in enumerate(c.vertex_type, start=1)
            if c.hyperdegree(v) >= 2
            for j in range(1, len(c.vertices_of_type(t)) + 1)
            if j != c.labels[v - 1]
        ]
        if moves:
            return (obj, *rng.choice(moves))


def random_domain(row: str, count: int) -> list:
    """``count`` seeded objects of the row's forward map, at n = 6, 7, 8, k = 3."""
    rng = random.Random(f"{SEED}/{row}")
    sizes = [6 + i % 3 for i in range(count)]
    if row == "phi":
        return [_colored_factorization(rng, n) for n in sizes]
    if row == "swap":
        return [_swap_move(rng, n) for n in sizes]
    if row == "psi":
        return [_bidding(rng, n) for n in sizes]
    prebiddings = [biddings.sigma_inverse(_bidding(rng, n)) for n in sizes]
    if row == "lambda":
        return [nebulas.dual_closure(biddings.vartheta_inverse(pb).nebula) for pb in prebiddings]
    return prebiddings  # theta and sigma start from a prebidding


def time_per_object(fn, objects: list, repeats: int, setup=None) -> dict:
    """Median and quartiles of the normalised microseconds per object of
    ``fn`` over ``objects``, one sample per repeat; ``setup``, when given,
    runs before each repeat, outside the timer."""
    samples = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        refs = [speed.reference_chunk() for _ in range(3)]
        start = time.perf_counter()
        for x in objects:
            fn(x)
        elapsed = time.perf_counter() - start
        refs += [speed.reference_chunk() for _ in range(3)]
        samples.append(elapsed * speed.factor(refs) / len(objects) * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "objects": len(objects),
        "repeats": repeats,
        "unit": "us/object",
    }


def clear_memos() -> None:
    """Empty every memo of the library, as in a fresh process."""
    for module in (counting, constellations, tree_rooted, nebulas, biddings, puzzle):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _fresh(x):
    """x, or, for a nebula, a copy of it whose map holds none of the views
    that a guard leaves on a map."""
    if isinstance(x, nebulas.Nebula):
        return nebulas.Nebula(hmap=dataclasses.replace(x.hmap))
    if isinstance(x, biddings.LabelledNebula):
        return dataclasses.replace(x, nebula=_fresh(x.nebula))
    return x


def time_on_fresh_copies(fn, objects: list, repeats: int) -> dict:
    """:func:`time_per_object` on copies of ``objects`` made before each
    repeat, outside the timer, so no repeat reads what an earlier one left
    on a map."""
    timed = list(objects)

    def setup():
        timed[:] = [_fresh(x) for x in objects]

    return time_per_object(fn, timed, repeats, setup)


def guard_layers(n_max: int, repeats: int) -> dict:
    """``guard.<class>.exhaustive``: one public guard on its row's exhaustive
    domain."""
    colored = exhaustive_domain("phi", n_max)
    pointed = exhaustive_domain("lambda", n_max)
    prebiddings = exhaustive_domain("theta", n_max)
    domains = {
        "ColoredFactorization": colored,
        "TreeRootedConstellation": [tree_rooted.phi(cf) for cf in colored],
        "TreePointedConstellation": pointed,
        "Nebula": [nebulas.dual_opening(tp) for tp in pointed],
        "LabelledNebula": [biddings.vartheta_inverse(pb) for pb in prebiddings],
        "Prebidding": prebiddings,
        "Bidding": exhaustive_domain("psi", n_max),
    }
    layers = {}
    for name, objects in domains.items():
        if any(x.validate() is not None for x in objects):
            raise AssertionError(f"a {name} of the exhaustive domain fails its guard")
        layers[f"guard.{name}.exhaustive"] = time_on_fresh_copies(
            lambda x: x.validate(), objects, repeats)
    return layers


def _json_command(*argv: str):
    """A layer call running one CLI command, its JSON report sent to the
    null device, that fails unless the command exits 0."""
    full = ["--format", "json", "--out", os.devnull, *argv]

    def call(_):
        if cli.main(full) != 0:
            raise AssertionError(f"{' '.join(argv)} fails")
    return call


def domain_layers(repeats: int) -> dict:
    """The rooted domain built from empty memos, the arborescence walk over
    it, and one pointing-check that builds both."""
    layers = {}
    for n, k in ROOTED_SIZES:
        layers[f"domain.rooted.{n}-{k}"] = time_per_object(
            lambda x: constellations._rooted_constellations(*x), [(n, k)], repeats, clear_memos)
    for n, k in ARBORESCENCE_SIZES:
        pairs = [(c, v0) for c in constellations._rooted_constellations(n, k)
                 for v0 in range(1, c.num_vertices + 1)]
        layers[f"domain.arborescences.{n}-{k}"] = time_per_object(
            lambda x: sum(1 for _ in constellations.arborescences_toward(*x)), pairs, repeats)
    layers["pointing-check.4-3"] = time_per_object(
        _json_command("pointing-check", "--n", "4", "--k", "3"), [None], repeats, clear_memos)
    for layer in layers.values():
        layer["unit"] = "us/call"
    return layers


def census_layers(repeats: int) -> dict:
    grid = [(n, p) for k, n_max in GRID for n in range(1, n_max + 1)
            for p in itertools.product(range(1, n + 1), repeat=k)]
    gammas = [Composition(g) for g in MV_GAMMAS]

    def fresh(sizes):
        def setup():
            clear_memos()
            for n, k in sizes:
                counting.cycle_type_census(n, k)
        return setup

    layers = {
        "census.count_colored.jackson-grid": time_per_object(
            lambda x: counting.count_colored(*x), grid, repeats,
            fresh({(n, len(p)) for n, p in grid})),
    }
    for n, k in SYMMETRY_SIZES:
        layers[f"census.symmetry-check.{n}-{k}"] = time_per_object(
            _json_command("symmetry-check", "--n", str(n), "--k", str(k)), [None], repeats,
            fresh([(n, k)]))
    layers["census.count_by_color_compositions.4-3"] = time_per_object(
        counting.count_by_color_compositions, [gammas], repeats, fresh([(4, 3)]))
    for layer in layers.values():
        layer["unit"] = "us/call"
    return layers


def feasible_types(n: int, k: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(n + 1), repeat=k) if counting.m_coefficient(n, p)]


def puzzle_layers(repeats: int) -> dict:
    """The exact puzzle side of the puzzle-exact workload, each repeat with
    every memo cleared outside the timer, as a fresh process starts."""
    n, k, low, high, count = BAND
    band = [p for p in feasible_types(n, k) if low <= counting.m_coefficient(n, p) <= high]
    exact = [(n, k, p) for k, n_max in GRID for n in range(1, n_max + 1)
             for p in feasible_types(n, k)]
    exact += [(n, k, p) for p in random.Random(SEED).sample(band, count)]
    k3 = [(n, p) for n in range(1, 5) for p in feasible_types(n, 3)]
    labelled = [(n, p, *abc) for n, p in k3 for abc in itertools.permutations((1, 2, 3))]
    m_grid = [(n, p) for k, n_max in GRID for n in range(n_max + 1)
              for p in itertools.product(range(n + 1), repeat=k)]
    for args in k3:
        if not puzzle.verify_k3_inclusion_exclusion(*args).equal:
            raise AssertionError(f"k3 inclusion-exclusion fails at {args}")
    for args in labelled:
        if not puzzle.verify_exchange_lemma(*args).equal:
            raise AssertionError(f"exchange lemma fails at {args}")
    layers = {
        "puzzle.tree_probability.exact-grid": time_per_object(
            lambda x: puzzle.tree_probability(*x), exact, repeats, clear_memos),
        "puzzle.k3-inclusion-exclusion.grid": time_per_object(
            lambda x: puzzle.verify_k3_inclusion_exclusion(*x), k3, repeats, clear_memos),
        "puzzle.exchange-lemma.grid": time_per_object(
            lambda x: puzzle.verify_exchange_lemma(*x), labelled, repeats, clear_memos),
        "counting.m_coefficient.grid": time_per_object(
            lambda x: counting.m_coefficient(*x), m_grid, repeats, clear_memos),
    }
    for layer in layers.values():
        layer["unit"] = "us/call"
    return layers


def sample_layers(types, repeats: int) -> dict:
    layers = {}
    for n, k, p, trials in types:
        key = f"{n}-{','.join(map(str, p))}"

        def call(_):
            return puzzle.sample_puzzle(n, k, p, trials, 0)

        def cold(_):
            clear_memos()
            return call(None)

        layers[f"sample_puzzle.cold.{key}"] = time_per_object(cold, [None], repeats)
        call(None)
        layers[f"sample_puzzle.warm.{key}"] = time_per_object(call, [None], repeats)
    n, k, p, trials = ACCEPT_COUNT
    num, den = counting.m_coefficient(n, p), (2**k - 1) ** n
    layers[f"sample_puzzle.accept.{trials}"] = time_per_object(
        lambda _: puzzle._count_below(random.Random(SEED), trials, num, den), [None], repeats
    )
    for layer in layers.values():
        layer["unit"] = "us/call"
    return layers


def run(quick: bool) -> dict:
    repeats = QUICK_REPEATS if quick else REPEATS
    n_max = 3
    count = QUICK_RANDOM_OBJECTS if quick else RANDOM_OBJECTS
    layers = {}
    for row, (_, forward, inverse, _) in cli.ROUNDTRIPS.items():
        for name, objects in (
            ("exhaustive", exhaustive_domain(row, n_max)),
            ("random", random_domain(row, count)),
        ):
            images = [forward(x) for x in objects]
            if [inverse(y) for y in images] != objects:
                raise AssertionError(f"{row} does not roundtrip on its {name} domain")
            layers[f"{row}.forward.{name}"] = time_on_fresh_copies(forward, objects, repeats)
            layers[f"{row}.inverse.{name}"] = time_on_fresh_copies(inverse, images, repeats)
    layers.update(guard_layers(n_max, repeats))
    layers.update(domain_layers(repeats))
    layers.update(census_layers(repeats))
    layers.update(puzzle_layers(repeats))
    layers.update(sample_layers(QUICK_SAMPLE_TYPES if quick else SAMPLE_TYPES, repeats))
    return {
        "schema": SCHEMA,
        "commit": _commit(),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "quick": quick,
        "seed": SEED,
        "layers": layers,
    }


def _commit():
    """The commit of the checkout that the library was imported from, marked
    ``-dirty`` when its tree has changes, or None outside a git checkout."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    try:
        done = subprocess.run(
            ["git", "-C", src, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def compare(a: dict, b: dict) -> dict:
    """Ratio of medians B / A per layer present in both runs."""
    return {
        name: b["layers"][name]["median"] / a["layers"][name]["median"]
        for name in sorted(a["layers"])
        if name in b["layers"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the run (or the comparison) here as JSON")
    parser.add_argument("--quick", action="store_true", help="smaller domains, fewer repeats")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two runs")
    args = parser.parse_args(argv)
    if args.compare:
        if args.quick:
            parser.error("--compare takes no --quick")
        runs = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                runs.append(json.load(handle))
        a, b = runs
        ratios = compare(a, b)
        for name, r in ratios.items():
            print(f"{name:40s} {a['layers'][name]['median']:12.2f} "
                  f"{b['layers'][name]['median']:12.2f} {r:7.3f}")
        result = {"a": a, "b": b, "ratios": ratios}
    else:
        if args.out is None:
            parser.error("a run needs --out")
        result = run(args.quick)
        print(f"{len(result['layers'])} layers")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
