"""The four workloads: seeded case lists with independently computed expectations.

A case is one CLI call (through ``constellation_lab.cli.main``) or, where no
subcommand exists, one call of a public library function.  ``build(name,
seed)`` makes the whole list from the seed, before any timing starts.  Every
case carries a check that compares the output with values from
:mod:`oracle` and returns the number of useful items the case delivered.
Only flags the project keeps are passed: never ``--exact``, ``--threads`` or
``--emit``.

The grids are fixed and the seed picks parameters of equal cost (x points,
gamma tuples, types inside a cost band, labellings, object draws) and the case
order, so a pass costs about the same for every seed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle
from constellation_lab import biddings, cli, puzzle, tree_rooted
from constellation_lab.counting import ColoredFactorization
from constellation_lab.permutations import Permutation


class CheckFailed(Exception):
    """A case ran but its output is wrong or incomplete."""


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], int]


# (k, largest n) of the acceptance grids for the counting identities and the
# tree puzzle, and the largest n per k at which symmetry-check stays well
# under a second.
GRID = ((2, 6), (3, 4), (4, 3))
SYMMETRY_MAX_N = {2: 5, 3: 3, 4: 3}


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# CLI cases and their checks
# ---------------------------------------------------------------------------


def cli_case(argv: list[str], check: Callable[[dict], int]) -> Case:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv) + ["--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check_outcome(outcome) -> int:
        code, out, err = outcome
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()[-200:]}")
        payload = json.loads(out)
        if payload.get("ok") is not True:
            raise CheckFailed("report says ok: false")
        return check(payload["results"])

    return Case(" ".join(argv), run, check_outcome)


def _single(results: list) -> dict:
    if len(results) != 1:
        raise CheckFailed(f"expected one result, got {len(results)}")
    return results[0]


def expect_sides(expected: str) -> Callable[[list], int]:
    """One identity whose two printed sides both equal ``expected``."""

    def check(results: list) -> int:
        r = _single(results)
        if r["lhs"] != expected or r["rhs"] != expected or r["equal"] is not True:
            raise CheckFailed(f"lhs={r['lhs']} rhs={r['rhs']}, expected {expected}")
        return 1

    return check


def expect_value(expected: int) -> Callable[[list], int]:
    def check(results: list) -> int:
        value = _single(results)["value"]
        if value != str(expected):
            raise CheckFailed(f"value {value}, expected {expected}")
        return 1

    return check


def expect_roundtrips(expected: int) -> Callable[[list], int]:
    """An exhaustive roundtrip over a domain of known size, with no failures."""

    def check(results: list) -> int:
        r = _single(results)
        if r["checked"] != expected or r["failures"] != 0:
            raise CheckFailed(
                f"checked {r['checked']} with {r['failures']} failures, expected {expected}"
            )
        return expected

    return check


def expect_profiles(profiles: dict[tuple[int, ...], tuple[int, int]]) -> Callable[[list], int]:
    def check(results: list) -> int:
        got = {tuple(r["profile"]): r for r in results}
        if set(got) != set(profiles):
            raise CheckFailed(f"{len(got)} profiles, expected {len(profiles)}")
        for profile, (classes, count) in profiles.items():
            r = got[profile]
            if r["classes"] != classes or r["counts"] != [str(count)] or r["equal"] is not True:
                raise CheckFailed(f"profile {profile}: {r}, expected {classes} x {count}")
        return len(profiles)

    return check


def expect_puzzle(probability: str) -> Callable[[list], int]:
    def check(results: list) -> int:
        r = _single(results)
        if r["tree_probability"] != probability or r["r1_probability"] != probability:
            raise CheckFailed(
                f"tree={r['tree_probability']} r1={r['r1_probability']}, expected {probability}"
            )
        return 1

    return check


def _hits(estimate: str, accepted: int) -> int:
    """Recover the hit count from a reduced estimate hits/accepted."""
    num, den = (int(x) for x in estimate.split("/"))
    if accepted == 0:
        return num
    if accepted % den:
        raise CheckFailed(f"estimate {estimate} is not a ratio over {accepted}")
    return num * (accepted // den)


def expect_samples(n: int, k: int, p: tuple[int, ...], trials: int) -> Callable[[list], int]:
    """Acceptances and both hit counts within five standard deviations of the
    exact probabilities, decided in integers."""
    accept_num, accept_den = oracle.m_coeff(n, p), (2**k - 1) ** n
    hit_num, hit_den = oracle.tree_probability(n, p)

    def check(results: list) -> int:
        r = _single(results)
        accepted = r["accepted"]
        if r["trials"] != trials:
            raise CheckFailed(f"ran {r['trials']} trials, asked for {trials}")
        if not oracle.within_five_sigma(accepted, trials, accept_num, accept_den):
            raise CheckFailed(f"{accepted} of {trials} accepted, expected rate {accept_num}/{accept_den}")
        for key in ("tree_estimate", "r1_estimate"):
            hits = _hits(r[key], accepted)
            if not oracle.within_five_sigma(hits, accepted, hit_num, hit_den):
                raise CheckFailed(f"{key} {hits}/{accepted} far from {hit_num}/{hit_den}")
        return accepted

    return check


# ---------------------------------------------------------------------------
# Library cases (no subcommand exists)
# ---------------------------------------------------------------------------


def _check_report(expected: str, extra: dict | None = None) -> Callable[[Any], int]:
    def check(report) -> int:
        if report.lhs != expected or report.rhs != expected or report.equal is not True:
            raise CheckFailed(f"lhs={report.lhs} rhs={report.rhs}, expected {expected}")
        params = dict(report.params)
        for key, value in (extra or {}).items():
            if params.get(key) != value:
                raise CheckFailed(f"{key}={params.get(key)}, expected {value}")
        return 1

    return check


def inclusion_exclusion_case(n: int, p: tuple[int, ...]) -> Case:
    expected = oracle.fraction_text(*oracle.tree_probability(n, p))
    return Case(
        f"verify_k3_inclusion_exclusion n={n} p={p}",
        lambda: puzzle.verify_k3_inclusion_exclusion(n, p),
        _check_report(expected),
    )


def exchange_case(n: int, p: tuple[int, ...], abc: tuple[int, int, int]) -> Case:
    expected, e1, e2 = oracle.exchange_counts(n, p, *abc)
    return Case(
        f"verify_exchange_lemma n={n} p={p} abc={abc}",
        lambda: puzzle.verify_exchange_lemma(n, p, *abc),
        _check_report(expected, {"E1": e1, "E2": e2}),
    )


def phi_object_case(perms, colorings) -> Case:
    cf = ColoredFactorization(
        perms=tuple(Permutation(q) for q in perms), colorings=colorings
    )

    def run():
        return tree_rooted.phi_inverse(tree_rooted.phi(cf))

    def check(back) -> int:
        if tuple(q.image for q in back.perms) != perms or tuple(back.colorings) != colorings:
            raise CheckFailed("phi_inverse(phi(cf)) differs from cf")
        return 1

    return Case(f"phi roundtrip n={len(perms[0])} k={len(perms)}", run, check)


def psi_object_case(omegas, subsets) -> Case:
    b = biddings.Bidding(omegas=tuple(Permutation(w) for w in omegas), subsets=subsets)

    def run():
        return biddings.psi(biddings.psi_inverse(b))

    def check(back) -> int:
        if tuple(w.image for w in back.omegas) != omegas or tuple(back.subsets) != subsets:
            raise CheckFailed("psi(psi_inverse(b)) differs from b")
        return 1

    return Case(f"psi roundtrip n={len(subsets)} k={len(omegas)}", run, check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _random_composition(rng: random.Random, n: int) -> list[int]:
    cuts = sorted(c for c in range(1, n) if rng.random() < 0.5)
    bounds = [0] + cuts + [n]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def identity_sweep(rng: random.Random) -> list[Case]:
    cases = []
    for k, nmax in GRID:
        for n in range(1, nmax + 1):
            for p in itertools.product(range(1, n + 1), repeat=k):
                argv = ["jackson-check", "--n", str(n), "--k", str(k), "--p", _ints(p)]
                cases.append(cli_case(argv, expect_sides(str(oracle.colored_count(n, p)))))
            for _ in range(3):
                xs = [rng.randint(0, 4) for _ in range(k)]
                argv = ["gf-check", "--n", str(n), "--k", str(k), "--x", _ints(xs)]
                cases.append(cli_case(argv, expect_sides(str(oracle.gf_value(n, xs)))))
            for _ in range(3):
                gammas = [_random_composition(rng, n) for _ in range(k)]
                argv = ["mv-check", "--n", str(n), "--k", str(k)]
                for g in gammas:
                    argv += ["--gamma", _ints(g)]
                expected = oracle.refined_count(n, [len(g) for g in gammas])
                cases.append(cli_case(argv, expect_sides(str(expected))))
            if n <= SYMMETRY_MAX_N[k]:
                argv = ["symmetry-check", "--n", str(n), "--k", str(k)]
                cases.append(cli_case(argv, expect_profiles(oracle.symmetry_profiles(n, k))))
    for n in range(1, 6):
        for k in (2, 3):
            for _ in range(2):
                p = [rng.randint(0, n) for _ in range(k)]
                argv = ["count", "--m", "--n", str(n), "--k", str(k), "--p", _ints(p)]
                cases.append(cli_case(argv, expect_value(oracle.m_coeff(n, p))))
    for n, p in ((4, (2, 2, 2, 2)), (5, (3, 3, 3, 3))):
        argv = ["count", "--m", "--n", str(n), "--k", "4", "--p", _ints(p)]
        cases.append(cli_case(argv, expect_value(oracle.m_coeff(n, p))))
    return cases


def bijection_roundtrip(rng: random.Random) -> list[Case]:
    cases = []
    for k in (2, 3):
        for n in range(1, 4):
            for p in itertools.product(range(1, n + 1), repeat=k):
                for bijection, size in (
                    ("phi", oracle.colored_count(n, p)),
                    ("swap", oracle.swap_domain(n, p)),
                ):
                    argv = ["roundtrip", "--bijection", bijection, "--n", str(n), "--k", str(k),
                            "--p", _ints(p)]
                    cases.append(cli_case(argv, expect_roundtrips(size)))
            argv = ["roundtrip", "--bijection", "lambda", "--n", str(n), "--k", str(k)]
            cases.append(cli_case(argv, expect_roundtrips(oracle.tree_pointed_domain(n, k))))
            if n + k <= 5:
                for bijection in ("theta", "sigma", "psi"):
                    argv = ["roundtrip", "--bijection", bijection, "--n", str(n), "--k", str(k)]
                    cases.append(cli_case(argv, expect_roundtrips(oracle.bidding_domain(n, k))))
            types = list(itertools.product(range(0, n + 1), repeat=k))
            if (n, k) == (3, 3):
                types = rng.sample(types, 8)
            for p in types:
                argv = ["pointing-check", "--n", str(n), "--k", str(k), "--p", _ints(p)]
                cases.append(cli_case(argv, expect_sides(str(oracle.pointing_count(n, p)))))
    for n in (6, 7, 8):
        for _ in range(100):
            cases.append(phi_object_case(*oracle.random_colored_factorization(rng, n, 3)))
            cases.append(psi_object_case(*oracle.random_valid_bidding(rng, n, 3)))
    return cases


def feasible_types(n: int, k: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(0, n + 1), repeat=k) if oracle.m_coeff(n, p)]


def puzzle_exact(rng: random.Random) -> list[Case]:
    cases = []
    grid = [(n, k, p) for k, nmax in GRID for n in range(1, nmax + 1) for p in feasible_types(n, k)]
    # n=5, k=4 types whose brute force visits 100-160 subset tuples each
    band = [p for p in feasible_types(5, 4) if 100 <= oracle.m_coeff(5, p) <= 160]
    grid += [(5, 4, p) for p in rng.sample(band, 4)]
    for n, k, p in grid:
        argv = ["puzzle", "--n", str(n), "--k", str(k), "--p", _ints(p)]
        expected = oracle.fraction_text(*oracle.tree_probability(n, p))
        cases.append(cli_case(argv, expect_puzzle(expected)))
    for n in range(1, 5):
        types = feasible_types(n, 3)
        if n == 4:
            types = rng.sample(types, 40)
        for p in types:
            cases.append(inclusion_exclusion_case(n, p))
            cases.append(exchange_case(n, p, tuple(rng.sample((1, 2, 3), 3))))
    return cases


# (n, k, p, trials per case, cases): types with moderate and with skewed
# acceptance; trials keep at least ~20 acceptances expected per case.  The
# slow skewed cases are a fifth of the list, so the 90th latency percentile
# falls in the middle of their group rather than at its edge.
SAMPLE_TYPES = (
    (6, 3, (2, 3, 4), 5000, 40),
    (8, 3, (4, 5, 4), 5000, 40),
    (6, 4, (4, 4, 4, 4), 30000, 20),
)


def puzzle_sample(rng: random.Random) -> list[Case]:
    cases = []
    for n, k, p, trials, count in SAMPLE_TYPES:
        for _ in range(count):
            argv = [
                "puzzle", "--n", str(n), "--k", str(k), "--p", _ints(p),
                "--sample", str(trials), "--seed", str(rng.getrandbits(32)),
            ]
            cases.append(cli_case(argv, expect_samples(n, k, p, trials)))
    return cases


CASE_LISTS = {
    "identity-sweep": identity_sweep,
    "bijection-roundtrip": bijection_roundtrip,
    "puzzle-exact": puzzle_exact,
    "puzzle-sample": puzzle_sample,
}


def build(name: str, seed: int) -> list[Case]:
    rng = random.Random(f"{name}/{seed}")
    cases = CASE_LISTS[name](rng)
    rng.shuffle(cases)
    return cases
