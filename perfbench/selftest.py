"""Self-test of the benchmark's checker: wrong outputs must count as failures.

Usage: python3 perfbench/selftest.py   (exits 0 when every check behaves)

Feeds the checks deliberately wrong outputs (a wrong value, a short roundtrip
count, a sampler far from the exact probability, a nonzero exit) and a case
that raises, and confirms that each is recorded as a failed case while the
cases after it still run.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import run_case  # noqa: E402
from workloads import Case  # noqa: E402


def canned(payload: dict, code: int = 0) -> tuple:
    return code, json.dumps(payload), "" if code == 0 else "error: canned failure"


def cli_with_output(argv: list[str], check, outcome) -> Case:
    """A CLI case whose library call is replaced by a canned outcome."""
    case = workloads.cli_case(argv, check)
    return Case(case.label, lambda: outcome, case.check)


def report(results: list, ok: bool = True) -> dict:
    return {"ok": ok, "results": results}


def main() -> int:
    problems = []

    def expect(case: Case, should_fail: bool, items: int | None = None) -> list:
        seconds, _, got_items, failure = run_case(case)
        if (failure is not None) != should_fail:
            problems.append(f"{case.label}: expected {'failure' if should_fail else 'success'}, got {failure!r}")
        elif items is not None and got_items != items:
            problems.append(f"{case.label}: {got_items} items, expected {items}")
        return [seconds, got_items, failure]

    jackson = oracle.colored_count(3, (2, 2))
    sides = workloads.expect_sides(str(jackson))
    # the real library, right and wrong expectations
    expect(workloads.cli_case(["jackson-check", "--n", "3", "--k", "2", "--p", "2,2"], sides), False, 1)
    expect(workloads.cli_case(
        ["jackson-check", "--n", "3", "--k", "2", "--p", "2,2"],
        workloads.expect_sides(str(jackson + 1)),
    ), True)
    # a wrong value, an ok: false report, a nonzero exit
    good = {"lhs": str(jackson), "rhs": str(jackson), "equal": True}
    wrong = dict(good, rhs=str(jackson + 1))
    expect(cli_with_output(["wrong-value"], sides, canned(report([wrong]))), True)
    expect(cli_with_output(["not-ok"], sides, canned(report([good], ok=False))), True)
    expect(cli_with_output(["exit-1"], sides, canned(report([good]), code=1)), True)
    expect(cli_with_output(["right-value"], sides, canned(report([good]))), False, 1)
    # a roundtrip that checked fewer objects than the domain holds
    size = oracle.colored_count(3, (2, 2))
    roundtrips = workloads.expect_roundtrips(size)
    short = {"bijection": "phi", "checked": size - 1, "failures": 0}
    expect(cli_with_output(["short-roundtrip"], roundtrips, canned(report([short]))), True)
    expect(cli_with_output(["full-roundtrip"], roundtrips, canned(report([dict(short, checked=size)]))), False, size)
    # a sampler whose hits sit far from the exact probability
    n, k, p, trials = 6, 3, (2, 3, 4), 5000
    samples = workloads.expect_samples(n, k, p, trials)
    accepted = trials * oracle.m_coeff(n, p) // (2**k - 1) ** n
    hits, total = oracle.tree_probability(n, p)
    near = accepted * hits // total
    sample = {"trials": trials, "accepted": accepted,
              "tree_estimate": oracle.fraction_text(near, accepted),
              "r1_estimate": oracle.fraction_text(near, accepted)}
    expect(cli_with_output(["sample-near"], samples, canned(report([sample]))), False, accepted)
    far = dict(sample, tree_estimate=oracle.fraction_text(accepted // 10, accepted))
    expect(cli_with_output(["sample-far"], samples, canned(report([far]))), True)
    # a case that raises (rejection sampling gives up on a type this rare),
    # then a case after it that must still run
    rare = workloads.cli_case(
        ["puzzle", "--n", "12", "--k", "4", "--p", "9,9,9,9", "--sample", "2000", "--seed", "1"],
        workloads.expect_samples(12, 4, (9, 9, 9, 9), 2000),
    )
    _, _, failure = expect(rare, True)
    if failure is not None and "SamplingError" not in failure:
        problems.append(f"rare type failed for another reason: {failure}")
    expect(workloads.cli_case(["jackson-check", "--n", "3", "--k", "2", "--p", "2,2"], sides), False, 1)

    # the tracer's hooks bind keyword arguments as well as positional ones
    from constellation_lab import constellations
    from tracer import Tracer

    tracer = Tracer()
    traced = tracer.wrap("constellations.transitive_tuples", constellations.transitive_tuples)
    list(traced(n=2, k=2))
    list(traced(3, k=1))
    tried = tracer.counters["constellations.transitive_tuples.tried"]
    if tried != 2**2 + 6:
        problems.append(f"transitive_tuples hook counted {tried} tuples tried, expected 10")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
