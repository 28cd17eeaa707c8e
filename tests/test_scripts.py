"""The scripts under ``scripts/`` run against the current CLI and library."""
import importlib
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import constellation_lab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*argv, **environ):
    env = {**os.environ, **environ}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["run_all_checks.py"], "ALL CHECKS PASSED"),
        (
            ["puzzle_scan.py", "--k", "3", "--n-max", "3", "--sample", "5", "2,3,4", "--trials", "20000"],
            "no mismatches",
        ),
        # k=4 at n=4, one size past the acceptance grid
        (["puzzle_scan.py", "--k", "4", "--n-max", "4"], "no mismatches"),
        # exact past the tuple walk's reach: tree_probability visits each
        # subset multiset once, weighted by its arrangements
        (["puzzle_scan.py", "--k", "3", "--n-max", "8"], "no mismatches"),
        (["puzzle_scan.py", "--k", "4", "--n-max", "5"], "no mismatches"),
        # a 79-bit (2^4-1)^20 and about 157 expected acceptances; no
        # enumeration runs at the sampled size
        (
            ["puzzle_scan.py", "--k", "4", "--n-max", "2", "--sample", "20", "10,10,10,10", "--trials", "200000"],
            "no mismatches",
        ),
        # n=60: about 430 acceptances, each drawing at most 3 of the 60 entries
        (
            ["puzzle_scan.py", "--k", "3", "--n-max", "2", "--sample", "60", "26,26,26", "--trials", "400000"],
            "no mismatches",
        ),
    ],
)
def test_script_exits_zero(argv, last_line):
    done = run_script(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == last_line


def test_cli_digest_prints_one_line_per_argv_and_format(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    import cli_digest

    # a wide terminal must not rewrap argparse's usage text
    done = run_script("cli_digest.py", COLUMNS="2000")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    argvs = [*cli_digest.SWEEPS, *cli_digest.EXTRA]
    assert len(lines) == len(argvs) * len(cli_digest.FORMATS)
    for line, (argv, fmt) in zip(lines, itertools.product(argvs, cli_digest.FORMATS)):
        assert line.startswith(f"{fmt} exit=") and line.endswith("  " + " ".join(argv)), line
    # a change of behaviour regenerates this file in the same commit:
    #   PYTHONPATH=src python3 scripts/cli_digest.py > tests/data/cli_digest.txt
    with open(os.path.join(ROOT, "tests", "data", "cli_digest.txt"), encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    assert lines == expected


def test_cli_digest_lines_do_not_depend_on_the_order_of_runs(monkeypatch, tmp_path):
    # every memo of the library starts empty and is filled in a shuffled
    # order of the digest runs, in this one process; each line must still be
    # the committed one, so no answer depends on what ran before it
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    monkeypatch.setenv("COLUMNS", "80")
    import cli_digest

    with open(os.path.join(ROOT, "tests", "data", "cli_digest.txt"), encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    runs = list(itertools.product([*cli_digest.SWEEPS, *cli_digest.EXTRA], cli_digest.FORMATS))
    assert len(runs) == len(expected)
    order = list(range(len(runs)))
    random.Random(32).shuffle(order)
    for info in pkgutil.iter_modules(constellation_lab.__path__):
        module = importlib.import_module(f"constellation_lab.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    cli_digest.write_inputs(str(tmp_path))
    for i in order:
        argv, fmt = runs[i]
        assert cli_digest.digest(argv, fmt, str(tmp_path)) == expected[i]


def test_bench_quick_run_and_compare_keep_their_schema(tmp_path):
    out = tmp_path / "bench.json"
    done = run_script("bench.py", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stderr
    run = json.loads(out.read_text())
    assert set(run) == {"commit", "host", "layers", "quick", "schema", "seed"}
    assert run["schema"] == "constellation-lab-bench/1" and run["quick"] is True
    assert set(run["host"]) == {"cpus", "machine", "python"}
    rows = ("phi", "swap", "lambda", "theta", "sigma", "psi")
    expected = {f"{row}.{way}.{domain}" for row in rows for way in ("forward", "inverse")
                for domain in ("exhaustive", "random")}
    expected |= {f"sample_puzzle.{when}.6-2,3,4" for when in ("cold", "warm")}
    expected |= {"sample_puzzle.accept.1000000"}
    expected |= {"census.count_colored.jackson-grid", "census.count_by_color_compositions.4-3"}
    expected |= {f"census.symmetry-check.{size}" for size in ("5-2", "3-3", "3-4")}
    expected |= {"puzzle.tree_probability.exact-grid", "puzzle.k3-inclusion-exclusion.grid",
                 "puzzle.exchange-lemma.grid", "counting.m_coefficient.grid"}
    expected |= {f"domain.rooted.{size}" for size in ("5-2", "4-3", "3-4")}
    expected |= {f"domain.arborescences.{size}" for size in ("3-3", "4-3")}
    expected |= {"pointing-check.4-3"}
    expected |= {f"guard.{cls}.exhaustive" for cls in (
        "ColoredFactorization", "TreeRootedConstellation", "TreePointedConstellation",
        "Nebula", "LabelledNebula", "Prebidding", "Bidding")}
    assert set(run["layers"]) == expected
    for layer in run["layers"].values():
        assert set(layer) == {"median", "q1", "q3", "objects", "repeats", "unit"}
        assert layer["q1"] <= layer["median"] <= layer["q3"]
        assert layer["objects"] >= 1 and layer["repeats"] == 2

    both = tmp_path / "compare.json"
    done = run_script("bench.py", "--compare", str(out), str(out), "--out", str(both))
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == len(expected)
    comparison = json.loads(both.read_text())
    assert comparison["a"] == comparison["b"] == run
    assert comparison["ratios"] == dict.fromkeys(sorted(expected), 1.0)


def test_mutation_scan_tells_a_killed_site_from_an_equivalent_one(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    import mutation_scan

    def site(module, function, change, line=None):
        (found,) = [s for s in mutation_scan.sites(module) if s.function == function
                    and s.change == change and line in (None, s.line)]
        return found

    # a dart that is its own twin would pass the structural check
    own_twin = site("halfedges", "HalfEdgeMap.validate", "t == x -> t != x")
    assert mutation_scan.run_mutant(own_twin, tmp_path, ["tests/test_guards.py"], timeout=120) == "killed"
    # the run of types stepping down around a white vertex only needs to be
    # long enough, so one more copy of it changes nothing
    down = site("nebulas", "_rotation_problem", "len(vertex) // k + 2 -> len(vertex) // k - 2")
    longer_run = site("nebulas", "_rotation_problem", "2 -> 3", down.line)
    tests = ["tests/test_guards.py", "tests/test_single_pass_guards.py", "-k", "not 3-3"]
    assert mutation_scan.run_mutant(longer_run, tmp_path, tests, timeout=120) == "survived"
    assert list(tmp_path.iterdir()) == []

    done = run_script("mutation_scan.py", "--seed", "1", "--count", "0")
    assert done.returncode == 2 and "--count must be at least 1" in done.stderr
