#!/usr/bin/env python3
"""Seeded mutation scan of the library: which small faults does the Tier-1 suite miss?

Usage:
  python3 scripts/mutation_scan.py --seed S --count N [--module M]

A *site* is one node of a module under ``src/constellation_lab/`` that a
mutation changes: a comparison operator flipped (``==``/``!=``, ``<``/``>=``,
``<=``/``>``, ``in``/``not in``, ``is``/``is not``), ``+`` and ``-``
swapped, ``and`` and ``or`` swapped, or an integer constant raised by one.
Sites are listed in file order, and ``N`` of them (of module ``M`` alone,
when given) are drawn with ``random.Random(S)``.

Each mutant is the repository copied to a temporary directory with one site
changed, and the Tier-1 suite run there with ``-x`` under a timeout.  One
line per mutant says whether the suite *killed* it (a test failed), it
*survived* (every test passed) or it *hung* (the timeout ran out), and a
summary line counts each.  A survivor is either a gap in the tests or an
equivalent mutant, one that cannot change any result; ``CHANGES.md`` says
which, for each survivor of a scan.  The scan takes minutes per mutant
that survives, because the whole suite runs.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "constellation_lab"
# what a mutant's copy of the repository holds: the tests read the scripts,
# the benchmark's files and the package
COPIED = ("src", "tests", "scripts", "perfbench", "BENCHMARK.json", "pyproject.toml")
TIMEOUT_S = 600

FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}


@dataclass(frozen=True)
class Site:
    module: str    # a module of the package, e.g. "halfedges"
    index: int     # the site's place among the module's sites
    line: int
    column: int
    function: str  # the enclosing definition, e.g. "HalfEdgeMap.validate"
    change: str    # e.g. "t == x -> t != x"

    def __str__(self) -> str:
        return f"{self.module}.py:{self.line}:{self.column} {self.function}: {self.change}"


def _mutable_nodes(tree: ast.AST):
    """(node, enclosing definition) of every node a mutation can change, in
    file order; docstrings and other string constants are left alone."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Compare) and all(type(op) in FLIPS for op in child.ops):
                yield child, inner
            elif isinstance(child, (ast.BinOp, ast.BoolOp)) and type(child.op) in SWAPS:
                yield child, inner
            elif isinstance(child, ast.Constant) and type(child.value) is int:
                yield child, inner
            yield from walk(child, inner)

    yield from walk(tree, "")


def _mutate(node: ast.AST) -> None:
    """Apply the site's one mutation to ``node`` in place."""
    if isinstance(node, ast.Compare):
        node.ops = [FLIPS[type(op)]() for op in node.ops]
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value += 1


def sites(module: str | None = None) -> list[Site]:
    """Every mutation site of the package, or of one module, in file order."""
    paths = [PACKAGE / f"{module}.py"] if module else sorted(PACKAGE.glob("*.py"))
    out = []
    for path in paths:
        for index, (node, scope) in enumerate(_mutable_nodes(ast.parse(path.read_text()))):
            before = ast.unparse(node)
            _mutate(node)
            out.append(Site(path.stem, index, node.lineno, node.col_offset, scope or "<module>",
                            f"{before} -> {ast.unparse(node)}"))
    return out


def mutated_source(site: Site) -> str:
    """The source of the site's module with the site mutated."""
    tree = ast.parse((PACKAGE / f"{site.module}.py").read_text())
    node, _ = list(_mutable_nodes(tree))[site.index]
    _mutate(node)
    return ast.unparse(tree) + "\n"


def run_mutant(site: Site, workdir: str | os.PathLike, pytest_args=(), timeout: float = TIMEOUT_S) -> str:
    """Copy the repository under ``workdir``, mutate the site there and run
    the tests (``pytest_args`` selects them; all of Tier-1 by default).
    Returns "killed", "survived" or "hung"."""
    copy = Path(tempfile.mkdtemp(prefix="mutant-", dir=workdir))
    try:
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            elif source.exists():
                shutil.copy2(source, copy / name)
        (copy / "src" / "constellation_lab" / f"{site.module}.py").write_text(mutated_source(site))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "hung"
        return "survived" if done.returncode == 0 else "killed"
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True, help="mutants to run")
    parser.add_argument("--module", help="draw sites of this module only, e.g. halfedges")
    args = parser.parse_args(argv)
    if args.module is not None and not (PACKAGE / f"{args.module}.py").is_file():
        parser.error(f"no module {args.module!r} in {PACKAGE}")
    if args.count < 1:
        parser.error("--count must be at least 1")
    pool = sites(args.module)
    chosen = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    print(f"{len(chosen)} of {len(pool)} sites, seed {args.seed}", flush=True)
    verdicts = {"killed": 0, "survived": 0, "hung": 0}
    with tempfile.TemporaryDirectory(prefix="mutation-scan-") as workdir:
        for site in chosen:
            verdict = run_mutant(site, workdir)
            verdicts[verdict] += 1
            print(f"{verdict:8s} {site}", flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
