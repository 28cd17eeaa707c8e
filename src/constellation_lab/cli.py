"""Command-line front end: counting, verification sweeps, roundtrips, rendering.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error
(also a sweep at n < 1 or k < 2, outside the bijection chain, and a sampled
puzzle type that accepts none of its trials), 3 enumeration cap exceeded,
4 an internal check of the library failed (a bug, not a mismatch).
Reports are deterministic for a fixed configuration (including seed).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, NamedTuple, Optional, Sequence

from . import counting
from .counting import CapExceededError, CheckReport, DEFAULT_CAP, _check_size, _require
from .permutations import Composition, compositions_of


def _lazy(name: str):
    """The package's submodule ``name``, whose body runs at its first
    attribute read (the ``importlib.util.LazyLoader`` recipe).

    A module that ``sys.modules`` already holds is returned as it is, so there
    is one copy of its memos and of what a caller patches on it.  A new one is
    registered in ``sys.modules`` and on the package before it runs, as an
    import would, so a tool that walks the loaded modules finds it."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# the bijection chain runs only when a command reads it; counting and
# permutations are read by the parser and by every identity command
tree_rooted = _lazy("tree_rooted")
symmetry = _lazy("symmetry")
nebulas = _lazy("nebulas")
biddings = _lazy("biddings")

SCHEMA = "constellation-lab/2"
CAP_ENV = "CONSTELLATION_LAB_CAP"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _p_grid(n: int, k: int):
    return itertools.product(range(1, n + 1), repeat=k)


@contextlib.contextmanager
def _output(args):
    """stdout, or the --out file, opened for the block and closed after it."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            yield out


def _json_chunks(value, chunks: list[str], indent: str) -> None:
    """Append the indented JSON text of ``value`` to ``chunks``; ``indent`` is
    a newline and the indentation of the line that ``value`` starts on."""
    if value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, str):
        chunks.append(_encode_str(value))
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            _json_chunks(item, chunks, inner)
            separator = "," + inner
        chunks.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key in sorted(value):
            # json writes a non-string key as the text of its scalar
            text = key if isinstance(key, str) else json.dumps(key)
            chunks.append(separator + _encode_str(text) + ": ")
            _json_chunks(value[key], chunks, inner)
            separator = "," + inner
        chunks.append(indent + "}")
    else:
        chunks.append(json.dumps(value))


def _write_json(out, payload) -> None:
    """One JSON report: indented, keys sorted, ending in a newline.

    The text is byte for byte ``json.dumps(payload, indent=2, sort_keys=True)``
    and a newline.  It is joined here from chunks, because ``json.dumps``
    takes its pure-Python encoder whenever it indents."""
    chunks: list[str] = []
    _json_chunks(payload, chunks, "\n")
    chunks.append("\n")
    out.write("".join(chunks))


def _finish(args, command: str, results: list[dict], ok: bool, text_lines: list[str]) -> int:
    """Write the report of ``command`` in --format and return its exit code."""
    with _output(args) as out:
        if args.format == "json":
            payload = {
                "schema": SCHEMA,
                "command": command,
                "ok": ok,
                "cap": args.cap,
                "results": results,
            }
            _write_json(out, payload)
        else:
            for line in text_lines:
                out.write(line + "\n")
            out.write(f"ok: {str(ok).lower()}\n")
    return EXIT_OK if ok else EXIT_FAILED


def _check(args, command: str, reports: list[CheckReport]) -> int:
    """Finish a *-check command: one text line per identity checked."""
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params)
        verdict = "ok" if r.equal else "MISMATCH"
        lines.append(f"{r.name} {params}: lhs={r.lhs} rhs={r.rhs} [{verdict}]")
    ok = all(r.equal for r in reports)
    return _finish(args, command, [r.to_json() for r in reports], ok, lines)


def _check_factors(args, flag: str, factors: Sequence, sizes: Sequence[tuple[int, ...]] = ()) -> None:
    """Usage error unless the per-factor data of ``flag`` matches --k (when
    given) and every composition in ``sizes`` sums to --n."""
    if args.k is not None and len(factors) != args.k:
        raise ValueError(f"{flag} gives {len(factors)} factors but --k is {args.k}")
    for parts in sizes:
        if sum(parts) != args.n:
            raise ValueError(
                f"{flag} {','.join(map(str, parts))} sums to {sum(parts)} but --n is {args.n}"
            )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    if args.what is None:
        raise ValueError("count requires --what (or one of --colored/--compositions/--kappa/--m)")
    if args.what in ("m", "colored") and args.p is None:
        raise ValueError(f"count --what {args.what} requires --p")
    if args.what == "compositions" and not args.gamma:
        raise ValueError("count --what compositions requires --gamma (repeatable)")
    if args.what == "kappa" and not args.lam:
        raise ValueError("count --what kappa requires --lam (repeatable)")
    if args.what == "m":
        _check_factors(args, "--p", args.p)
        value = counting.m_coefficient(args.n, args.p)
        label = f"M^{args.n}_{','.join(map(str, args.p))}"
    elif args.what == "colored":
        _check_factors(args, "--p", args.p)
        value = counting.count_colored(args.n, args.p, cap=args.cap)
        label = f"C^{args.n}_{','.join(map(str, args.p))}"
    elif args.what == "compositions":
        _check_factors(args, "--gamma", args.gamma, args.gamma)
        gammas = [Composition(g) for g in args.gamma]
        value = counting.count_by_color_compositions(gammas, cap=args.cap)
        label = "c(" + ";".join(str(g) for g in gammas) + ")"
    elif args.what == "kappa":
        _check_factors(args, "--lam", args.lam, args.lam)
        lams = [Composition(l) for l in args.lam]
        value = counting.count_kappa(lams, cap=args.cap)
        label = "kappa(" + ";".join(str(l) for l in lams) + ")"
    else:
        raise AssertionError(args.what)
    results = [{"what": args.what, "value": str(value)}]
    return _finish(args, "count", results, True, [f"{label} = {value}"])


def _sweep(fn):
    """A subcommand that checks every object of size n with k types, on the
    bijection chain's domain n >= 1 and k >= 2; checked before any grid."""

    @functools.wraps(fn)
    def run(args) -> int:
        _check_size(args.n, args.k, n_min=1, k_min=2)
        return fn(args)

    return run


@_sweep
def cmd_jackson_check(args) -> int:
    if args.all_p and args.p is not None:
        raise ValueError("jackson-check takes --p or --all-p, not both")
    if not args.all_p and args.p is None:
        raise ValueError("jackson-check requires --p or --all-p")
    if not args.all_p:
        _check_factors(args, "--p", args.p)
    ps = [tuple(p) for p in _p_grid(args.n, args.k)] if args.all_p else [args.p]
    reports = [counting.verify_jackson(args.n, p, cap=args.cap) for p in ps]
    return _check(args, "jackson-check", reports)


@_sweep
def cmd_gf_check(args) -> int:
    if args.all_x and args.x is not None:
        raise ValueError("gf-check takes --x or --all-x, not both")
    if not args.all_x and args.x is None:
        raise ValueError("gf-check requires --x or --all-x")
    if not args.all_x:
        _check_factors(args, "--x", args.x)
    xs_list = list(itertools.product((1, 2, 3), repeat=args.k)) if args.all_x else [args.x]
    reports = [counting.verify_gf_identity(args.n, args.k, xs, cap=args.cap) for xs in xs_list]
    return _check(args, "gf-check", reports)


@_sweep
def cmd_mv_check(args) -> int:
    if args.gamma:
        _check_factors(args, "--gamma", args.gamma, args.gamma)
        gamma_tuples = [tuple(Composition(g) for g in args.gamma)]
    else:
        all_comps = list(compositions_of(args.n))
        gamma_tuples = list(itertools.product(all_comps, repeat=args.k))
    reports = [counting.verify_mv_formula(gs, cap=args.cap) for gs in gamma_tuples]
    return _check(args, "mv-check", reports)


@_sweep
def cmd_symmetry_check(args) -> int:
    # the nonzero c(gamma) of each profile of composition lengths must agree
    comps = list(compositions_of(args.n))
    by_profile: dict[tuple[int, ...], list[int]] = {}
    for key, count in counting.color_composition_counts([comps] * args.k, cap=args.cap).items():
        by_profile.setdefault(tuple(map(len, key)), []).append(count)
    results = []
    ok = True
    for profile in sorted(by_profile):
        values = set(by_profile[profile])
        equal = len(values) == 1
        ok = ok and equal
        results.append(
            {
                "profile": list(profile),
                "classes": len(by_profile[profile]),
                "counts": sorted(str(v) for v in values),
                "equal": equal,
            }
        )
    lines = [
        f"profile {r['profile']}: {r['classes']} composition tuples, "
        f"counts {r['counts']} [{'ok' if r['equal'] else 'MISMATCH'}]"
        for r in results
    ]
    return _finish(args, "symmetry-check", results, ok, lines)


def _colored(n: int, k: int, p: Optional[tuple[int, ...]], cap: int):
    for pv in [p] if p else _p_grid(n, k):
        yield from counting.enumerate_colored_factorizations(n, k, pv, cap=cap)


def _swap_domain(n: int, k: int, p: Optional[tuple[int, ...]], cap: int):
    """(object, t, i, j, u_i, u_j) for labels i != j of type t, u_i and u_j
    the vertices so labelled, u_i of hyperdegree >= 2."""
    for pv in [p] if p else _p_grid(n, k):
        for obj in tree_rooted.enumerate_tree_rooted(n, k, pv, cap):
            c = obj.constellation
            # each vertex's hyperdegree is read once; (t, i) in label order
            # and then j increasing is the order of permutations(labels, 2)
            movable = sorted(
                (t, i)
                for t, i, rot in zip(c.vertex_type, c.labels, c.rotation)
                if len(rot) >= 2 and pv[t - 1] >= 2
            )
            if not movable:
                continue  # no move, so no vertex to look up
            vertex = {key: v for v, key in enumerate(zip(c.vertex_type, c.labels), start=1)}
            for t, i in movable:
                for j in range(1, pv[t - 1] + 1):
                    if j != i:
                        yield obj, t, i, j, vertex[t, i], vertex[t, j]


def _swap(x):
    obj, t, i, j, u_i, u_j = x
    return symmetry._swap_degree(obj, t, u_i, u_j), t, j, i, u_i, u_j


def _swap_back(y):
    # the guarded move finds its vertices by label; those of the move it
    # undoes ride along unchanged
    obj, t, j, i, u_i, u_j = y
    return symmetry.swap_degree(obj, t, j, i), t, i, j, u_i, u_j


def _prebiddings(n: int, k: int, p: Optional[tuple[int, ...]], cap: int):
    return biddings.enumerate_valid_prebiddings(n, k, p, cap)


class Roundtrip(NamedTuple):
    """A bijection's exhaustive check: ``inverse(forward(x)) == x`` for every
    ``x`` of ``domain(n, k, p, cap)``, which yields ``size(n, k, p)`` objects."""

    domain: Callable
    size: Callable
    forward: Callable
    inverse: Callable
    takes_p: bool


# The forward maps are the guard-free cores: each domain yields valid objects,
# and the inverse map's guard checks that the forward map lands in its
# codomain.  The maps are looked up on each call, so a patched or traced
# module function is the one that runs.
ROUNDTRIPS = {
    "phi": Roundtrip(
        _colored, counting._colored_total,
        lambda x: tree_rooted._phi(x, tree_rooted._xi(x)), lambda x: tree_rooted.phi_inverse(x),
        True,
    ),
    "swap": Roundtrip(_swap_domain, counting._swap_moves, _swap, _swap_back, True),
    "lambda": Roundtrip(
        lambda n, k, p, cap: nebulas.enumerate_tree_pointed(n, k, cap),
        lambda n, k, p: counting._tree_pointed_total(n, k),
        lambda x: nebulas._dual_opening(x), lambda x: nebulas.dual_closure(x), False,
    ),
    "theta": Roundtrip(
        _prebiddings, lambda n, k, p: counting._bidding_total(n, k),
        lambda x: biddings._vartheta_inverse(x), lambda x: biddings.vartheta(x), False,
    ),
    "sigma": Roundtrip(
        _prebiddings, lambda n, k, p: counting._bidding_total(n, k),
        lambda x: biddings._sigma(x), lambda x: biddings.sigma_inverse(x), False,
    ),
    "psi": Roundtrip(
        lambda n, k, p, cap: map(biddings.sigma, _prebiddings(n, k, p, cap)),
        lambda n, k, p: counting._bidding_total(n, k),
        lambda x: biddings._vartheta_inverse(biddings._sigma_inverse(x)),
        lambda x: biddings.psi(x), False,
    ),
}


def _run_roundtrip(bijection: str, n: int, k: int, p: Optional[tuple[int, ...]], cap: int):
    row = ROUNDTRIPS[bijection]
    forward, inverse = row.forward, row.inverse
    checked = failures = 0
    # the domain's argument and cap errors propagate; a map rejecting its
    # input, or a core indexing past a malformed one, fails the check
    for x in row.domain(n, k, p, cap):
        checked += 1
        try:
            same = inverse(forward(x)) == x
        except (ValueError, LookupError):
            same = False
        failures += not same
    return checked, failures


@_sweep
def cmd_roundtrip(args) -> int:
    row = ROUNDTRIPS[args.bijection]
    if args.p is not None:
        if not row.takes_p:
            raise ValueError(f"roundtrip --bijection {args.bijection} takes no --p")
        _check_factors(args, "--p", args.p)
    checked, failures = _run_roundtrip(args.bijection, args.n, args.k, args.p, args.cap)
    # a domain that yields too few or too many objects fails as a map does
    expected = row.size(args.n, args.k, args.p)
    lines = [f"{args.bijection}: {checked} roundtrips, {failures} failures"]
    if checked != expected:
        lines.append(f"{args.bijection}: expected {expected} roundtrips")
    return _finish(
        args,
        "roundtrip",
        [
            {
                "bijection": args.bijection,
                "checked": checked,
                "expected": expected,
                "failures": failures,
            }
        ],
        failures == 0 and checked == expected,
        lines,
    )


@_sweep
def cmd_pointing_check(args) -> int:
    if args.p is not None:
        _check_factors(args, "--p", args.p)
        ps = [args.p]
    else:
        ps = [tuple(q) for q in itertools.product(range(0, args.n + 1), repeat=args.k)]
    reports = [nebulas.verify_pointing(args.n, args.k, p, args.cap) for p in ps]
    return _check(args, "pointing-check", reports)


def cmd_puzzle(args) -> int:
    # absolute, as a relative import runs the import system's Python-level
    # fromlist handling, about 3 us a call, on every sampled case
    import constellation_lab.puzzle as puzzle

    if args.seed is not None and args.sample is None:
        raise ValueError("puzzle takes --seed only with --sample")
    _check_factors(args, "--p", args.p)
    if args.sample is not None:
        result = puzzle.sample_puzzle(args.n, args.k, args.p, args.sample, args.seed)
        return _finish(
            args,
            "puzzle",
            [result.to_json()],
            True,
            [
                f"sampled {result.trials} trials, accepted {result.accepted}",
                f"tree ~ {puzzle.ratio(result.tree_estimate)}"
                f"  |R_1|=k-1 ~ {puzzle.ratio(result.r1_estimate)}",
            ],
        )
    report = puzzle.verify_puzzle(args.n, args.k, args.p, cap=args.cap)
    verdict = "ok" if report.equal else "MISMATCH"
    return _finish(
        args,
        "puzzle",
        [report.to_json()],
        report.equal,
        [
            f"P(tree) = {puzzle.ratio(report.tree)}"
            f"  P(|R_1|=k-1) = {puzzle.ratio(report.r1)}  [{verdict}]"
        ],
    )


def cmd_enumerate(args) -> int:
    if args.what == "factorizations":
        if args.p is not None:
            raise ValueError("enumerate --what factorizations takes no --p")
        stream = counting.enumerate_factorizations(args.n, args.k, cap=args.cap)
        lines = (json.dumps([list(q.image) for q in perms]) for perms in stream)
    else:
        if args.p is not None:
            _check_factors(args, "--p", args.p)
        stream = counting.m_tuples(args.n, args.k, args.p, cap=args.cap)
        lines = (json.dumps(mt.to_json()) for mt in stream)
    # the stream checks its arguments and the cap when asked for its first
    # item, so a failing call exits before --out is opened (and truncated)
    first = list(itertools.islice(lines, 1))
    with _output(args) as out:
        for line in itertools.chain(first, lines):
            out.write(line + "\n")
    return EXIT_OK


def cmd_render(args) -> int:
    from .constellations import Constellation, constellation_to_dot, halfedge_to_dot
    from .halfedges import HalfEdgeMap

    with open(args.input, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if args.kind == "constellation":
        dot = constellation_to_dot(Constellation.from_json(data))
    else:
        m = HalfEdgeMap.from_json(data)
        _require(nebulas.validate_nebula(m) if args.kind == "nebula" else m.validate())
        dot = halfedge_to_dot(m)
    with _output(args) as out:
        out.write(dot)
    return EXIT_OK


def cmd_psi(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if args.direction == "fwd":
        ln = biddings.LabelledNebula.from_json(data)
        result = biddings.psi(ln).to_json()
    else:
        b = biddings.Bidding.from_json(data)
        result = biddings.psi_inverse(b).to_json()
    with _output(args) as out:
        _write_json(out, result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constellation-lab",
        description="Exact counting and cross-verified bijections for "
        "factorizations of the long cycle.",
    )

    def _common(target, suppress, with_format=True):
        # the same options are accepted before and after the subcommand;
        # subparser copies use SUPPRESS so they only override when given
        d = (lambda v: argparse.SUPPRESS if suppress else v)
        target.add_argument(
            "--cap", type=int, default=d(None),
            help=f"enumeration cap (default: ${CAP_ENV}, else {DEFAULT_CAP})",
        )
        if with_format:
            target.add_argument("--format", choices=["text", "json"], default=d("text"))
        target.add_argument("--out", default=d(None), help="write output to a file")

    _common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> subcommand parser, for main's direct dispatch
    parser.subcommands = sub.choices

    def add(name, fn, with_format=True, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        _common(sp, suppress=True, with_format=with_format)
        return sp

    sp = add("count", cmd_count, help="exact counts")
    sp.add_argument("--what", choices=["colored", "compositions", "kappa", "m"])
    for flag in ("colored", "compositions", "kappa", "m"):
        sp.add_argument(
            f"--{flag}", dest="what", action="store_const", const=flag,
            help=f"shorthand for --what {flag}",
        )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--p", type=_parse_ints)
    sp.add_argument("--gamma", type=_parse_ints, action="append", default=[])
    sp.add_argument("--lam", type=_parse_ints, action="append", default=[])

    sp = add("jackson-check", cmd_jackson_check, help="colored count vs closed form")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=_parse_ints)
    sp.add_argument("--all-p", action="store_true")

    sp = add("gf-check", cmd_gf_check, help="generating identity at integer points")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--x", type=_parse_ints)
    sp.add_argument("--all-x", action="store_true")

    sp = add("mv-check", cmd_mv_check, help="refined count vs closed form")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--gamma", type=_parse_ints, action="append", default=[])

    sp = add("symmetry-check", cmd_symmetry_check, help="equal counts per length profile")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = add("roundtrip", cmd_roundtrip, help="exhaustive bijection roundtrips")
    sp.add_argument("--bijection", choices=list(ROUNDTRIPS), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=_parse_ints)

    sp = add("pointing-check", cmd_pointing_check, help="pointing correspondence counts")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=_parse_ints)

    sp = add("puzzle", cmd_puzzle, help="tree probability vs |R_1| probability")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=_parse_ints, required=True)
    sp.add_argument("--sample", type=int, default=None, help="Monte Carlo trials")
    sp.add_argument("--seed", type=int, default=None, help="sampler seed, at least 0 (default 0)")

    sp = add("enumerate", cmd_enumerate, help="emit streams as JSONL")
    sp.add_argument("--what", choices=["factorizations", "mtuples"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=_parse_ints, default=None)

    sp = add("render", cmd_render, with_format=False, help="DOT rendering of JSON objects")
    sp.add_argument("--input", required=True)
    sp.add_argument("--kind", choices=["constellation", "nebula", "halfedge"], required=True)
    sp.add_argument("--format", dest="render_format", choices=["dot"], default="dot")

    sp = add("psi", cmd_psi, help="apply the nebula/bidding encoding to JSON files")
    sp.add_argument("--direction", choices=["fwd", "inv"], required=True)
    sp.add_argument("--input", required=True)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _env_cap() -> int:
    cap_text = os.environ.get(CAP_ENV, str(DEFAULT_CAP))
    try:
        return int(cap_text)
    except ValueError:
        raise ValueError(f"{CAP_ENV} must be an integer, got {cap_text!r}") from None


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse ``argv`` to the namespace, or the exit, of ``_parser().parse_args(argv)``.

    An argv that starts with a subcommand's name goes straight to that
    subcommand's parser, with a namespace that already holds the top-level
    defaults and the command's name; the top-level parser hands it the same,
    after a pass of its own over argv.  What the subcommand leaves over is
    refused in the top-level parser's words.  After a subcommand's name, that
    pass refuses only an argument starting with ``--=``, an ambiguous
    abbreviation of every top-level option, so such an argv takes the full
    route, as every other argv does.
    """
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    defaults = {name: parser.get_default(name) for name in ("cap", "format", "out")}
    args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0], **defaults))
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code.  An argv that starts with a subcommand's name is
    read by that subcommand's parser directly (:func:`_parse_args`)."""
    try:
        # the environment is read on every call, even when --cap is given
        env_cap = _env_cap()
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args.cap is None:
            args.cap = env_cap
        return args.fn(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
