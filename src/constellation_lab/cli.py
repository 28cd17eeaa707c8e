"""Command-line front end: counting, verification sweeps, roundtrips, rendering.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage error
(also a sweep at n < 1 or k < 1, which would check nothing, and a sampled
puzzle type that accepts none of its trials), 3 enumeration cap exceeded,
4 an internal check of the library failed (a bug, not a mismatch).
Reports are deterministic for a fixed configuration (including seed).
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Optional, Sequence

from . import biddings, counting, nebulas, puzzle, symmetry, tree_rooted
from .constellations import Constellation, constellation_to_dot, halfedge_to_dot
from .counting import CapExceededError, CheckReport, DEFAULT_CAP
from .halfedges import HalfEdgeMap
from .permutations import Composition, compositions_of

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


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        if args.format == "json":
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            for line in text_lines:
                out.write(line + "\n")
            if "ok" in payload:
                out.write(f"ok: {str(payload['ok']).lower()}\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _report(args, command: str, results: list[dict], ok: bool, extra: Optional[dict] = None) -> dict:
    payload = {
        "schema": SCHEMA,
        "command": command,
        "ok": ok,
        "cap": args.cap,
        "results": results,
    }
    if extra:
        payload.update(extra)
    return payload


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


def _check_lines(reports: list[CheckReport]) -> list[str]:
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params)
        verdict = "ok" if r.equal else "MISMATCH"
        lines.append(f"{r.name} {params}: lhs={r.lhs} rhs={r.rhs} [{verdict}]")
    return lines


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
        value = counting.m_coefficient(args.n, args.p, k=args.k)
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
    payload = _report(args, "count", [{"what": args.what, "value": str(value)}], True)
    _emit(args, payload, [f"{label} = {value}"])
    return EXIT_OK


def _sweep(fn):
    """A subcommand that checks every object of size n with k types; n < 1
    would check none, and k < 1 has no objects."""

    @functools.wraps(fn)
    def run(args) -> int:
        for name, value in (("n", args.n), ("k", args.k)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
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
    ok = all(r.equal for r in reports)
    payload = _report(args, "jackson-check", [r.to_json() for r in reports], ok)
    _emit(args, payload, _check_lines(reports))
    return EXIT_OK if ok else EXIT_FAILED


@_sweep
def cmd_gf_check(args) -> int:
    if args.all_x and args.x is not None:
        raise ValueError("gf-check takes --x or --all-x, not both")
    if not args.all_x and args.x is None:
        raise ValueError("gf-check requires --x or --all-x")
    xs_list = list(itertools.product((1, 2, 3), repeat=args.k)) if args.all_x else [args.x]
    reports = [counting.verify_gf_identity(args.n, args.k, xs, cap=args.cap) for xs in xs_list]
    ok = all(r.equal for r in reports)
    payload = _report(args, "gf-check", [r.to_json() for r in reports], ok)
    _emit(args, payload, _check_lines(reports))
    return EXIT_OK if ok else EXIT_FAILED


@_sweep
def cmd_mv_check(args) -> int:
    if args.gamma:
        _check_factors(args, "--gamma", args.gamma, args.gamma)
        gamma_tuples = [tuple(Composition(g) for g in args.gamma)]
    else:
        all_comps = list(compositions_of(args.n))
        gamma_tuples = list(itertools.product(all_comps, repeat=args.k))
    reports = [counting.verify_mv_formula(gs, cap=args.cap) for gs in gamma_tuples]
    ok = all(r.equal for r in reports)
    payload = _report(args, "mv-check", [r.to_json() for r in reports], ok)
    _emit(args, payload, _check_lines(reports))
    return EXIT_OK if ok else EXIT_FAILED


@_sweep
def cmd_symmetry_check(args) -> int:
    # the nonzero c(gamma) of each profile of composition lengths must agree
    by_profile: dict[tuple[int, ...], list[int]] = {}
    for gammas in itertools.product(compositions_of(args.n), repeat=args.k):
        count = counting.count_by_color_compositions(gammas, cap=args.cap)
        if count:
            by_profile.setdefault(tuple(g.length for g in gammas), []).append(count)
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
    payload = _report(args, "symmetry-check", results, ok)
    lines = [
        f"profile {r['profile']}: {r['classes']} composition tuples, "
        f"counts {r['counts']} [{'ok' if r['equal'] else 'MISMATCH'}]"
        for r in results
    ]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAILED


@_sweep
def cmd_roundtrip(args) -> int:
    if args.p is not None:
        if args.bijection not in ("phi", "swap"):
            raise ValueError(f"roundtrip --bijection {args.bijection} takes no --p")
        _check_factors(args, "--p", args.p)
    checked, failures = _run_roundtrip(args.bijection, args.n, args.k, args.p)
    ok = failures == 0
    payload = _report(
        args,
        "roundtrip",
        [{"bijection": args.bijection, "checked": checked, "failures": failures}],
        ok,
    )
    _emit(args, payload, [f"{args.bijection}: {checked} roundtrips, {failures} failures"])
    return EXIT_OK if ok else EXIT_FAILED


def _run_roundtrip(bijection: str, n: int, k: int, p: Optional[tuple[int, ...]]):
    checked = failures = 0
    if bijection == "phi":
        ps = [p] if p else [tuple(q) for q in _p_grid(n, k)]
        for pv in ps:
            for cf in counting.enumerate_colored_factorizations(n, k, pv):
                checked += 1
                if tree_rooted.phi_inverse(tree_rooted.phi(cf)) != cf:
                    failures += 1
    elif bijection == "swap":
        ps = [p] if p else [tuple(q) for q in _p_grid(n, k)]
        for pv in ps:
            for t_obj in tree_rooted.enumerate_tree_rooted(n, k, pv):
                for t in range(1, k + 1):
                    pt = pv[t - 1]
                    for i, j in itertools.permutations(range(1, pt + 1), 2):
                        u = t_obj.constellation.vertex_by_label(t, i)
                        if t_obj.constellation.hyperdegree(u) < 2:
                            continue
                        checked += 1
                        back = symmetry.swap_degree(
                            symmetry.swap_degree(t_obj, t, i, j), t, j, i
                        )
                        if back != t_obj:
                            failures += 1
    elif bijection == "lambda":
        for tp in nebulas.enumerate_tree_pointed(n, k):
            checked += 1
            nb = nebulas.dual_opening(tp)
            back = nebulas.canonical_tree_pointed(nebulas.dual_closure(nb))
            if back != tp:
                failures += 1
    elif bijection in ("theta", "sigma", "psi"):
        for pb in biddings.enumerate_valid_prebiddings(n, k):
            checked += 1
            if bijection == "theta":
                if biddings.vartheta(biddings.vartheta_inverse(pb)) != pb:
                    failures += 1
            elif bijection == "sigma":
                if biddings.sigma_inverse(biddings.sigma(pb)) != pb:
                    failures += 1
            else:
                b = biddings.sigma(pb)
                if biddings.psi(biddings.psi_inverse(b)) != b:
                    failures += 1
    else:
        raise argparse.ArgumentTypeError(f"unknown bijection {bijection}")
    return checked, failures


@_sweep
def cmd_pointing_check(args) -> int:
    if args.p is not None:
        _check_factors(args, "--p", args.p)
        ps = [args.p]
    else:
        ps = [tuple(q) for q in itertools.product(range(0, args.n + 1), repeat=args.k)]
    reports = [nebulas.verify_pointing(args.n, args.k, p) for p in ps]
    ok = all(r.equal for r in reports)
    payload = _report(args, "pointing-check", [r.to_json() for r in reports], ok)
    _emit(args, payload, _check_lines(reports))
    return EXIT_OK if ok else EXIT_FAILED


def cmd_puzzle(args) -> int:
    if args.sample is not None:
        result = puzzle.sample_puzzle(args.n, args.k, args.p, args.sample, args.seed)
        payload = _report(args, "puzzle", [result.to_json()], True)
        _emit(
            args,
            payload,
            [
                f"sampled {result.trials} trials, accepted {result.accepted}",
                f"tree ~ {result.tree_estimate}  |R_1|=k-1 ~ {result.r1_estimate}",
            ],
        )
        return EXIT_OK
    report = puzzle.verify_puzzle(args.n, args.k, args.p, cap=args.cap)
    payload = _report(args, "puzzle", [report.to_json()], report.equal)
    verdict = "ok" if report.equal else "MISMATCH"
    _emit(
        args,
        payload,
        [f"P(tree) = {report.tree}  P(|R_1|=k-1) = {report.r1}  [{verdict}]"],
    )
    return EXIT_OK if report.equal else EXIT_FAILED


def cmd_enumerate(args) -> int:
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        if args.what == "factorizations":
            for perms in counting.enumerate_factorizations(args.n, args.k, cap=args.cap):
                out.write(json.dumps([list(q.image) for q in perms]) + "\n")
        else:
            for mt in counting.m_tuples(args.n, args.k, args.p, cap=args.cap):
                out.write(json.dumps(mt.to_json()) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_render(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if args.kind == "constellation":
        dot = constellation_to_dot(Constellation.from_json(data))
    else:
        m = HalfEdgeMap.from_json(data)
        problem = nebulas.validate_nebula(m) if args.kind == "nebula" else m.validate()
        if problem is not None:
            raise ValueError(problem)
        dot = halfedge_to_dot(m)
    if args.out is None:
        sys.stdout.write(dot)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dot)
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
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
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
    sp.add_argument("--bijection", choices=["phi", "swap", "lambda", "theta", "sigma", "psi"], required=True)
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
    sp.add_argument("--seed", type=int, default=0)

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # the environment is read on every call, even when --cap is given
        env_cap = _env_cap()
        args = _parser().parse_args(argv)
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
