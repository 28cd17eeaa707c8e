import contextlib
import dataclasses
import importlib.util
import io
import itertools
import json
import os
import random
import sys
from math import comb, factorial, prod

import pytest
from oracles import color_compositions

from constellation_lab.biddings import Bidding, psi_inverse
from constellation_lab.constellations import Arborescence, Constellation, dual, from_permutations
from constellation_lab import cli, counting, nebulas, tree_rooted
from constellation_lab.cli import main
from constellation_lab.permutations import Permutation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_jackson_check_all_p(capsys):
    code, out = run(capsys, "jackson-check", "--n", "3", "--k", "2", "--all-p")
    assert code == 0
    assert out.count("lhs=") == 9
    assert "MISMATCH" not in out


def test_jackson_check_json_reports_are_byte_identical(capsys):
    code, first = run(capsys, "--format", "json", "jackson-check", "--n", "2", "--k", "2", "--all-p")
    assert code == 0
    code, second = run(capsys, "--format", "json", "jackson-check", "--n", "2", "--k", "2", "--all-p")
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "constellation-lab/2"
    assert payload["ok"] is True
    assert sorted(payload) == ["cap", "command", "ok", "results", "schema"]
    assert all(r["lhs"] == r["rhs"] for r in payload["results"])


def test_puzzle_exact(capsys):
    code, out = run(capsys, "puzzle", "--n", "2", "--k", "3", "--p", "1,1,1")
    assert code == 0
    assert "1/2" in out and "MISMATCH" not in out


def test_puzzle_rejects_a_type_with_no_subset_tuples(capsys):
    # a strict subset of [3] holds at most 2 types, so n=2 positions give at most 4
    code = main(["puzzle", "--n", "2", "--k", "3", "--p", "2,2,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: no subset tuples of type (2, 2, 2)\n"


@pytest.mark.parametrize(
    "extra, name",
    [([], "n"), (["--sample", "10"], "n"), (["--sample", "0"], "trials"), (["--sample", "-4"], "trials")],
)
def test_puzzle_rejects_empty_size_or_trials(capsys, extra, name):
    n = "0" if name == "n" else "3"
    p = "0,0" if name == "n" else "1,2"
    code = main(["puzzle", "--n", n, "--k", "2", "--p", p, *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be at least 1") and err.count("\n") == 1


def test_count_m_empty_case(capsys):
    code, out = run(capsys, "count", "--what", "m", "--n", "0", "--k", "2", "--p", "0,0")
    assert code == 0
    assert "= 1" in out


def test_count_m_shorthand_flag(capsys):
    code, out = run(capsys, "count", "--m", "--n", "0", "--k", "2", "--p", "0,0")
    assert code == 0
    assert "= 1" in out


def test_count_requires_arguments(capsys):
    code = main(["count", "--what", "colored", "--n", "2"])
    assert code == 2


def test_puzzle_sampling_deterministic(capsys):
    args = ["puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--sample", "300", "--seed", "11"]
    code, first = run(capsys, *args)
    assert code == 0
    _, second = run(capsys, *args)
    assert first == second


def test_cap_env_var_is_default(capsys, monkeypatch):
    monkeypatch.setenv("CONSTELLATION_LAB_CAP", "1")
    code = main(["jackson-check", "--n", "4", "--k", "3", "--all-p"])
    assert code == 3


def test_internal_check_failure_is_its_own_exit_code(capsys, monkeypatch):
    def broken_closure(nb):
        raise AssertionError("vertex 1 closed by two bud-edges")

    monkeypatch.setattr(nebulas, "dual_closure", broken_closure)
    code = main(["roundtrip", "--bijection", "lambda", "--n", "2", "--k", "2"])
    assert code == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: vertex 1 closed by two bud-edges\n"


def test_lambda_roundtrip_counts_a_closure_to_another_object(capsys, monkeypatch):
    domain = list(nebulas.enumerate_tree_pointed(3, 2))
    monkeypatch.setattr(nebulas, "dual_closure", lambda nb: domain[0])
    code, out = run(capsys, "roundtrip", "--bijection", "lambda", "--n", "3", "--k", "2")
    assert code == cli.EXIT_FAILED
    assert f"lambda: {len(domain)} roundtrips, {len(domain) - 1} failures" in out


def _rootless_opening(tp):
    nb = nebulas.dual_opening(tp)
    return nebulas.Nebula(hmap=dataclasses.replace(nb.hmap, root=None))


def _parentless_phi(cf):
    t = tree_rooted.phi(cf)
    arb = dataclasses.replace(t.arborescence, parent_edge=(None,) * len(t.arborescence.parent_edge))
    return dataclasses.replace(t, arborescence=arb)


@pytest.mark.parametrize(
    "bijection, broken_forward, size",
    [("lambda", _rootless_opening, 10), ("phi", _parentless_phi, 6)],
)
def test_roundtrip_counts_a_rejected_intermediate_object_as_a_failure(
    capsys, monkeypatch, bijection, broken_forward, size
):
    # the inverse map rejects what the broken forward map hands it: a failed
    # check (exit 1), not a usage error
    row = cli.ROUNDTRIPS[bijection]
    first = next(iter(row.domain(2, 2, None, counting.DEFAULT_CAP)))
    with pytest.raises(ValueError):
        row.inverse(broken_forward(first))
    monkeypatch.setitem(cli.ROUNDTRIPS, bijection, row._replace(forward=broken_forward))
    code = main(["roundtrip", "--bijection", bijection, "--n", "2", "--k", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FAILED == 1
    assert f"{bijection}: {size} roundtrips, {size} failures\n" in captured.out
    assert captured.err == ""


def _perfbench_oracle():
    """``perfbench/oracle.py``, imported read-only: closed-form domain sizes
    written without the library."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench",
                        "oracle.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roundtrip_sizes_match_the_benchmark_oracle():
    oracle = _perfbench_oracle()
    for n, k in [*((n, 2) for n in range(1, 5)), *((n, 3) for n in range(1, 4)), (2, 4)]:
        types = list(itertools.product(range(1, n + 1), repeat=k))
        expected = {
            "phi": sum(oracle.colored_count(n, p) for p in types),
            "swap": sum(oracle.swap_domain(n, p) for p in types),
            "lambda": oracle.tree_pointed_domain(n, k),
            "theta": oracle.bidding_domain(n, k),
            "sigma": oracle.bidding_domain(n, k),
            "psi": oracle.bidding_domain(n, k),
        }
        assert {row: spec.size(n, k, None) for row, spec in cli.ROUNDTRIPS.items()} == expected
        for p in types:
            assert cli.ROUNDTRIPS["phi"].size(n, k, p) == oracle.colored_count(n, p), p
            assert cli.ROUNDTRIPS["swap"].size(n, k, p) == oracle.swap_domain(n, p), p


# the smallest (n, k) at which each row's domain is not empty
ROW_SIZES = {"phi": (2, 2), "swap": (3, 2), "lambda": (2, 2), "theta": (2, 2), "sigma": (2, 2),
             "psi": (2, 2)}


@pytest.mark.parametrize("change", ["drop-last", "repeat-first"])
@pytest.mark.parametrize("bijection", list(cli.ROUNDTRIPS))
def test_roundtrip_fails_when_its_domain_drops_or_repeats_an_object(
    capsys, monkeypatch, bijection, change
):
    # every object still roundtrips, so only the closed-form size sees it
    n, k = ROW_SIZES[bijection]
    row = cli.ROUNDTRIPS[bijection]
    full = list(row.domain(n, k, None, counting.DEFAULT_CAP))
    objects = full[:-1] if change == "drop-last" else full[:1] + full
    monkeypatch.setitem(cli.ROUNDTRIPS, bijection, row._replace(domain=lambda *_: iter(objects)))
    argv = ["roundtrip", "--bijection", bijection, "--n", str(n), "--k", str(k)]
    code, out = run(capsys, "--format", "json", *argv)
    assert code == cli.EXIT_FAILED == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["results"] == [
        {"bijection": bijection, "checked": len(objects), "expected": len(full), "failures": 0}
    ]
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == (f"{bijection}: {len(objects)} roundtrips, 0 failures\n"
                   f"{bijection}: expected {len(full)} roundtrips\nok: false\n")


def _malformed(bijection):
    """One object of the row's domain type that its guard-free forward map
    cannot handle: it indexes past the object, or the inverse rejects it."""
    n, k = ROW_SIZES[bijection]
    x = next(iter(cli.ROUNDTRIPS[bijection].domain(n, k, None, counting.DEFAULT_CAP)))
    if bijection == "phi":
        return dataclasses.replace(x, colorings=tuple(col[:-1] for col in x.colorings))
    if bijection == "swap":
        return x[:5] + (99,)  # no vertex 99
    if bijection == "lambda":
        parents = (None,) * len(x.arborescence.parent_edge)  # nothing to cut, so no buds
        return dataclasses.replace(x, arborescence=Arborescence(1, parents))
    if bijection == "theta":
        return dataclasses.replace(x, order=((1, 99),) + x.order[1:])
    if bijection == "sigma":
        return dataclasses.replace(x, order=((99, 1),) + x.order[1:])
    return dataclasses.replace(x, subsets=x.subsets[:-1])


@pytest.mark.parametrize("bijection", list(cli.ROUNDTRIPS))
def test_roundtrip_counts_a_malformed_domain_object_as_a_failure(capsys, monkeypatch, bijection):
    # an IndexError or KeyError from a guard-free core is a failed check, as a
    # ValueError from a guard is, and not a traceback
    bad = _malformed(bijection)
    row = cli.ROUNDTRIPS[bijection]
    with pytest.raises((ValueError, LookupError)):
        row.inverse(row.forward(bad))
    monkeypatch.setitem(cli.ROUNDTRIPS, bijection, row._replace(domain=lambda *_: iter([bad])))
    n, k = ROW_SIZES[bijection]
    code = main(["roundtrip", "--bijection", bijection, "--n", str(n), "--k", str(k)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FAILED == 1
    assert f"{bijection}: 1 roundtrips, 1 failures\n" in captured.out
    assert captured.err == ""


def test_invalid_cap_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CONSTELLATION_LAB_CAP", "abc")
    code = main(["count", "--m", "--n", "2", "--k", "2", "--p", "1,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CONSTELLATION_LAB_CAP") and err.count("\n") == 1


def test_count_m_past_enumeration_range(capsys):
    # (2^4 - 1)^40 tuples are far past any cap; the closed form needs none
    n, p = 40, (25, 30, 17, 33)
    expected = sum(
        (-1) ** j * comb(n, j) * prod(comb(n - j, x - j) for x in p)
        for j in range(min(p) + 1)
    )
    code, out = run(capsys, "count", "--what", "m", "--n", "40", "--k", "4", "--p", "25,30,17,33")
    assert code == 0
    assert out.splitlines()[0] == f"M^40_25,30,17,33 = {expected}"
    assert expected > 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cap_exceeded_exit_code(capsys):
    code = main(["--cap", "1", "jackson-check", "--n", "4", "--k", "3", "--all-p"])
    assert code == 3
    # a census cached under a larger cap does not lift a smaller one
    for command in (["jackson-check", "--all-p"], ["mv-check"], ["symmetry-check"]):
        argv = [command[0], "--n", "3", "--k", "3", *command[1:]]
        assert main(argv) == 0
        assert main(["--cap", "35", *argv]) == 3
    assert capsys.readouterr().err.count("exceeds cap 35") == 3


def test_sweeps_share_one_factorization_walk(capsys, monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("the census walks its own tuples")

    monkeypatch.setattr(counting, "enumerate_factorizations", no_stream)
    counting._census.cache_clear()
    try:
        assert main(["jackson-check", "--n", "3", "--k", "2", "--all-p"]) == 0
        assert main(["mv-check", "--n", "3", "--k", "2"]) == 0
        assert main(["gf-check", "--n", "3", "--k", "2", "--all-x"]) == 0
        assert main(["symmetry-check", "--n", "3", "--k", "2"]) == 0
        info = counting._census.cache_info()
    finally:
        counting._census.cache_clear()
    assert info.misses == 1 and info.hits >= 3


@pytest.mark.parametrize("n, k, cap", [(3, 2, 5), (4, 2, 23), (3, 3, 35), (3, 4, 215), (5, 2, 1)])
def test_symmetry_check_cap_below_the_census_adds_no_census_entry(capsys, n, k, cap):
    for memo in (counting._census, counting._cycle_count_census):
        memo.cache_clear()
    try:
        code = main(["--cap", str(cap), "symmetry-check", "--n", str(n), "--k", str(k)])
        captured = capsys.readouterr()
        entries = counting._census.cache_info().currsize
    finally:
        counting._census.cache_clear()
    assert code == 3
    assert captured.out == ""
    size = factorial(n) ** (k - 1)
    assert captured.err == f"error: enumeration of {size} tuples exceeds cap {cap}\n"
    assert entries == 0


def test_gf_check_all_x_reads_each_closed_form_once(capsys, monkeypatch):
    # the right side's closed forms n!^(k-1) M^(n-1)_(p-1) do not depend on
    # x: at most one m_coefficient call per p in [n]^k for all 3^k points
    n, k = 3, 3
    calls = []
    m_coefficient = counting.m_coefficient

    def counted(*args):
        calls.append(args)
        return m_coefficient(*args)

    monkeypatch.setattr(counting, "m_coefficient", counted)
    counting._jackson_terms.cache_clear()
    code, out = run(capsys, "--format", "json", "gf-check", "--n", str(n), "--k", str(k), "--all-x")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 3**k
    assert all(r["equal"] is True and r["lhs"] == r["rhs"] for r in results)
    assert 0 < len(calls) <= n**k


def test_roundtrip_commands(capsys):
    for bijection in ("phi", "swap", "lambda", "theta", "sigma", "psi"):
        code, out = run(capsys, "roundtrip", "--bijection", bijection, "--n", "2", "--k", "2")
        assert code == 0
        assert "0 failures" in out


@pytest.mark.parametrize("bijection", ["phi", "theta", "sigma", "psi", "swap", "lambda"])
def test_roundtrip_respects_cap(capsys, bijection):
    # 3!^1 factorizations for phi, 3^3 subset tuples for theta, sigma and
    # psi, and 3!^2 permutation pairs under the rooted-constellation domain
    # of swap and lambda, all above 5
    code = main(["--cap", "5", "roundtrip", "--bijection", bijection, "--n", "3", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert captured.err.startswith("error: enumeration of ") and captured.err.endswith(" exceeds cap 5\n")


def test_pointing_check_respects_cap(capsys):
    assert main(["pointing-check", "--n", "3", "--k", "2"]) == 0
    capsys.readouterr()
    # a domain walked under the default cap does not lift a smaller one
    for cap in ("1", "35"):
        assert main(["--cap", cap, "pointing-check", "--n", "3", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: enumeration of 36 tuples exceeds cap {cap}\n"
    assert main(["--cap", "36", "pointing-check", "--n", "3", "--k", "2"]) == 0


def test_symmetry_check(capsys):
    code, out = run(capsys, "symmetry-check", "--n", "3", "--k", "2")
    assert code == 0
    assert "MISMATCH" not in out


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_symmetry_check_groups_the_enumerated_composition_census(capsys, n, k):
    census = {}
    for p in itertools.product(range(1, n + 1), repeat=k):
        for cf in counting.enumerate_colored_factorizations(n, k, p):
            key = tuple(g.parts for g in color_compositions(cf))
            census[key] = census.get(key, 0) + 1
    by_profile = {}
    for key, cnt in census.items():
        by_profile.setdefault(tuple(len(parts) for parts in key), []).append(cnt)
    expected = [
        {
            "profile": list(profile),
            "classes": len(counts),
            "counts": sorted({str(c) for c in counts}),
            "equal": len(set(counts)) == 1,
        }
        for profile, counts in sorted(by_profile.items())
    ]
    code, out = run(capsys, "--format", "json", "symmetry-check", "--n", str(n), "--k", str(k))
    assert code == 0
    assert json.loads(out)["results"] == expected


def test_pointing_check(capsys):
    code, out = run(capsys, "pointing-check", "--n", "2", "--k", "2")
    assert code == 0


def test_gf_check(capsys):
    code, out = run(capsys, "gf-check", "--n", "2", "--k", "2", "--all-x")
    assert code == 0
    assert out.count("lhs=") == 9


def test_mv_check(capsys):
    code, out = run(capsys, "mv-check", "--n", "3", "--k", "2")
    assert code == 0


def test_enumerate_jsonl(capsys, tmp_path):
    path = tmp_path / "facts.jsonl"
    code = main(["--out", str(path), "enumerate", "--what", "factorizations", "--n", "3", "--k", "2"])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert json.loads(lines[0])[0] == [2, 3, 1]  # pi_1 = long cycle when pi_2 = id

    code = main(["--out", str(path), "enumerate", "--what", "mtuples", "--n", "2", "--k", "2", "--p", "1,1"])
    lines = path.read_text().strip().splitlines()
    assert sorted(lines) == ['[[1], [2]]', '[[2], [1]]']


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--cap", "10", "enumerate", "--what", "factorizations", "--n", "4", "--k", "2"], 3),
        (["enumerate", "--what", "mtuples", "--n", "3", "--k", "2", "--p", "1,1,1"], 2),
    ],
)
def test_enumerate_keeps_the_out_file_when_the_stream_fails(tmp_path, capsys, argv, code):
    path = tmp_path / "out"
    path.write_text("earlier data\n")
    assert main(["--out", str(path), *argv]) == code
    assert path.read_text() == "earlier data\n"
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_factorizations_rejects_p(capsys):
    argv = ["enumerate", "--what", "factorizations", "--n", "2", "--k", "2", "--p", "5,5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumerate --what factorizations takes no --p\n"


def test_puzzle_rejects_seed_without_sample(capsys):
    assert main(["puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--seed", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: puzzle takes --seed only with --sample\n"


def test_puzzle_sample_rejects_a_negative_seed(capsys):
    argv = ["puzzle", "--n", "6", "--k", "3", "--p", "2,3,4", "--sample", "5000", "--seed", "-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be at least 0, got -3\n"


def test_puzzle_sample_reports_seed_zero_by_default(capsys):
    argv = ["--format", "json", "puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--sample", "50"]
    code, out = run(capsys, *argv)
    assert code == 0
    code, seeded = run(capsys, *argv, "--seed", "0")
    assert json.loads(out)["results"][0]["seed"] == 0 and out == seeded


def test_render_constellation(capsys, tmp_path):
    from constellation_lab.constellations import from_permutations
    from oracles import from_cycles

    c = from_permutations(
        (from_cycles(2, [[1, 2]]), from_cycles(2, [])), root=1
    )
    path = tmp_path / "c.json"
    path.write_text(json.dumps(c.to_json()))
    code, out = run(capsys, "render", "--kind", "constellation", "--input", str(path))
    assert code == 0
    assert out.startswith("graph constellation {")


@pytest.mark.parametrize(
    "field, values, message",
    [
        # type 3 holds vertices 6, 7 and 8; every earlier type is decorated correctly
        ("labels", (1, 2, 1, 2, 3, 1, 1, 3), "labels of type 3 are not a bijection onto [3]"),
        ("colors", (1, 1, 1, 1, 1, 1, 3, 3), "colors of type 3 are not surjective"),
    ],
    ids=["labels", "colors"],
)
def test_render_constellation_checks_the_decorations_of_the_last_type(
    capsys, tmp_path, field, values, message
):
    c = from_permutations(
        (Permutation((2, 1, 4, 3)), Permutation((1, 3, 2, 4)), Permutation((4, 2, 3, 1))), root=2
    )
    assert c.vertex_type == (1, 1, 2, 2, 2, 3, 3, 3)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dataclasses.replace(c, **{field: values}).to_json()))
    assert main(["render", "--kind", "constellation", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_psi_cli_roundtrip(tmp_path, capsys):
    b = Bidding(
        omegas=(Permutation((1, 4, 3, 2)), Permutation((3, 2, 1, 4)), Permutation((4, 1, 3, 2))),
        subsets=(frozenset({2}), frozenset({2, 3}), frozenset({1, 2}), frozenset({2, 3})),
    )
    bidding_path = tmp_path / "bidding.json"
    bidding_path.write_text(json.dumps(b.to_json()))
    nebula_path = tmp_path / "nebula.json"
    code = main(["--out", str(nebula_path), "psi", "--direction", "inv", "--input", str(bidding_path)])
    assert code == 0
    code, out = run(capsys, "psi", "--direction", "fwd", "--input", str(nebula_path))
    assert code == 0
    assert json.loads(out) == b.to_json()


@pytest.mark.parametrize(
    "argv",
    [
        ["jackson-check", "--n", "3", "--k", "2", "--all-p"],
        ["--format", "json", "jackson-check", "--n", "3", "--k", "2", "--all-p"],
        ["symmetry-check", "--n", "3", "--k", "2"],
        ["roundtrip", "--bijection", "phi", "--n", "3", "--k", "2"],
        ["puzzle", "--n", "2", "--k", "3", "--p", "1,1,1"],
        ["puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--sample", "500", "--seed", "4"],
        ["count", "--what", "m", "--n", "4", "--k", "3", "--p", "2,3,1"],
        ["render", "--kind", "halfedge", "--input", "{nebula}"],
        ["psi", "--direction", "fwd", "--input", "{nebula}"],
    ],
    ids=["check-text", "check-json", "symmetry", "roundtrip", "puzzle", "puzzle-sample", "count",
         "render", "psi"],
)
def test_out_file_gets_the_bytes_stdout_gets(tmp_path, capsys, argv):
    nebula = tmp_path / "nebula.json"
    nebula.write_text(json.dumps(_labelled_nebula_json()))
    argv = [a.format(nebula=nebula) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "out.txt"
    assert main(["--out", str(path), *argv]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")


def test_puzzle_sample_accepting_no_trial_is_usage_error(capsys):
    code = main(["puzzle", "--n", "12", "--k", "4", "--p", "9,9,9,9", "--sample", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no trial of 100 accepted") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["jackson-check", "--all-p"],
        ["jackson-check", "--p", "1,1"],
        ["gf-check", "--all-x"],
        ["mv-check"],
        ["symmetry-check"],
        *(["roundtrip", "--bijection", b] for b in ("phi", "swap", "lambda", "theta", "sigma", "psi")),
        ["pointing-check"],
        ["pointing-check", "--p", "0,0"],
    ],
)
@pytest.mark.parametrize(
    "n, k, bad", [("0", "2", "n"), ("-1", "2", "n"), ("1", "0", "k"), ("2", "1", "k")]
)
def test_sweeps_reject_empty_size(capsys, argv, n, k, bad):
    # every sweep runs on the bijection chain: n >= 1 and k >= 2
    code = main([*argv, "--n", n, "--k", k])
    assert code == 2
    err = capsys.readouterr().err
    least, got = (1, n) if bad == "n" else (2, k)
    assert err == f"error: {bad} must be at least {least}, got {got}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3", "--k", "2", "--p", "1,1,1"], "--p gives 3 factors but --k is 2"),
        (["--n", "3", "--k", "3", "--p", "1,1"], "--p gives 2 factors but --k is 3"),
    ],
)
def test_jackson_check_p_must_match_k(capsys, argv, message):
    assert main(["jackson-check", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "3", "--k", "4", "--gamma", "3", "--gamma", "1,2"], "--gamma gives 2 factors but --k is 4"),
        (["--n", "4", "--k", "2", "--gamma", "3", "--gamma", "1,2"], "--gamma 3 sums to 3 but --n is 4"),
        (["--n", "2", "--k", "2", "--gamma", "1,1", "--gamma", "1,2"], "--gamma 1,2 sums to 3 but --n is 2"),
    ],
)
def test_mv_check_gamma_must_match_n_and_k(capsys, argv, message):
    assert main(["mv-check", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--colored", "--n", "3", "--k", "3", "--p", "1,2"], "--p gives 2 factors but --k is 3"),
        (["--compositions", "--n", "3", "--k", "3", "--gamma", "3", "--gamma", "1,2"], "--gamma gives 2 factors but --k is 3"),
        (["--compositions", "--n", "3", "--gamma", "3", "--gamma", "1,1"], "--gamma 1,1 sums to 2 but --n is 3"),
        (["--kappa", "--n", "4", "--lam", "3", "--lam", "1,2"], "--lam 3 sums to 3 but --n is 4"),
        (["--kappa", "--n", "3", "--k", "2", "--lam", "3", "--lam", "1,2", "--lam", "3"], "--lam gives 3 factors but --k is 2"),
    ],
)
def test_count_factor_data_must_match_n_and_k(capsys, argv, message):
    assert main(["count", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pointing-check", "--n", "2", "--k", "3", "--p", "1,1"], "--p gives 2 factors but --k is 3"),
        (
            ["roundtrip", "--bijection", "swap", "--n", "2", "--k", "2", "--p", "1,1,1"],
            "--p gives 3 factors but --k is 2",
        ),
        (
            ["roundtrip", "--bijection", "phi", "--n", "2", "--k", "3", "--p", "1,1"],
            "--p gives 2 factors but --k is 3",
        ),
        (["gf-check", "--n", "2", "--k", "2", "--x", "1,1,1"], "--x gives 3 factors but --k is 2"),
        (["puzzle", "--n", "3", "--k", "2", "--p", "1,2,3"], "--p gives 3 factors but --k is 2"),
        (
            ["puzzle", "--n", "3", "--k", "2", "--p", "1,2,3", "--sample", "10"],
            "--p gives 3 factors but --k is 2",
        ),
        (
            ["enumerate", "--what", "mtuples", "--n", "2", "--k", "2", "--p", "1,1,1"],
            "--p gives 3 factors but --k is 2",
        ),
    ],
)
def test_p_must_match_k(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roundtrip", "--bijection", "phi", "--p", "0,2"], "entries of p must be at least 1, got (0, 2)"),
        (["roundtrip", "--bijection", "swap", "--p", "0,2"], "entries of p must be at least 1, got (0, 2)"),
        (["roundtrip", "--bijection", "swap", "--p=-1,2"], "entries of p must be at least 1, got (-1, 2)"),
        (["pointing-check", "--p=-1,3"], "entries of p must be at least 0, got (-1, 3)"),
    ],
    ids=["phi-zero", "swap-zero", "swap-negative", "pointing-negative"],
)
def test_p_entries_out_of_range_are_usage_errors(capsys, argv, message):
    # not a vacuous pass over an empty domain, nor a leaked factorial() message
    assert main([*argv, "--n", "2", "--k", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("bijection", ["lambda", "theta", "sigma", "psi"])
def test_roundtrip_over_all_types_rejects_p(capsys, bijection):
    argv = ["roundtrip", "--bijection", bijection, "--n", "2", "--k", "2", "--p", "1,1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: roundtrip --bijection {bijection} takes no --p\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["jackson-check", "--p", "1,1", "--all-p"], "jackson-check takes --p or --all-p, not both"),
        (["gf-check", "--x", "1,1", "--all-x"], "gf-check takes --x or --all-x, not both"),
    ],
)
def test_one_point_and_all_points_exclude_each_other(capsys, argv, message):
    assert main([*argv, "--n", "2", "--k", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gf_check_requires_a_point(capsys):
    assert main(["gf-check", "--n", "2", "--k", "2"]) == 2
    assert capsys.readouterr().err == "error: gf-check requires --x or --all-x\n"


def test_puzzle_sample_rejects_bad_type_vector(capsys):
    code = main(["puzzle", "--n", "3", "--k", "2", "--p", "1,2,3", "--sample", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --p gives 3 factors but --k is 2\n"


def _labelled_nebula_json(darts=(), **fields):
    # vertex 0 holds darts 0 and 1, both black; ``fields`` override those of ``darts``
    b = Bidding(omegas=(Permutation((1, 2)), Permutation((2, 1))),
                subsets=(frozenset({1}), frozenset({2})))
    data = psi_inverse(b).to_json()
    for x in darts:
        data["half_edges"][x].update(fields)
    return data


# the rooted constellation with one hyperedge on two vertices
ONE_EDGE = {"k": 2, "n": 1, "hyperedges": [[1, 2]], "vertex_type": {"1": 1, "2": 2},
            "rotation": {"1": [1], "2": [1]}, "root": 1}


@pytest.mark.parametrize(
    "argv, data, key",
    [
        (["psi", "--direction", "inv"], {"omegas": [[1, 2], [2, 1]]}, "subsets"),
        (["psi", "--direction", "fwd"], {"k": 2, "half_edges": []}, "black_labels"),
        (["psi", "--direction", "fwd"], {"k": 2, "half_edges": [{"vertex": 0}]}, "half_edges"),
        (["render", "--kind", "constellation"], {"k": 2}, "vertex_type"),
        (["psi", "--direction", "inv"], {"omegas": [[1, 2], [2, 1]], "subsets": [["a"], [2]]},
         "subsets"),
        (["render", "--kind", "constellation"], {**ONE_EDGE, "root": "x"}, "root"),
        (["render", "--kind", "constellation"], {**ONE_EDGE, "k": "2"}, "k"),
        (["psi", "--direction", "fwd"], {**_labelled_nebula_json(), "black_labels": {"0": "a", "1": 2}},
         "black_labels"),
        # a vertex id far past the half-edges sizes nothing
        (["render", "--kind", "halfedge"], _labelled_nebula_json((0,), vertex=10**30), "half_edges"),
        # a color that is neither black nor white on every dart of a vertex,
        # and darts of one vertex that disagree
        (["psi", "--direction", "fwd"], _labelled_nebula_json((0, 1), color="x"), "half_edges"),
        (["psi", "--direction", "fwd"], _labelled_nebula_json((0,), color="white"), "half_edges"),
        # vertex 1 renumbered 7 leaves vertices 1 to 6 without a half-edge
        (["render", "--kind", "nebula"], _labelled_nebula_json((2, 3), vertex=7), "half_edges"),
        # nested lists where a constellation holds integers
        (["render", "--kind", "constellation"], {**ONE_EDGE, "hyperedges": [[[1], 2]]}, "hyperedges"),
        (["render", "--kind", "constellation"], {**ONE_EDGE, "rotation": {"1": [[1]], "2": [1]}},
         "rotation"),
        (["render", "--kind", "constellation"], {**ONE_EDGE, "colors": {"1": 1, "2": [1]}}, "colors"),
        # omega entries are integers: neither floats nor JSON true
        (["psi", "--direction", "inv"], {"omegas": [[1.0, 2.0], [2, 1]], "subsets": [[1], [2]]}, "omegas"),
        (["psi", "--direction", "inv"], {"omegas": [[True, 2], [2, 1]], "subsets": [[1], [2]]}, "omegas"),
        # int() reads each of these keys as 4, a white bud that already has a label
        *((["psi", "--direction", "fwd"],
           {**_labelled_nebula_json(), "white_bud_labels": {"4": 1, "7": 2, alias: 1}},
           "white_bud_labels")
          for alias in (" 4", "4 ", "04", "+4", "0_4", "\u0664")),
    ],
)
def test_json_input_missing_or_malformed_key_is_usage_error(tmp_path, capsys, argv, data, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code = main([*argv, "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value, message",
    [("twin", 99, "twin[0] is not a dart"),
     ("type", "x", "malformed key 'half_edges' (TypeError: expected an integer, got 'x')"),
     ("vertex", 10**30, f"malformed key 'half_edges' (ValueError: vertex ids must be 0..3, got {10**30})"),
     ("color", "x", "malformed key 'half_edges' (ValueError: color 'x' is not 'black' or 'white')")],
)
def test_psi_rejects_half_edges_out_of_range_or_not_integers(tmp_path, capsys, field, value, message):
    data = _labelled_nebula_json()
    data["half_edges"][0][field] = value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["psi", "--direction", "fwd", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_render_validates_halfedge_and_nebula_input(tmp_path, capsys):
    # the dual of the one-hyperedge constellation is a valid half-edge map
    # with two faces, so it is not a nebula
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dual(Constellation.from_json(ONE_EDGE), ()).to_json()))
    code, out = run(capsys, "render", "--kind", "halfedge", "--input", str(path))
    assert code == 0 and out.startswith("graph")
    assert main(["render", "--kind", "nebula", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: nebula must have a single face, found 2\n"

    data = _labelled_nebula_json()
    path.write_text(json.dumps(data))
    code, out = run(capsys, "render", "--kind", "nebula", "--input", str(path))
    assert code == 0 and out.startswith("graph")
    data["half_edges"][0]["twin"] = 99
    path.write_text(json.dumps(data))
    assert main(["render", "--kind", "halfedge", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: twin[0] is not a dart\n"


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["count", "--m", "--n", "2", "--k", "2", "--p", "1,1"]) == 0
        assert main(["puzzle", "--n", "2", "--k", "3", "--p", "1,1,1"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_main_reads_the_command_line_when_given_no_argv(capsys, monkeypatch):
    argv = ["count", "--m", "--n", "2", "--k", "2", "--p", "1,1"]
    monkeypatch.setattr(sys, "argv", ["constellation-lab", *argv])
    assert main() == 0
    assert capsys.readouterr().out == "M^2_1,1 = 2\nok: true\n"


def test_cap_env_var_is_read_on_each_call(capsys, monkeypatch):
    argv = ["--format", "json", "jackson-check", "--n", "2", "--k", "2", "--p", "1,1"]
    monkeypatch.setenv("CONSTELLATION_LAB_CAP", "1")
    assert main(argv) == 3
    monkeypatch.delenv("CONSTELLATION_LAB_CAP")
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["cap"] == 10**8


def test_invalid_cap_env_var_is_usage_error_even_with_cap_flag(capsys, monkeypatch):
    monkeypatch.setenv("CONSTELLATION_LAB_CAP", "abc")
    code = main(["--cap", "5", "count", "--m", "--n", "2", "--k", "2", "--p", "1,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CONSTELLATION_LAB_CAP") and err.count("\n") == 1


def test_usage_error_does_not_break_the_next_call(capsys):
    with pytest.raises(SystemExit):
        main(["puzzle", "--n", "2", "--k", "3", "--p", "x"])
    code, out = run(capsys, "puzzle", "--n", "2", "--k", "3", "--p", "1,1,1")
    assert code == 0 and "1/2" in out


def test_repeated_options_do_not_carry_over_between_calls(capsys):
    argv = ["count", "--compositions", "--n", "2", "--gamma", "1,1", "--gamma", "2"]
    code, first = run(capsys, *argv)
    assert code == 0
    _, second = run(capsys, *argv)
    assert first == second
    assert main(["count", "--compositions", "--n", "2"]) == 2


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
# argv tokens for the parse fuzz: global options before and after the
# subcommand, abbreviations, help, "--", unknown options, missing values, and
# negative or comma-joined numbers; each entry is one or two tokens
FUZZ_TOKENS = [
    ["--cap", "5"], ["--cap=5"], ["--cap", "x"], ["--cap"], ["--ca", "7"], ["--format", "json"],
    ["--form", "json"], ["--format=text"], ["--format", "xml"], ["--out", "f.txt"], ["--o", "f"],
    ["--n", "3"], ["--n=4"], ["--n", "-2"], ["--n", "x"], ["--n"], ["--k", "2"], ["--k=3"],
    ["--p", "1,2"], ["--p=-1,3"], ["--p", "-1"], ["--p", "1,,2"], ["--p", "a,b"], ["--all-p"],
    ["--all"], ["--x", "1,1"], ["--all-x"], ["--gamma", "1,2"], ["--gam", "3"], ["--lam", "3"],
    ["--what", "m"], ["--what", "factorizations"], ["--m"], ["--colored"], ["--bijection", "phi"],
    ["--bij", "psi"], ["--sample", "10"], ["--seed", "-3"], ["--direction", "fwd"],
    ["--input", "f.json"], ["--kind", "nebula"], ["--format", "dot"], ["-h"], ["--help"], ["--"],
    ["--bogus"], ["--bogus=1"], ["-x"], ["-"], ["extra"], ["-5"], ["--=x"], ["--=5"],
]
GLOBAL_TOKENS = [["--cap", "5"], ["--cap=5"], ["--form", "json"], ["--format", "text"],
                 ["--out", "f.txt"], ["-h"], ["--"], ["--bogus"], ["--cap"]]


def _parse_outcome(parse, argv):
    """vars of the namespace, or the exit code and output of argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _fuzz_argvs(rng, count):
    commands = list(cli._parser().subcommands)
    argvs = []
    for _ in range(count):
        argv = []
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            argv += rng.choice(GLOBAL_TOKENS)
        roll = rng.random()
        if roll < 0.9:
            argv.append(rng.choice(commands))
        elif roll < 0.95:
            argv.append(rng.choice(["cou", "jackson", "-h", "nope"]))
        for _ in range(rng.randrange(7)):
            argv += rng.choice(FUZZ_TOKENS)
        argvs.append(argv)
    return argvs


def test_direct_dispatch_parses_as_the_full_parser(monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS)
    monkeypatch.setenv("COLUMNS", "80")
    import cli_digest

    argvs = [[]]
    for argv in [*cli_digest.SWEEPS, *cli_digest.EXTRA]:
        argvs += [argv, ["--format", "json", *argv], [*argv, "--format", "json"]]
    argvs += _fuzz_argvs(random.Random(35), 1500)
    parser = cli._parser()
    full = parser.parse_args
    calls = []
    monkeypatch.setattr(parser, "parse_args", lambda argv: calls.append(argv) or full(argv))
    direct = namespaces = 0
    for argv in argvs:
        calls.clear()
        got = _parse_outcome(cli._parse_args, argv)
        direct += not calls
        assert got == _parse_outcome(full, argv), argv
        namespaces += isinstance(got, dict)
    # both routes and both outcomes are exercised
    assert 0 < direct < len(argvs) and 0 < namespaces < len(argvs)


def _random_text(rng):
    return "".join(rng.choice('ab "\\/\n\t\x00\x1f\x7fé€\U0001f600') for _ in range(rng.randrange(5)))


def _random_json(rng, depth):
    """A random payload: scalars, and below depth 4 also lists, tuples, dicts
    keyed by strings and dicts keyed by ints."""
    kind = rng.randrange(12 if depth < 4 else 8)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 7, 2**70, -(3**50)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 0.1, -2.5e-300, 1e300, float("inf"), float("nan")])
    if kind < 8:
        return _random_text(rng)
    items = [_random_json(rng, depth + 1) for _ in range(rng.choice((0, 1, 3)))]
    if kind == 8:
        return items
    if kind == 9:
        return tuple(items)
    if kind == 10:
        return {_random_text(rng): v for v in items}
    return {rng.choice([-3, 0, 5, 10, 2**65]): v for v in items}


def _written(payload):
    out = io.StringIO()
    cli._write_json(out, payload)
    return out.getvalue()


def test_json_writer_writes_the_bytes_of_json_dumps(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(SCRIPTS)
    import cli_digest

    payloads = []
    original = cli._write_json

    def recorded(out, payload):
        payloads.append(payload)
        original(out, payload)

    monkeypatch.setattr(cli, "_write_json", recorded)
    cli_digest.write_inputs(str(tmp_path))
    for argv in [*cli_digest.SWEEPS, *cli_digest.EXTRA]:
        cli_digest.digest(argv, "json", str(tmp_path))
    monkeypatch.undo()
    # every command that reports writes, and so does psi, with no schema key
    reports = set(cli._parser().subcommands) - {"enumerate", "render", "psi"}
    assert {p.get("command") for p in payloads} == reports | {None}
    rng = random.Random(35)
    payloads += [_random_json(rng, 0) for _ in range(3000)]
    for payload in payloads:
        assert _written(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
