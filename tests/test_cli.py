import itertools
import json
from math import comb, prod

import pytest

from constellation_lab.biddings import Bidding, psi_inverse
from constellation_lab.constellations import Constellation, dual
from constellation_lab import cli, counting, nebulas
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
    walks = []
    original = counting.enumerate_factorizations

    def counted(*args, **kwargs):
        walks.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(counting, "enumerate_factorizations", counted)
    counting.cycle_type_census.cache_clear()
    try:
        assert main(["jackson-check", "--n", "3", "--k", "2", "--all-p"]) == 0
        assert main(["mv-check", "--n", "3", "--k", "2"]) == 0
        assert main(["gf-check", "--n", "3", "--k", "2", "--all-x"]) == 0
        assert main(["symmetry-check", "--n", "3", "--k", "2"]) == 0
    finally:
        counting.cycle_type_census.cache_clear()
    assert walks == [(3, 2)]


def test_roundtrip_commands(capsys):
    for bijection in ("phi", "swap", "lambda", "theta", "sigma", "psi"):
        code, out = run(capsys, "roundtrip", "--bijection", bijection, "--n", "2", "--k", "2")
        assert code == 0
        assert "0 failures" in out


def test_symmetry_check(capsys):
    code, out = run(capsys, "symmetry-check", "--n", "3", "--k", "2")
    assert code == 0
    assert "MISMATCH" not in out


@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_symmetry_check_groups_the_enumerated_composition_census(capsys, n, k):
    census = {}
    for p in itertools.product(range(1, n + 1), repeat=k):
        for cf in counting.enumerate_colored_factorizations(n, k, p):
            key = tuple(g.parts for g in cf.color_compositions())
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


def test_render_constellation(capsys, tmp_path):
    from constellation_lab.constellations import from_permutations
    from constellation_lab.permutations import from_cycles

    c = from_permutations(
        (from_cycles(2, [[1, 2]]), from_cycles(2, [])), root=1
    )
    path = tmp_path / "c.json"
    path.write_text(json.dumps(c.to_json()))
    code, out = run(capsys, "render", "--kind", "constellation", "--input", str(path))
    assert code == 0
    assert out.startswith("graph constellation {")


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
@pytest.mark.parametrize("n, k, bad", [("0", "2", "n"), ("-1", "2", "n"), ("1", "0", "k")])
def test_sweeps_reject_empty_size(capsys, argv, n, k, bad):
    code = main([*argv, "--n", n, "--k", k])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad} must be at least 1, got {n if bad == 'n' else k}\n"


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
    ],
)
def test_p_must_match_k(capsys, argv, message):
    assert main(argv) == 2
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
    assert err == "error: bad type vector\n"


def _labelled_nebula_json():
    b = Bidding(omegas=(Permutation((1, 2)), Permutation((2, 1))),
                subsets=(frozenset({1}), frozenset({2})))
    return psi_inverse(b).to_json()


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
     ("type", "x", "malformed key 'half_edges' (TypeError: expected an integer, got 'x')")],
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
    path.write_text(json.dumps(dual(Constellation.from_json(ONE_EDGE)).to_json()))
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
