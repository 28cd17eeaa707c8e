import itertools
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    color_composition_count_by_census,
    color_compositions,
    colored_count_by_census,
    cycle_type_census_by_stream,
    gf_left_side_by_census,
    identity,
    partitions_of,
    subset_type,
)

from constellation_lab import counting
from constellation_lab.counting import (
    DEFAULT_CAP,
    CapExceededError,
    ColoredFactorization,
    color_composition_counts,
    count_by_color_compositions,
    count_colored,
    count_kappa,
    cycle_type_census,
    enumerate_colored_factorizations,
    enumerate_factorizations,
    m_coefficient,
    m_tuples,
    strict_subsets,
    surjection_count,
    verify_gf_identity,
    verify_jackson,
    verify_mv_formula,
)
from constellation_lab.permutations import (
    Composition,
    Permutation,
    all_permutations,
    compose_all,
    compositions_of,
    cycle_type,
    cycles,
    long_cycle,
)

# the exhaustive grid of acceptance criterion 3
CRITERION_3_GRID = [(n, 2) for n in range(1, 5)] + [(n, 3) for n in range(1, 4)]
# the grids of the census-side sweeps: k=2 n<=5, k=3 n<=4, k=4 n<=3
CENSUS_GRID = [(n, k) for k, n_max in ((2, 5), (3, 4), (4, 3)) for n in range(1, n_max + 1)]


def test_factorizations_n2_k2():
    got = list(enumerate_factorizations(2, 2))
    swap = Permutation((2, 1))
    assert got == [(swap, identity(2)), (identity(2), swap)]


def test_factorizations_counts_and_products():
    assert sum(1 for _ in enumerate_factorizations(3, 2)) == 6
    tuples = list(enumerate_factorizations(3, 3))
    assert len(tuples) == 36
    assert all(compose_all(list(t)) == long_cycle(3) for t in tuples)


def test_factorization_stream_duplicate_free():
    for n, k in [(3, 2), (2, 3), (3, 3)]:
        seen = set(enumerate_factorizations(n, k))
        assert len(seen) == factorial(n) ** (k - 1)


def test_cap_guard():
    with pytest.raises(CapExceededError):
        list(enumerate_factorizations(6, 3, cap=1000))
    with pytest.raises(CapExceededError):
        list(m_tuples(4, 3, cap=10))


def test_count_colored_examples():
    assert count_colored(3, (1, 1)) == 6
    assert count_colored(2, (1, 2)) == 2
    assert count_colored(3, (1, 4)) == 0  # more colors than elements


def test_count_colored_base_case_formula():
    # p_1 = 1: closed form n!^(k-1) * prod binom(n-1, p_t - 1)
    for n, k in [(3, 2), (4, 2), (3, 3)]:
        for rest in itertools.product(range(1, n + 1), repeat=k - 1):
            p = (1,) + rest
            expected = factorial(n) ** (k - 1)
            for pt in rest:
                expected *= comb(n - 1, pt - 1)
            assert count_colored(n, p) == expected


def test_count_colored_matches_direct_enumeration():
    for n, k in CRITERION_3_GRID:
        for p in itertools.product(range(1, n + 2), repeat=k):
            direct = sum(1 for _ in enumerate_colored_factorizations(n, k, p))
            assert count_colored(n, p) == direct


def test_cycle_type_census_is_memoized_and_read_only():
    census = cycle_type_census(3, 2)
    assert cycle_type_census(3, 2) is census
    assert sum(census.values()) == factorial(3)
    with pytest.raises(TypeError):
        census[((3,), (1, 1, 1))] = 0
    # a smaller cap is a separate entry, checked before anything is walked
    with pytest.raises(CapExceededError):
        cycle_type_census(3, 2, 5)
    assert cycle_type_census(3, 2, 6) == census


@pytest.mark.parametrize(
    "n, k",
    [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 5)] + [(n, 4) for n in range(1, 4)]
    + [(5, 3), (4, 4)],
)
def test_cycle_type_census_matches_the_factorization_stream(n, k):
    # same keys, counts and key order as typing every streamed factorization
    got = cycle_type_census(n, k)
    assert list(got.items()) == list(cycle_type_census_by_stream(n, k).items())
    assert sum(got.values()) == factorial(n) ** (k - 1)


def test_cycle_type_census_checks_arguments_and_cap_before_its_tables(monkeypatch):
    def no_tables(n):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, "all_permutations", no_tables)
    for n, k, message in [
        (0, 2, "n must be at least 1, got 0"),
        (3, 1, "k must be at least 2, got 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            cycle_type_census(n, k)
    with pytest.raises(CapExceededError, match="enumeration of 576 tuples exceeds cap 575"):
        cycle_type_census(4, 3, 575)


def test_cycle_type_census_memo_key_is_normalised():
    counting._census.cache_clear()
    try:
        census = cycle_type_census(3, 2)
        assert cycle_type_census(3, 2, DEFAULT_CAP) is census
        assert cycle_type_census(n=3, k=2) is census
        info = counting._census.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        # the memo is keyed by (n, k): a smaller cap is refused before it,
        # and adds no entry
        with pytest.raises(CapExceededError):
            cycle_type_census(3, 2, 5)
        info = counting._census.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    finally:
        counting._census.cache_clear()


def test_colored_factorization_validation():
    cf = next(enumerate_colored_factorizations(3, 2, (2, 1)))
    assert cf.validate() is None
    bad = ColoredFactorization(perms=cf.perms, colorings=(cf.colorings[0], (1, 1, 2)))
    assert bad.validate() is not None


def test_compositions_sum_to_colored_count():
    n, k = 4, 2
    for p in itertools.product(range(1, n + 1), repeat=k):
        total = 0
        from constellation_lab.permutations import compositions_of_length

        for gammas in itertools.product(
            *(list(compositions_of_length(n, pt)) for pt in p)
        ):
            total += count_by_color_compositions(list(gammas))
        assert total == count_colored(n, p)


def test_compositions_trivial_cases():
    for n, k in [(3, 2), (3, 3)]:
        gammas = [Composition((n,))] * k
        assert count_by_color_compositions(gammas) == factorial(n) ** (k - 1)


def test_compositions_fig3_symmetry_pair():
    a = count_by_color_compositions(
        [Composition((1, 4)), Composition((5,)), Composition((2, 1, 2))]
    )
    b = count_by_color_compositions(
        [Composition((4, 1)), Composition((5,)), Composition((2, 2, 1))]
    )
    assert a == b and a > 0


def test_composition_counts_depend_only_on_length_profile():
    from constellation_lab.permutations import compositions_of

    for n, k in CRITERION_3_GRID:
        census = {}
        for p in itertools.product(range(1, n + 1), repeat=k):
            for cf in enumerate_colored_factorizations(n, k, p):
                key = tuple(g.parts for g in color_compositions(cf))
                census[key] = census.get(key, 0) + 1
        by_profile = {}
        for key, cnt in census.items():
            by_profile.setdefault(tuple(len(g) for g in key), set()).add(cnt)
        assert all(len(v) == 1 for v in by_profile.values())
        # the census-based count agrees with the enumeration on every tuple
        for gammas in itertools.product(list(compositions_of(n)), repeat=k):
            key = tuple(g.parts for g in gammas)
            assert count_by_color_compositions(gammas) == census.get(key, 0)


@pytest.mark.parametrize("n, k", CENSUS_GRID)
def test_color_composition_counts_match_the_per_tuple_census_sum(n, k):
    comps = list(compositions_of(n))
    counts = color_composition_counts([comps] * k)
    assert 0 not in counts.values()
    for gammas in itertools.product(comps, repeat=k):
        expected = color_composition_count_by_census(gammas)
        key = tuple(g.parts for g in gammas)
        assert counts.get(key, 0) == expected
        assert count_by_color_compositions(gammas) == expected
    # a subset of the compositions on each axis reads the same counts
    halves = [comps[t % 2 :: 2] or comps for t in range(k)]
    for key, count in color_composition_counts(halves).items():
        assert counts[key] == count
    # each colored factorization has one tuple of color compositions
    assert sum(counts.values()) == sum(
        count_colored(n, p) for p in itertools.product(range(1, n + 1), repeat=k)
    )


@pytest.mark.parametrize("n, k", CENSUS_GRID)
def test_cycle_number_sums_match_the_sums_over_cycle_types(n, k):
    for p in itertools.product(range(1, n + 1), repeat=k):
        assert count_colored(n, p) == colored_count_by_census(n, p)
    for xs in itertools.product(range(4), repeat=k):
        assert verify_gf_identity(n, k, xs).lhs == gf_left_side_by_census(n, xs)


def test_color_composition_counts_check_size_then_arguments_then_cap():
    one, two = Composition((1,)), Composition((1, 1))
    with pytest.raises(ValueError, match="^compositions must all have the same size$"):
        color_composition_counts([[one, two]])
    with pytest.raises(ValueError, match="^k must be at least 2, got 0$"):
        color_composition_counts([])
    with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
        color_composition_counts([[two]])
    with pytest.raises(CapExceededError, match="^enumeration of 6 tuples exceeds cap 5$"):
        color_composition_counts([list(compositions_of(3))] * 2, cap=5)
    # an empty axis leaves no tuple to count
    assert color_composition_counts([[two], []]) == {}
    # with no composition on any axis there is no size, which counts as 0
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        color_composition_counts([[], []])


def test_color_composition_counts_check_that_each_cycle_type_sums_to_n(monkeypatch, capsys):
    from constellation_lab.cli import main

    # a census key whose first cycle type sums to 2, not n = 3: its cycles
    # would fill the quota 3 short and count as an assignment at the leaf
    monkeypatch.setattr(counting, "cycle_type_census", lambda n, k, cap=None: {((2,), (3,)): 1})
    three = Composition((3,))
    with pytest.raises(AssertionError, match=r"^cycle type \(2,\) of the census does not sum to 3$"):
        color_composition_counts([[three], [three]])
    argv = ["count", "--compositions", "--n", "3", "--gamma", "3", "--gamma", "3"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal check failed: cycle type (2,) of the census does not sum to 3\n"


def test_kappa_examples():
    for n in (2, 3, 4):
        ln = Composition((n,))
        ones = Composition((1,) * n)
        assert count_kappa([ln, ones]) == 1
    # every k-tuple of permutations, kept when its product is the long cycle
    for n, k in CRITERION_3_GRID:
        direct = {}
        for perms in itertools.product(list(all_permutations(n)), repeat=k):
            if compose_all(list(perms)) == long_cycle(n):
                key = tuple(cycle_type(q) for q in perms)
                direct[key] = direct.get(key, 0) + 1
        for lams in itertools.product(list(partitions_of(n)), repeat=k):
            assert count_kappa(lams) == direct.get(lams, 0)
            # a cycle type given in increasing order is the same type
            assert count_kappa([Composition(l.parts[::-1]) for l in lams]) == direct.get(lams, 0)
    assert count_kappa([Composition((2,)), Composition((2,))]) == 0
    for n, k in [(3, 2), (3, 3)]:
        total = sum(
            count_kappa(list(lams))
            for lams in itertools.product(list(partitions_of(n)), repeat=k)
        )
        assert total == factorial(n) ** (k - 1)


def test_refined_counts_reject_an_empty_list_before_indexing():
    with pytest.raises(ValueError, match="k must be at least 2, got 0"):
        count_kappa([])
    with pytest.raises(ValueError, match="k must be at least 2, got 0"):
        verify_mv_formula([])
    with pytest.raises(ValueError, match="k must be at least 2, got 0"):
        count_by_color_compositions([])


def test_surjection_count_against_enumeration():
    for m in range(0, 5):
        for p in range(0, 5):
            direct = sum(
                1
                for assign in itertools.product(range(1, p + 1), repeat=m)
                if set(assign) == set(range(1, p + 1))
            )
            assert surjection_count(m, p) == direct


def test_m_coefficient_examples():
    assert m_coefficient(0, (0, 0)) == 1
    assert m_coefficient(3, (0, 0)) == 1  # all subsets empty
    assert m_coefficient(2, (1, 1)) == 2
    assert m_coefficient(2, (1, 1, 1)) == 6


def _poly_mul(a, b, bound):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > bx for x, bx in zip(e, bound)):
                continue
            out[e] = out.get(e, 0) + ca * cb
    return out


def m_by_polynomial(n, p):
    """[x^p] (prod(1+x_t) - prod(x_t))^n by explicit polynomial expansion."""
    k = len(p)
    base = {}
    for mask in range(2**k - 1):  # the full mask is the subtracted prod(x_t)
        e = tuple(1 if mask & (1 << t) else 0 for t in range(k))
        base[e] = 1
    result = {(0,) * k: 1}
    for _ in range(n):
        result = _poly_mul(result, base, p)
    return result.get(p, 0)


def test_m_coefficient_three_way_agreement():
    # closed form == tuple enumeration == polynomial expansion over the
    # acceptance grid, with zeros, entries above n and negative entries
    checked = 0
    for k, nmax in [(2, 6), (3, 4), (4, 3)]:
        for n in range(0, nmax + 1):
            for p in itertools.product(range(-1, n + 2), repeat=k):
                closed = m_coefficient(n, p)
                assert closed == m_by_polynomial(n, p), (n, p)
                if min(p) < 0:
                    assert closed == 0
                    with pytest.raises(ValueError):
                        next(m_tuples(n, k, p))
                else:
                    assert closed == sum(1 for _ in m_tuples(n, k, p)), (n, p)
                checked += 1
    assert checked == 3313


def test_m_coefficient_rejects_invalid_arguments():
    # total in n and the entries of p, since Jackson's and Morales-Vassilieva's
    # right sides read it at n-1 and p-1; only k = len(p) is checked
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        m_coefficient(2, ())
    assert m_coefficient(-1, (0, 0)) == 0
    assert m_coefficient(2, (1, -1)) == 0


def test_m_coefficient_beyond_enumeration():
    # n = k subsets of type (k-1,...,k-1) each miss exactly one type, a
    # different one each time: k! tuples
    for k in (2, 3, 4, 5):
        assert m_coefficient(k, (k - 1,) * k) == factorial(k)
    # summed over all types, M counts every tuple: (2^k - 1)^n, past the cap
    n, k = 12, 3
    assert sum(
        m_coefficient(n, p) for p in itertools.product(range(n + 1), repeat=k)
    ) == (2**k - 1) ** n
    assert m_coefficient(200, (0, 0, 0, 0)) == 1


def test_m_tuples_stream_counts_and_types():
    for mt in m_tuples(2, 3, (1, 1, 1)):
        assert subset_type(3, mt.subsets) == (1, 1, 1)
    assert sum(1 for _ in m_tuples(2, 3)) == 7**2
    seen = set(mt.subsets for mt in m_tuples(3, 2))
    assert len(seen) == 27


@pytest.mark.parametrize("k", range(1, 6))
def test_strict_subsets_are_one_tuple_per_k_in_bitmask_order(k):
    subsets = strict_subsets(k)
    assert subsets is strict_subsets(k)
    assert type(subsets) is tuple
    assert [sum(1 << (t - 1) for t in s) for s in subsets] == list(range(2**k - 1))
    assert all(type(s) is frozenset and s <= set(range(1, k + 1)) for s in subsets)


def test_m_tuples_matches_filtered_product_in_order():
    # the pruned search yields exactly the filtered full product, in order
    checked = 0
    for k, nmax in [(2, 6), (3, 4), (4, 3)]:
        subsets = strict_subsets(k)
        for n in range(0, nmax + 1):
            by_type: dict = {}
            for tup in itertools.product(subsets, repeat=n):
                by_type.setdefault(subset_type(k, tup), []).append(tup)
            for p in itertools.product(range(0, n + 2), repeat=k):
                assert [mt.subsets for mt in m_tuples(n, k, p)] == by_type.get(p, []), (n, p)
                checked += 1
            assert [mt.subsets for mt in m_tuples(n, k)] == list(
                itertools.product(subsets, repeat=n)
            )
    assert checked == 1621


@settings(deadline=None)
@given(st.integers(0, 3), st.permutations([0, 1, 2]))
def test_m_coefficient_symmetric(n, perm):
    p = (0, 1, 2)
    permuted = tuple(p[i] for i in perm)
    assert m_coefficient(n, p) == m_coefficient(n, permuted)


def test_m_coefficient_symmetric_k4():
    for n in (2, 3, 4):
        for p in [(0, 1, 1, 2), (1, 1, 2, 3), (0, 0, 2, 2)]:
            base = m_coefficient(n, p)
            for perm in itertools.permutations(p):
                assert m_coefficient(n, perm) == base


def test_verify_jackson_examples():
    r = verify_jackson(2, (1, 2))
    assert r.equal and r.lhs == 2 and r.rhs == 2
    r = verify_jackson(3, (1, 1))
    assert r.equal and r.lhs == 6
    assert verify_jackson(4, (2, 2)).equal


def test_verify_gf_identity_examples():
    r = verify_gf_identity(3, 2, (1, 1))
    assert r.equal and r.lhs == 6  # all-ones point equals n!^(k-1)
    assert verify_gf_identity(3, 2, (2, 2)).equal
    assert verify_gf_identity(2, 3, (2, 1, 3)).equal


def test_binomial_telescoping_to_cycle_count_sum():
    # sum over p of C^n_p * prod binom(x_t, p_t) equals the raw cycle-count
    # generating sum, independently of the closed form
    for n, k in [(3, 2), (2, 3)]:
        for xs in itertools.product((0, 1, 2, 3), repeat=k):
            lhs = sum(
                _int_prod(x ** len(cycles(q)) for x, q in zip(xs, perms))
                for perms in enumerate_factorizations(n, k)
            )
            rhs = 0
            for p in itertools.product(range(1, n + 1), repeat=k):
                rhs += count_colored(n, p) * _int_prod(
                    comb(x, pt) for x, pt in zip(xs, p)
                )
            assert lhs == rhs


def _int_prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def test_verify_mv_trivial_and_small_sweep():
    assert verify_mv_formula([Composition((3,)), Composition((3,))]).equal
    from constellation_lab.permutations import compositions_of

    for n in (3, 4):
        comps = list(compositions_of(n))
        for gs in itertools.product(comps, repeat=2):
            assert verify_mv_formula(list(gs)).equal


def test_verify_mv_worked_composition_triple():
    # the (2,1,3)-colored size-5 example with color sizes (1,4), (5), (2,1,2)
    r = verify_mv_formula(
        [Composition((1, 4)), Composition((5,)), Composition((2, 1, 2))]
    )
    assert r.equal
