import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from oracles import (
    event_probability_naive,
    exchange_counts_by_pairs,
    k3_sum_by_fractions,
    tree_probability_by_tuples,
)

from constellation_lab.biddings import alpha_graph
from constellation_lab.cli import main
from constellation_lab.counting import (
    CapExceededError,
    count_colored,
    m_coefficient,
    m_tuples,
    strict_subsets,
)
from constellation_lab.puzzle import (
    SamplingError,
    UndefinedProbabilityError,
    _CHUNK,
    _SAMPLED_TYPES,
    _count_below,
    _next_subset_weights,
    _sampler_states,
    _subset_multisets,
    event_probability,
    r1_probability,
    ratio,
    sample_puzzle,
    tree_probability,
    verify_exchange_lemma,
    verify_k3_inclusion_exclusion,
    verify_puzzle,
)


def feasible_types(n, k):
    for p in itertools.product(range(0, n + 1), repeat=k):
        if m_coefficient(n, p):
            yield p


def test_ratio_prints_lowest_terms_with_a_denominator():
    assert ratio(Fraction(4, 8)) == "1/2"
    assert ratio(Fraction(0, 5)) == "0/1"
    assert ratio(Fraction(1)) == "1/1"
    assert ratio(tree_probability(2, 2, (1, 1))) == "1/1"


def test_event_probability_rejects_empty_size():
    # n^m index tuples would be a zero denominator
    for constraints in ([], [{1}], [{1}, {2}]):
        with pytest.raises(ValueError, match="n must be at least 1"):
            event_probability(constraints, 0, 3, (0, 0, 0))


def test_tree_probability_examples():
    assert tree_probability(2, 2, (1, 1)) == Fraction(1, 1)
    assert tree_probability(2, 3, (1, 1, 1)) == Fraction(1, 2)
    with pytest.raises(UndefinedProbabilityError):
        tree_probability(2, 3, (3, 3, 0))


def test_r1_probability_examples():
    assert r1_probability(2, 2, (1, 1)) == Fraction(1, 1)
    assert r1_probability(2, 3, (1, 1, 1)) == Fraction(1, 2)
    assert r1_probability(3, 2, (0, 0)) == Fraction(0, 1)


def test_r1_probability_matches_enumeration():
    # the closed-form count against the share of enumerated tuples with
    # |R_1| = k-1, over the criterion-7 grid
    checked = 0
    for k, nmax in [(2, 6), (3, 4), (4, 3)]:
        for n in range(1, nmax + 1):
            for p in feasible_types(n, k):
                tuples = list(m_tuples(n, k, p))
                hits = sum(1 for mt in tuples if len(mt.subsets[0]) == k - 1)
                assert r1_probability(n, k, p) == Fraction(hits, len(tuples))
                checked += 1
    assert checked == 604
    with pytest.raises(UndefinedProbabilityError):
        r1_probability(2, 3, (3, 3, 0))


def test_tree_probability_matches_index_tuple_oracle():
    # the successor-grouped count against one successor graph per index tuple
    def by_index_tuples(n, k, p):
        hits = total = 0
        for mt in m_tuples(n, k, p):
            total += 1
            for indices in itertools.product(range(1, n + 1), repeat=k - 1):
                hits += alpha_graph(indices, mt.subsets, k).is_tree()
        return Fraction(hits, n ** (k - 1) * total)

    cases = [(n, k, p) for k, nmax in [(2, 6), (3, 4), (4, 3)]
             for n in range(1, nmax + 1) for p in feasible_types(n, k)]
    assert len(cases) == 604
    cases += [(n, 1, (0,)) for n in (1, 2, 3)]
    cases += [(5, 4, p) for p in [(1, 0, 1, 1), (0, 2, 1, 1), (2, 1, 0, 3)]]
    for n, k, p in cases:
        assert tree_probability(n, k, p) == by_index_tuples(n, k, p), (n, k, p)


def test_tree_probability_keeps_cap_and_errors():
    with pytest.raises(CapExceededError):
        tree_probability(6, 4, (3, 3, 3, 3), cap=1000)
    for n, k, p in [(3, 2, (1, 2, 3)), (3, 2, (1, -1)), (3, 0, ())]:
        with pytest.raises(ValueError):
            tree_probability(n, k, p)
    # k=9, n=2: at most 2^8 successor maps per tuple are tested, not all 9^8
    assert tree_probability(2, 9, (1,) * 9) == r1_probability(2, 9, (1,) * 9)


def _criterion7_and_n5_k4_types():
    # the 604 criterion-7 types, and the n=5, k=4 types with 100-160 tuples
    cases = [(n, k, p) for k, nmax in [(2, 6), (3, 4), (4, 3)]
             for n in range(1, nmax + 1) for p in feasible_types(n, k)]
    cases += [(5, 4, p) for p in feasible_types(5, 4) if 100 <= m_coefficient(5, p) <= 160]
    return cases


def test_subset_multisets_group_the_tuples_by_sorted_arrangement():
    cases = _criterion7_and_n5_k4_types()
    assert len(cases) > 604
    for n, k, p in cases:
        by_multiset = Counter(
            tuple(sorted(sum(1 << (t - 1) for t in s) for s in mt.subsets))
            for mt in m_tuples(n, k, p)
        )
        walked = list(_subset_multisets(n, k, p))
        sorted_masks = [
            tuple(mask for mask, c in counts for _ in range(c)) for counts, _ in walked
        ]
        assert len(set(sorted_masks)) == len(walked), (n, k, p)
        assert dict(zip(sorted_masks, (w for _, w in walked))) == by_multiset, (n, k, p)
        assert sum(w for _, w in walked) == m_coefficient(n, p), (n, k, p)


def test_subset_multisets_keep_the_cap_and_errors_of_m_tuples():
    def cap_hit(walk, *args):
        try:
            list(walk(*args))
        except CapExceededError:
            return True
        return False

    for n, k in [(0, 1), (1, 1), (3, 2), (4, 3), (5, 4)]:
        size = (2**k - 1) ** n
        for cap in (size - 1, size):
            args = (n, k, (n // 2,) * k, cap)
            assert cap_hit(_subset_multisets, *args) == cap_hit(m_tuples, *args) == (cap < size)
    for n, k, p in [(3, 0, ()), (-1, 2, (0, 0)), (3, 2, (1, 2, 3)), (3, 2, (1, -1))]:
        with pytest.raises(ValueError) as expected:
            list(m_tuples(n, k, p))
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            list(_subset_multisets(n, k, p))
    assert list(_subset_multisets(2, 3, (3, 3, 0))) == []


def test_subset_multisets_raise_at_the_call_before_any_multiset():
    # tree_probability counts on this: a bad k, p or cap fails before it
    # builds the successor rows of k
    with pytest.raises(CapExceededError, match="exceeds cap 10"):
        _subset_multisets(5, 4, (2, 2, 2, 2), 10)
    for n, k, p, message in [
        (3, 0, (), "k must be at least 1, got 0"),
        (-1, 2, (0, 0), "n must be at least 0, got -1"),
        (3, 2, (1, 2, 3), "p must have length 2, got 3"),
        (3, 2, (1, -1), "entries of p must be at least 0, got (1, -1)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            _subset_multisets(n, k, p)


def test_tree_probability_matches_the_tuple_walk_past_the_grid():
    cases = [(n, k, p) for n, k in [(5, 3), (4, 4)] for p in feasible_types(n, k)]
    assert len(cases) == 771
    for n, k, p in cases:
        assert tree_probability(n, k, p) == tree_probability_by_tuples(n, k, p), (n, k, p)


def test_tree_probability_invariant_under_slot_relabeling():
    # the index slots are i.i.d.; permuting which slot drives which type's
    # subset draw cannot change the count
    n, k, p = 2, 3, (1, 2, 1)
    hits = {}
    for order in itertools.permutations(range(2)):
        count = 0
        for mt in m_tuples(n, k, p):
            for indices in itertools.product(range(1, n + 1), repeat=2):
                permuted = tuple(indices[order[s]] for s in range(2))
                from constellation_lab.biddings import alpha_graph

                if alpha_graph(permuted, mt.subsets, k).is_tree():
                    count += 1
        hits[order] = count
    assert len(set(hits.values())) == 1


def test_k2_tree_iff_singleton_subset():
    # the single-arc graph is a tree exactly when the drawn subset has one
    # element, pointwise over every (index, subset-tuple) pair
    from constellation_lab.biddings import alpha_graph

    for n in (2, 3, 4):
        for p in feasible_types(n, 2):
            for mt in m_tuples(n, 2, p):
                for i in range(1, n + 1):
                    tree = alpha_graph((i,), mt.subsets, 2).is_tree()
                    assert tree == (len(mt.subsets[i - 1]) == 1)


def test_verify_puzzle_small_sweeps():
    for k, nmax in [(2, 4), (3, 3), (4, 2)]:
        for n in range(1, nmax + 1):
            for p in feasible_types(n, k):
                assert verify_puzzle(n, k, p).equal


def test_event_probability_examples():
    assert event_probability([set(), set()], 2, 3, (1, 1, 1)) == Fraction(1, 1)
    got = event_probability([{1}, {2}], 2, 3, (1, 1, 1))
    assert got == event_probability_naive([{1}, {2}], 2, 3, (1, 1, 1))
    assert event_probability([{1}], 2, 3, (0, 1, 1)) == Fraction(0, 1)


def test_event_probability_matches_naive():
    for n, k in [(2, 3), (3, 3)]:
        for p in [(1, 1, 1), (1, 2, 1), (2, 2, 2)]:
            if not m_coefficient(n, p):
                continue
            for a, b in [({1}, {2}), ({1, 2}, {3}), ({2}, set()), ({1, 3}, {2, 3})]:
                assert event_probability([a, b], n, k, p) == event_probability_naive(
                    [a, b], n, k, p
                )


def test_k3_inclusion_exclusion():
    r = verify_k3_inclusion_exclusion(2, (1, 1, 1))
    assert r.equal and r.lhs == "1/2"
    for p in feasible_types(3, 3):
        assert verify_k3_inclusion_exclusion(3, p).equal


def test_exchange_lemma_all_labelings():
    for n in (2, 3):
        for p in feasible_types(n, 3):
            for a, b, c in itertools.permutations((1, 2, 3)):
                r = verify_exchange_lemma(n, p, a, b, c)
                assert r.equal, (n, p, (a, b, c))


def test_exchange_lemma_rejects_bad_labels():
    with pytest.raises(ValueError):
        verify_exchange_lemma(2, (1, 1, 1), 1, 2, 2)


def test_k3_verifiers_match_their_oracles_field_by_field():
    # every feasible k=3 type at n <= 4 and every labelling: both sides and
    # the verdict against the sums of public event probabilities, the tree
    # side against the tuple walk, and E1/E2 against the loop over pairs
    checked = 0
    for n in range(1, 5):
        for p in feasible_types(n, 3):
            r = verify_k3_inclusion_exclusion(n, p)
            tree = tree_probability_by_tuples(n, 3, p)
            rhs = k3_sum_by_fractions(n, p)
            assert tree == rhs, (n, p)
            assert (r.name, r.lhs, r.rhs, r.equal) == (
                "k3-inclusion-exclusion", ratio(tree), ratio(rhs), True
            ), (n, p)
            assert r.params == (("n", n), ("p", p))
            for a, b, c in itertools.permutations((1, 2, 3)):
                r = verify_exchange_lemma(n, p, a, b, c)
                lhs = event_probability_naive([{a, b}, set()], n, 3, p)
                rhs = (
                    event_probability([{a}, {b}], n, 3, p)
                    - event_probability([{a, c}, {b}], n, 3, p)
                    + event_probability([{a, b}, {a, c}], n, 3, p)
                )
                e1, e2 = exchange_counts_by_pairs(n, p, a, b, c)
                assert lhs == rhs and e1 == e2, (n, p, (a, b, c))
                assert (r.name, r.lhs, r.rhs, r.equal) == (
                    "exchange-lemma", ratio(lhs), ratio(rhs), True
                ), (n, p, (a, b, c))
                assert r.params == (
                    ("n", n), ("p", p), ("abc", (a, b, c)), ("E1", e1), ("E2", e2)
                ), (n, p, (a, b, c))
                checked += 1
    assert checked == 6 * 189


# the exception type and message of each bad call; a call with several
# faults reports the first one checked
K3_ERRORS = [
    ((0, (0, 0, 0)), ValueError, "n must be at least 1, got 0"),
    ((-1, (0, 0, 0)), ValueError, "n must be at least 1, got -1"),
    ((0, (1, 1)), ValueError, "n must be at least 1, got 0"),
    ((2, (1, 1)), ValueError, "p must have length 3, got 2"),
    ((2, (1, 1, 1, 1)), ValueError, "p must have length 3, got 4"),
    ((2, (1, -1)), ValueError, "p must have length 3, got 2"),
    ((2, (1, -1, 1)), ValueError, "entries of p must be at least 0, got (1, -1, 1)"),
    ((2, [1, -1, 1]), ValueError, "entries of p must be at least 0, got (1, -1, 1)"),
    ((2, (3, 1, 1)), UndefinedProbabilityError, "no subset tuples of type (3, 1, 1)"),
    ((1, [1, 1, 1]), UndefinedProbabilityError, "no subset tuples of type (1, 1, 1)"),
]
LABELLING = "(a, b, c) must be a labelling of {1, 2, 3}"
EXCHANGE_ERRORS = [((*args, 1, 2, 3), exc, message) for args, exc, message in K3_ERRORS] + [
    ((2, (1, 1, 1), 1, 1, 3), ValueError, LABELLING),
    ((2, (1, 1, 1), 0, 1, 2), ValueError, LABELLING),
    ((0, (1, 1, 1), 1, 2, 4), ValueError, LABELLING),
    ((2, (1, -1, 1), 1, 2, 2), ValueError, LABELLING),
    ((2, (1, 1), 3, 2, 3), ValueError, LABELLING),
    ((2, (3, 1, 1), 0, 1, 2), ValueError, LABELLING),
]


@pytest.mark.parametrize("args, exc, message", K3_ERRORS)
def test_k3_inclusion_exclusion_error_contract(args, exc, message):
    with pytest.raises(ValueError) as info:
        verify_k3_inclusion_exclusion(*args)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize("args, exc, message", EXCHANGE_ERRORS)
def test_exchange_lemma_error_contract(args, exc, message):
    with pytest.raises(ValueError) as info:
        verify_exchange_lemma(*args)
    assert type(info.value) is exc and str(info.value) == message


def test_sampling_is_deterministic():
    a = sample_puzzle(3, 2, (1, 2), trials=500, seed=42)
    b = sample_puzzle(3, 2, (1, 2), trials=500, seed=42)
    assert a == b
    c = sample_puzzle(3, 2, (1, 2), trials=500, seed=43)
    assert (a.accepted, a.tree_hits) != (c.accepted, c.tree_hits) or a != c


def test_sampling_trivial_type_always_tree():
    res = sample_puzzle(2, 2, (1, 1), trials=200, seed=7)
    assert res.accepted > 0
    assert res.tree_estimate == Fraction(1, 1)
    assert res.r1_estimate == Fraction(1, 1)


def test_sampling_acceptance_floor():
    # a uniform tuple has type (9,9,9,9) with probability about 3e-9
    with pytest.raises(SamplingError):
        sample_puzzle(12, 4, (9, 9, 9, 9), trials=100, seed=1)


def test_sampling_rejects_bad_type_vector():
    for p, message in [
        ((1, 2, 3), "p must have length 2, got 3"),
        ((1,), "p must have length 2, got 1"),
        ((3, -1), "entries of p must be at least 0, got (3, -1)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_puzzle(3, 2, p, trials=10, seed=0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        sample_puzzle(2, 0, (), trials=10, seed=0)


def test_sampling_rejects_a_negative_seed_before_drawing(monkeypatch):
    # Random seeds with abs(seed), so -3 would repeat the draws of 3
    def no_generator(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr("constellation_lab.puzzle.random", SimpleNamespace(Random=no_generator))
    with pytest.raises(ValueError, match="seed must be at least 0, got -3"):
        sample_puzzle(6, 3, (2, 3, 4), trials=5000, seed=-3)


def test_sequential_draw_is_uniform_over_tuples_of_the_type():
    # the product of the draw's conditional probabilities along every tuple
    # of type p is exactly 1/M^n_p, over the criterion-7 grid
    checked = 0
    for k, nmax in [(2, 5), (3, 4), (4, 3)]:
        subsets = strict_subsets(k)
        for n in range(1, nmax + 1):
            for p in feasible_types(n, k):
                for mt in m_tuples(n, k, p):
                    law = Fraction(1)
                    q = p
                    for left, s in zip(range(n, 0, -1), mt.subsets):
                        weights = _next_subset_weights(left, q, k)
                        law *= Fraction(weights[subsets.index(s)], sum(weights))
                        q = tuple(c - (t in s) for t, c in enumerate(q, start=1))
                    assert law == Fraction(1, m_coefficient(n, p)), (n, k, p, mt)
                    checked += 1
    assert checked == 6778


@pytest.mark.parametrize("k, left_max", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 4)])
def test_batched_weights_equal_m_coefficients(k, left_max):
    # one binomial expansion gives M^(left-1)_(q - 1_S) for every S, also
    # for types no tuple has
    subsets = strict_subsets(k)
    for left in range(1, left_max + 1):
        for q in itertools.product(range(left + 1), repeat=k):
            expected = [
                m_coefficient(left - 1, tuple(c - (t in s) for t, c in enumerate(q, start=1)))
                for s in subsets
            ]
            assert _next_subset_weights(left, q, k) == expected, (left, q)


PINNED_SAMPLES = [
    (6, 3, (2, 3, 4), 5000, 11, (89, 47, 48)),
    (6, 4, (4, 4, 4, 4), 30000, 13, (16, 12, 11)),
    (60, 3, (26, 26, 26), 400_000, 3, (458, 200, 201)),
    (3, 1, (0,), 50, 2, (50, 50, 50)),
    (5, 5, (4, 4, 3, 3, 2), 20000, 4, (12, 4, 3)),
]


@pytest.mark.parametrize("n, k, p, trials, seed, counts", PINNED_SAMPLES)
def test_sampler_counts_for_a_seed_are_pinned(n, k, p, trials, seed, counts):
    # the seeded stream: the same randrange calls in the same order give
    # the same counts, whatever the sampler memoizes
    res = sample_puzzle(n, k, p, trials=trials, seed=seed)
    assert (res.accepted, res.tree_hits, res.r1_hits) == counts


@pytest.fixture
def cold_sampler_states():
    """Clears the sampler's per-process state memo before and after the
    test: a patched _next_subset_weights is called only for states not yet
    built, and the states built from it must not serve later tests."""
    _sampler_states.cache_clear()
    yield
    _sampler_states.cache_clear()


@pytest.mark.parametrize("n, k, p, trials, seed, counts", PINNED_SAMPLES)
def test_sampler_counts_do_not_depend_on_the_state_memo(cold_sampler_states, n, k, p, trials, seed, counts):
    cold = sample_puzzle(n, k, p, trials=trials, seed=seed)
    warm = sample_puzzle(n, k, p, trials=trials, seed=seed)
    assert (cold.accepted, cold.tree_hits, cold.r1_hits) == counts
    assert (warm.accepted, warm.tree_hits, warm.r1_hits) == counts


def test_sampler_builds_each_state_once_per_process(monkeypatch, cold_sampler_states):
    calls = []

    def recording(left, q, k):
        calls.append((left, q))
        return _next_subset_weights(left, q, k)

    monkeypatch.setattr("constellation_lab.puzzle._next_subset_weights", recording)
    sample_puzzle(6, 3, (2, 3, 4), trials=5000, seed=11)
    assert calls and len(calls) == len(set(calls))
    calls.clear()
    sample_puzzle(6, 3, (2, 3, 4), trials=5000, seed=11)
    assert calls == []


def test_sampler_keeps_the_states_of_a_bounded_number_of_types(cold_sampler_states):
    types = [(x, y) for x in range(4) for y in range(4) if x + y <= 4]
    assert len(types) > _SAMPLED_TYPES
    for p in types:
        sample_puzzle(4, 2, p, trials=2000, seed=1)
    assert _sampler_states.cache_info().currsize == _SAMPLED_TYPES


@pytest.mark.usefixtures("cold_sampler_states")
def test_sampler_checks_its_first_weights_against_m(capsys, monkeypatch):
    def off_by_one(left, q, k):
        weights = _next_subset_weights(left, q, k)
        return [weights[0] + 1, *weights[1:]]

    monkeypatch.setattr("constellation_lab.puzzle._next_subset_weights", off_by_one)
    with pytest.raises(AssertionError, match=r"sum to 4, not M\^3_\(1, 2\) = 3"):
        sample_puzzle(3, 2, (1, 2), trials=100, seed=1)
    code = main(["puzzle", "--n", "3", "--k", "2", "--p", "1,2", "--sample", "100"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.count("error:") == 1


def prefix_draw_law(n, k, p):
    """Exact law of (tree hit, r1 hit) for one accepted tuple as the sampler
    draws it: the indices first, the distinct positions of (1, i_1, ...)
    renumbered 1..b in order of first appearance, and only b entries drawn
    by the weights of _next_subset_weights."""
    subsets = strict_subsets(k)
    patterns = Counter()
    for idx in itertools.product(range(1, n + 1), repeat=k - 1):
        distinct = list(dict.fromkeys((1, *idx)))
        patterns[tuple(distinct.index(i) + 1 for i in idx)] += 1

    def prefixes(b, q, prefix, prob):
        if len(prefix) == b:
            yield prefix, prob
            return
        weights = _next_subset_weights(n - len(prefix), q, k)
        for s, w in zip(subsets, weights):
            if w:
                rest = tuple(c - (t in s) for t, c in enumerate(q, start=1))
                yield from prefixes(b, rest, [*prefix, s], prob * Fraction(w, sum(weights)))

    law = Counter()
    for pattern, count in patterns.items():
        for prefix, prob in prefixes(max(pattern, default=1), p, [], Fraction(1)):
            event = (alpha_graph(pattern, prefix, k).is_tree(), len(prefix[0]) == k - 1)
            law[event] += prob * Fraction(count, n ** (k - 1))
    return law


def full_tuple_law(n, k, p):
    """The same law over every tuple of type p and every index tuple."""
    hits = Counter()
    for mt in m_tuples(n, k, p):
        for idx in itertools.product(range(1, n + 1), repeat=k - 1):
            hits[alpha_graph(idx, mt.subsets, k).is_tree(), len(mt.subsets[0]) == k - 1] += 1
    total = m_coefficient(n, p) * n ** (k - 1)
    return Counter({event: Fraction(h, total) for event, h in hits.items()})


@pytest.mark.parametrize("k, nmax", [(2, 5), (3, 4), (4, 2)])
def test_prefix_draw_has_the_law_of_a_full_tuple(k, nmax):
    for n in range(1, nmax + 1):
        for p in feasible_types(n, k):
            assert prefix_draw_law(n, k, p) == full_tuple_law(n, k, p), (n, k, p)


@pytest.mark.parametrize(
    "n, k, p, trials",
    [(6, 3, (2, 3, 4), 2000), (8, 3, (4, 5, 4), 2000), (6, 4, (4, 4, 4, 4), 20_000), (2, 4, (1, 1, 1, 1), 100)],
)
@pytest.mark.usefixtures("cold_sampler_states")
def test_sampler_draws_at_most_min_n_k_entries(monkeypatch, n, k, p, trials):
    lefts = set()

    def recording(left, q, k):
        lefts.add(left)
        return _next_subset_weights(left, q, k)

    monkeypatch.setattr("constellation_lab.puzzle._next_subset_weights", recording)
    sample_puzzle(n, k, p, trials=trials, seed=5)
    assert min(lefts) == n - min(n, k) + 1


class ScriptedRandom:
    """Stands in for random.Random: randrange returns the next value of a
    script, 0 past its end, and records the size of every range drawn from."""

    def __init__(self, script):
        self.script = script
        self.sizes = []

    def getrandbits(self, bits):
        return 0

    def randrange(self, start, stop=None):
        lo, hi = (0, start) if stop is None else (start, stop)
        i = len(self.sizes)
        self.sizes.append(hi - lo)
        return lo + (self.script[i] if i < len(self.script) else 0)


def sampler_law(monkeypatch, n, k, p):
    """Exact law of (tree hit, r1 hit) of sample_puzzle itself with one
    accepted tuple: it is run once for every sequence of randrange values."""
    monkeypatch.setattr("constellation_lab.puzzle._count_below", lambda rng, trials, num, den: 1)
    law = Counter()
    script = []
    while True:
        rng = ScriptedRandom(script)
        monkeypatch.setattr("constellation_lab.puzzle.random", SimpleNamespace(Random=lambda seed: rng))
        res = sample_puzzle(n, k, p, trials=1, seed=0)
        law[res.tree_hits == 1, res.r1_hits == 1] += Fraction(1, prod(rng.sizes))
        # the next script in odometer order: raise the last value below its range
        script = script + [0] * (len(rng.sizes) - len(script))
        while script and script[-1] == rng.sizes[len(script) - 1] - 1:
            script.pop()
        if not script:
            return law
        script[-1] += 1


@pytest.mark.parametrize("k, nmax", [(2, 4), (3, 3), (4, 2)])
def test_sampler_has_the_law_of_a_full_tuple(monkeypatch, k, nmax):
    for n in range(1, nmax + 1):
        for p in feasible_types(n, k):
            assert sampler_law(monkeypatch, n, k, p) == full_tuple_law(n, k, p), (n, k, p)


class RecordingRng:
    """getrandbits from a seeded generator, logging each (bits, value).

    A draw past the 200th fails: a count that never decides its trials (a
    digit test that is always true) fails instead of looping forever.
    Each step decides a trial with probability 1/2, so a correct count of
    N trials takes about log2(N) + 2 steps of one draw per _CHUNK bits."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.drawn = []

    def getrandbits(self, bits):
        assert len(self.drawn) < 200, "trials never decided"
        value = self.rng.getrandbits(bits)
        self.drawn.append((bits, value))
        return value


def count_below_by_trials(drawn, trials, num, den):
    """The count replayed one trial at a time over the recorded bits: at step
    j every trial still undecided, in turn, reads the next bit of the stream
    and is decided when the bit differs from the j-th binary digit of
    num / den, below when that digit is 1.  Every bit is read once."""
    stream = width = 0
    for bits, value in drawn:
        stream |= value << width
        width += bits
    undecided, below, read, j = list(range(trials)), 0, 0, 0
    while undecided:
        j += 1
        # num / den = 1 has the expansion 0.111...
        digit = 1 if num == den else (num << j) // den & 1
        still = []
        for trial in undecided:
            bit = stream >> read & 1
            read += 1
            if bit == digit:
                still.append(trial)
            else:
                below += digit
        undecided = still
    assert read == width
    return below


@pytest.mark.parametrize("den", [1, 3, 8, 7**6, 15**6, 15**17, 15**30], ids=lambda den: f"{den.bit_length()}-bit")
def test_count_below_matches_a_loop_over_the_same_bits(monkeypatch, den):
    # 32-bit chunks, so that a step of more than 32 trials spans draws
    monkeypatch.setattr("constellation_lab.puzzle._CHUNK", 32)
    for num in sorted({0, 1, den // 2 + 1, den - 1, den}):
        for trials in [1, 31, 32, 33, 3 * 32 + 5, 1000]:
            rng = RecordingRng(trials)
            got = _count_below(rng, trials, num, den)
            assert got == count_below_by_trials(rng.drawn, trials, num, den), (num, den, trials)


def test_count_below_draws_at_most_a_chunk_per_call():
    rng = RecordingRng(7)
    _count_below(rng, 2 * _CHUNK + 5, 3**73, 15**30)
    assert _CHUNK % 32 == 0
    assert [bits for bits, _ in rng.drawn[:3]] == [_CHUNK, _CHUNK, 5]
    assert max(bits for bits, _ in rng.drawn) <= _CHUNK


@pytest.mark.parametrize("trials", [1, 33, 5000, _CHUNK + 40])
def test_count_below_chunking_does_not_change_the_stream(monkeypatch, trials):
    whole, chunked = random.Random(trials), random.Random(trials)
    expected = _count_below(whole, trials, 5, 7)
    monkeypatch.setattr("constellation_lab.puzzle._CHUNK", 32)
    assert _count_below(chunked, trials, 5, 7) == expected
    assert chunked.getstate() == whole.getstate()


class OutOfBits(Exception):
    pass


class ScriptedBits:
    """getrandbits(1) from a script of bits; OutOfBits past its end."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def getrandbits(self, bits):
        assert bits == 1
        bit = next(self.bits, None)
        if bit is None:
            raise OutOfBits
        return bit


@pytest.mark.parametrize(
    "num, den",
    [(0, 5), (1, 3), (3, 7), (5, 8), (5, 5), (3**73, 15**30)],
    ids=["0/5", "1/3", "3/7", "5/8", "5/5", "3^73/15^30"],
)
def test_count_below_has_the_exact_law_of_a_comparison(num, den):
    # one trial run on each of the 2^depth bit sequences: the first depth
    # digits decide it unless its bits equal them, and it is below exactly
    # when they read less than num / den
    depth = 12
    below = undecided = 0
    for m in range(2**depth):
        rng = ScriptedBits(m >> (depth - 1 - i) & 1 for i in range(depth))
        try:
            below += _count_below(rng, 1, num, den)
        except OutOfBits:
            undecided += 1
    assert undecided == 1
    assert below == (2**depth - 1 if num == den else (num << depth) // den)


def within_five_sigma(hits, trials, prob):
    # (hits - N P)^2 <= 25 N P (1 - P), in integers
    num, den = prob.numerator, prob.denominator
    return (hits * den - trials * num) ** 2 <= 25 * trials * num * (den - num)


@pytest.mark.parametrize(
    "trials, num, den",
    [(10_000, 1, 3), (12_293, 15**6 // 2, 15**6), (4097, 3**73, 15**30)],
    ids=["1/3", "half-of-15^6", "3^73/15^30"],
)
def test_count_below_within_five_sigma(trials, num, den):
    below = _count_below(RecordingRng(3), trials, num, den)
    assert within_five_sigma(below, trials, Fraction(num, den)), below


@pytest.mark.parametrize("n, k, p, trials", [(6, 3, (2, 3, 4), 20_000), (6, 4, (4, 4, 4, 4), 200_000)])
def test_sampling_acceptance_and_hits_within_five_sigma(n, k, p, trials):
    res = sample_puzzle(n, k, p, trials=trials, seed=1)
    assert res.trials == trials
    accept = Fraction(m_coefficient(n, p), (2**k - 1) ** n)
    assert within_five_sigma(res.accepted, trials, accept), res
    exact = r1_probability(n, k, p)
    assert within_five_sigma(res.tree_hits, res.accepted, exact), res
    assert within_five_sigma(res.r1_hits, res.accepted, exact), res


def test_sampling_statistical_agreement():
    n, k, p = 6, 3, (2, 3, 4)
    res = sample_puzzle(n, k, p, trials=100_000, seed=2024)
    exact_tree = tree_probability(n, k, p)
    exact_r1 = r1_probability(n, k, p)
    assert exact_tree == exact_r1
    est = res.tree_estimate.numerator / res.tree_estimate.denominator
    exact = exact_tree.numerator / exact_tree.denominator
    se = (exact * (1 - exact) / res.accepted) ** 0.5
    assert abs(est - exact) <= 4 * se + 1e-12
    est_r1 = res.r1_estimate.numerator / res.r1_estimate.denominator
    assert abs(est_r1 - est) <= 3 * (2 * se) + 1e-12


def test_eq4_bridge_colored_vs_r1_counts():
    # n! * |union of colored sets| = n!^k * |tuples with |R_1| = k-1|
    from math import factorial

    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for p in feasible_types(n, k):
            union = 0
            for t in range(1, k + 1):
                bumped = tuple(x + (1 if s == t else 0) for s, x in enumerate(p, start=1))
                if all(x >= 1 for x in bumped):
                    union += count_colored(n, bumped)
            r1_count = sum(1 for mt in m_tuples(n, k, p) if len(mt.subsets[0]) == k - 1)
            assert factorial(n) * union == factorial(n) ** k * r1_count
