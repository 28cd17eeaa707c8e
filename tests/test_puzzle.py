import itertools
import random
from fractions import Fraction

import pytest
from oracles import event_probability_naive

from constellation_lab.biddings import alpha_graph
from constellation_lab.counting import (
    CapExceededError,
    count_colored,
    m_coefficient,
    m_tuples,
    strict_subsets,
)
from constellation_lab.puzzle import (
    ExactProbability,
    SamplingError,
    UndefinedProbabilityError,
    _BLOCK,
    _count_below,
    _next_subset_weights,
    event_probability,
    r1_probability,
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


def test_exact_probability_reduces():
    pr = ExactProbability(4, 8)
    assert (pr.numerator, pr.denominator) == (1, 2)
    assert str(ExactProbability(0, 5)) == "0/1"
    with pytest.raises(ValueError):
        ExactProbability(1, 0)


def test_tree_probability_examples():
    assert tree_probability(2, 2, (1, 1)) == ExactProbability(1, 1)
    assert tree_probability(2, 3, (1, 1, 1)) == ExactProbability(1, 2)
    with pytest.raises(UndefinedProbabilityError):
        tree_probability(2, 3, (3, 3, 0))


def test_r1_probability_examples():
    assert r1_probability(2, 2, (1, 1)) == ExactProbability(1, 1)
    assert r1_probability(2, 3, (1, 1, 1)) == ExactProbability(1, 2)
    assert r1_probability(3, 2, (0, 0)) == ExactProbability(0, 1)


def test_r1_probability_matches_enumeration():
    # the closed-form count against the share of enumerated tuples with
    # |R_1| = k-1, over the criterion-7 grid
    checked = 0
    for k, nmax in [(2, 6), (3, 4), (4, 3)]:
        for n in range(1, nmax + 1):
            for p in feasible_types(n, k):
                tuples = list(m_tuples(n, k, p))
                hits = sum(1 for mt in tuples if len(mt.subsets[0]) == k - 1)
                assert r1_probability(n, k, p) == ExactProbability(hits, len(tuples))
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
        return ExactProbability(hits, n ** (k - 1) * total)

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
    assert event_probability([set(), set()], 2, 3, (1, 1, 1)) == ExactProbability(1, 1)
    got = event_probability([{1}, {2}], 2, 3, (1, 1, 1))
    assert got == event_probability_naive([{1}, {2}], 2, 3, (1, 1, 1))
    assert event_probability([{1}], 2, 3, (0, 1, 1)) == ExactProbability(0, 1)


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


def test_sampling_is_deterministic():
    a = sample_puzzle(3, 2, (1, 2), trials=500, seed=42)
    b = sample_puzzle(3, 2, (1, 2), trials=500, seed=42)
    assert a == b
    c = sample_puzzle(3, 2, (1, 2), trials=500, seed=43)
    assert (a.accepted, a.tree_hits) != (c.accepted, c.tree_hits) or a != c


def test_sampling_trivial_type_always_tree():
    res = sample_puzzle(2, 2, (1, 1), trials=200, seed=7)
    assert res.accepted > 0
    assert res.tree_estimate == ExactProbability(1, 1)
    assert res.r1_estimate == ExactProbability(1, 1)


def test_sampling_acceptance_floor():
    # a uniform tuple has type (9,9,9,9) with probability about 3e-9
    with pytest.raises(SamplingError):
        sample_puzzle(12, 4, (9, 9, 9, 9), trials=100, seed=1)


def test_sampling_rejects_bad_type_vector():
    for p in [(1, 2, 3), (1,), (3, -1)]:
        with pytest.raises(ValueError, match="bad type vector"):
            sample_puzzle(3, 2, p, trials=10, seed=0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        sample_puzzle(2, 0, (), trials=10, seed=0)


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
                        weights = _next_subset_weights(left, q, subsets, m_coefficient)
                        law *= Fraction(weights[subsets.index(s)], sum(weights))
                        q = tuple(c - (t in s) for t, c in enumerate(q, start=1))
                    assert law == Fraction(1, m_coefficient(n, p)), (n, k, p, mt)
                    checked += 1
    assert checked == 6778


class RecordingRng:
    """getrandbits from a seeded generator, logging each (bits, value).

    A draw past the 200th fails: a count that never decides its trials (a
    redraw test that is always true) fails instead of looping forever.
    A redraw has probability below 1/2, so a correct count of up to a few
    blocks needs a few dozen draws."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.drawn = []

    def getrandbits(self, bits):
        assert len(self.drawn) < 200, "trials never decided"
        value = self.rng.getrandbits(bits)
        self.drawn.append((bits, value))
        return value


def count_below_by_loop(drawn, trials, num, den):
    # one field at a time over the same bits: whole-byte fields with a
    # guard bit above the b = den.bit_length() bits that are read
    b = den.bit_length()
    width = 8 * (b // 8 + 1)
    below = decided = 0
    for bits, value in drawn:
        for i in range(bits // width):
            if decided == trials:
                return below
            field = (value >> (width * i)) & ((1 << b) - 1)
            if field >= den:
                continue
            decided += 1
            below += field < num
    assert decided == trials
    return below


@pytest.mark.parametrize("den", [1, 3, 7**6, 15**6, 15**17, 15**30], ids=lambda den: f"{den.bit_length()}-bit")
def test_count_below_matches_a_loop_over_the_same_bits(den):
    for num in sorted({0, 1, den - 1, den}):
        for trials in [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]:
            rng = RecordingRng(trials)
            got = _count_below(rng, trials, num, den)
            assert got == count_below_by_loop(rng.drawn, trials, num, den), (num, den, trials)


def within_five_sigma(hits, trials, prob):
    # (hits - N P)^2 <= 25 N P (1 - P), in integers
    num, den = prob.numerator, prob.denominator
    return (hits * den - trials * num) ** 2 <= 25 * trials * num * (den - num)


@pytest.mark.parametrize(
    "trials, num, den",
    [(10_000, 1, 3), (3 * _BLOCK + 5, 15**6 // 2, 15**6), (_BLOCK + 1, 3**73, 15**30)],
    ids=["1/3", "half-of-15^6", "3^73/15^30"],
)
def test_count_below_within_five_sigma(trials, num, den):
    below = _count_below(RecordingRng(3), trials, num, den)
    assert within_five_sigma(below, trials, ExactProbability(num, den)), below


@pytest.mark.parametrize("n, k, p, trials", [(6, 3, (2, 3, 4), 20_000), (6, 4, (4, 4, 4, 4), 200_000)])
def test_sampling_acceptance_and_hits_within_five_sigma(n, k, p, trials):
    res = sample_puzzle(n, k, p, trials=trials, seed=1)
    assert res.trials == trials
    accept = ExactProbability(m_coefficient(n, p), (2**k - 1) ** n)
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
