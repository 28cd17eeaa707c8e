import pytest
from hypothesis import given, strategies as st
from oracles import from_cycles, identity, is_partition, partitions_of

from constellation_lab.permutations import (
    Composition,
    Permutation,
    all_permutations,
    compose,
    compose_all,
    compositions_of,
    compositions_of_length,
    cycle_string,
    cycle_type,
    cycles,
    inverse,
    long_cycle,
    orbits,
)

perms5 = st.permutations(range(1, 6)).map(lambda xs: Permutation(tuple(xs)))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_compose_reproduces_first_worked_product():
    p1 = from_cycles(5, [[1, 2, 5], [3, 4]])
    p2 = from_cycles(5, [[1, 3]])
    p3 = from_cycles(5, [[1, 4]])
    assert cycle_string(compose(p1, compose(p2, p3))) == "(1,3,2,5)(4)"


def test_compose_reproduces_second_worked_product():
    q1 = from_cycles(5, [[1, 3, 5], [2, 4]])
    q2 = from_cycles(5, [[1, 4], [2, 3]])
    q3 = from_cycles(5, [[2, 4]])
    assert compose_all([q1, q2, q3]) == long_cycle(5)


def test_compose_identity():
    p = from_cycles(4, [[1, 2, 3]])
    assert compose(identity(4), p) == p
    assert compose(p, identity(4)) == p


def test_compose_size_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_cycles_examples():
    p = from_cycles(5, [[1, 3, 2, 5]])
    assert cycles(p) == [[1, 3, 2, 5], [4]]
    assert cycles(identity(3)) == [[1], [2], [3]]
    assert cycles(long_cycle(6)) == [list(range(1, 7))]


def test_cycle_type_examples():
    assert cycle_type(from_cycles(5, [[1, 3, 2, 5]])).parts == (4, 1)
    assert cycle_type(identity(4)).parts == (1, 1, 1, 1)
    assert cycle_type(from_cycles(5, [[1, 2, 5], [3, 4]])).parts == (3, 2)


def test_inverse_examples():
    assert inverse(from_cycles(3, [[1, 2, 3]])) == from_cycles(3, [[1, 3, 2]])
    assert inverse(identity(4)) == identity(4)


def test_inverse_exhaustive_small():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert compose(inverse(p), p) == identity(n)
            assert compose(p, inverse(p)) == identity(n)


@given(perms5, perms5, perms5)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms5)
def test_cycle_type_sums_to_n(p):
    ct = cycle_type(p)
    assert ct.size == p.n
    assert ct.length == len(cycles(p))
    assert is_partition(ct)


@given(perms5)
def test_inverse_preserves_cycle_type(p):
    assert cycle_type(p) == cycle_type(inverse(p))
    assert len(cycles(p)) == len(cycles(inverse(p)))


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0, 1))


def test_compositions_of_counts():
    for n in range(1, 7):
        assert sum(1 for _ in compositions_of(n)) == 2 ** (n - 1)
    assert [c.parts for c in compositions_of_length(4, 2)] == [(1, 3), (2, 2), (3, 1)]


def test_partitions_of_counts_and_composition_filter():
    # p(n) by the coin-change recurrence over part sizes
    numbers = [1] + [0] * 20
    for part in range(1, 21):
        for m in range(part, 21):
            numbers[m] += numbers[m - part]
    for n in range(1, 21):
        parts = [c.parts for c in partitions_of(n)]
        assert len(parts) == len(set(parts)) == numbers[n]
        assert all(is_partition(c) and c.size == n for c in partitions_of(n))
    for n in range(1, 11):
        first_seen = {}
        for comp in compositions_of(n):
            first_seen.setdefault(tuple(sorted(comp.parts, reverse=True)), None)
        assert [c.parts for c in partitions_of(n)] == list(first_seen)


def test_orbits_partition_every_permutation_of_s5():
    for p in all_permutations(5):
        succ = [x - 1 for x in p.image]
        out = orbits(succ, range(5))
        assert sorted(x for orbit in out for x in orbit) == list(range(5))
        for orbit in out:
            assert orbit[0] == min(orbit)
            assert [succ[x] for x in orbit] == orbit[1:] + orbit[:1]
        assert [orbit[0] for orbit in out] == sorted(orbit[0] for orbit in out)


def test_orbits_of_a_closed_domain_stay_inside_it():
    # odd points go to odd points: (1 5 3)(0 2)(4)
    succ = [2, 5, 0, 1, 4, 3]
    assert orbits(succ, range(1, 6, 2)) == [[1, 5, 3]]
    assert orbits(succ, range(0, 6, 2)) == [[0, 2], [4]]


def test_cycles_are_the_orbits_read_one_based():
    for p in all_permutations(5):
        zero_based = orbits([x - 1 for x in p.image], range(5))
        assert cycles(p) == [[x + 1 for x in orbit] for orbit in zero_based]
