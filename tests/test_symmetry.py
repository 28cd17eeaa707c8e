import itertools
from collections import defaultdict
from dataclasses import replace

import pytest
from oracles import (
    canonical_tree_rooted,
    color_compositions,
    transport,
    transport_inverse,
    transport_schedule,
    vertex_compositions,
)

from constellation_lab.cli import _swap_domain
from constellation_lab.constellations import Arborescence, validate, validate_arborescence
from constellation_lab.counting import DEFAULT_CAP
from constellation_lab.counting import enumerate_colored_factorizations
from constellation_lab.permutations import Composition
from constellation_lab.symmetry import swap_degree
from constellation_lab.tree_rooted import enumerate_tree_rooted, phi


def tree_rooted_objects(n, k):
    for p in itertools.product(range(1, n + 1), repeat=k):
        yield from enumerate_tree_rooted(n, k, p)


def eligible_moves(t_obj):
    c = t_obj.constellation
    for t in range(1, c.k + 1):
        labels = range(1, len(c.vertices_of_type(t)) + 1)
        for i, j in itertools.permutations(labels, 2):
            if c.hyperdegree(c.vertex_by_label(t, i)) >= 2:
                yield t, i, j


def with_vertices(t_obj, t, i, j):
    """A move of the swap domain: its labels, then the vertices so labelled."""
    c = t_obj.constellation
    return t_obj, t, i, j, c.vertex_by_label(t, i), c.vertex_by_label(t, j)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_swap_domain_is_every_eligible_move_in_order(n, k):
    # the roundtrip's domain reads each hyperdegree and label once; it must
    # list the moves of the label scan, with their vertices, object by
    # object, over every type and per type
    expected = [
        with_vertices(t_obj, *move)
        for t_obj in tree_rooted_objects(n, k)
        for move in eligible_moves(t_obj)
    ]
    assert list(_swap_domain(n, k, None, DEFAULT_CAP)) == expected
    for p in itertools.product(range(1, n + 1), repeat=k):
        expected = [with_vertices(t_obj, *move) for t_obj in enumerate_tree_rooted(n, k, p)
                    for move in eligible_moves(t_obj)]
        assert list(_swap_domain(n, k, p, DEFAULT_CAP)) == expected, p


def test_swap_requires_degree_two():
    t_obj = next(enumerate_tree_rooted(2, 2, (2, 1)))
    # type-1 vertices both have hyperdegree 1 here
    with pytest.raises(ValueError, match="hyperdegree"):
        swap_degree(t_obj, 1, 1, 2)


def test_swap_requires_distinct_labels():
    t_obj = next(enumerate_tree_rooted(2, 2, (1, 1)))
    with pytest.raises(ValueError):
        swap_degree(t_obj, 1, 1, 1)


def test_swap_rejects_an_arborescence_with_a_parent_cycle():
    # a phi image at (3, 2, (2, 2)) whose vertices 1 and 4 point at each
    # other through hyperedge 2; the walk to the root vertex never ends
    t_obj = phi(next(enumerate_colored_factorizations(3, 2, (2, 2))))
    c = t_obj.constellation
    assert c.hyperedges == ((1, 3), (1, 4), (2, 4)) and validate(c) is None
    bad = replace(t_obj, arborescence=Arborescence(3, ((2, 1), (3, 1), None, (2, 2))))
    message = "parent edges cycle at vertex 1"
    assert validate_arborescence(c, bad.arborescence) == message
    with pytest.raises(ValueError, match=f"^{message}$"):
        swap_degree(bad, 1, 1, 2)


def test_swap_involution_and_validity():
    for n, k in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for t_obj in tree_rooted_objects(n, k):
            for t, i, j in eligible_moves(t_obj):
                moved = swap_degree(t_obj, t, i, j)
                assert moved.validate() is None
                assert swap_degree(moved, t, j, i) == t_obj


def test_swap_changes_hyperdegree_vector_by_unit():
    for t_obj in tree_rooted_objects(3, 2):
        before = [g.parts for g in vertex_compositions(t_obj)]
        for t, i, j in eligible_moves(t_obj):
            after = [g.parts for g in vertex_compositions(swap_degree(t_obj, t, i, j))]
            for s in range(len(before)):
                if s != t - 1:
                    assert after[s] == before[s]
            expect = list(before[t - 1])
            expect[i - 1] -= 1
            expect[j - 1] += 1
            assert list(after[t - 1]) == expect


def test_swap_preserves_size_type_and_root():
    for t_obj in tree_rooted_objects(3, 2):
        for t, i, j in eligible_moves(t_obj):
            moved = swap_degree(t_obj, t, i, j)
            assert moved.constellation.n == t_obj.constellation.n
            assert moved.constellation.type_vector() == t_obj.constellation.type_vector()
            assert moved.constellation.root == t_obj.constellation.root
            assert moved.arborescence.root_vertex == t_obj.arborescence.root_vertex


def _sets_by_compositions(n, k):
    sets = defaultdict(set)
    for t_obj in tree_rooted_objects(n, k):
        key = tuple(g.parts for g in vertex_compositions(t_obj))
        sets[key].add(canonical_tree_rooted(t_obj))
    return sets


def test_equal_profile_sets_equinumerous():
    for n, k in [(3, 2), (4, 2)]:
        sets = _sets_by_compositions(n, k)
        by_profile = defaultdict(set)
        for key, objs in sets.items():
            by_profile[tuple(len(g) for g in key)].add(len(objs))
        assert all(len(sizes) == 1 for sizes in by_profile.values())


def test_transport_identity_and_roundtrip():
    for t_obj in itertools.islice(tree_rooted_objects(3, 2), 60):
        current = vertex_compositions(t_obj)
        assert transport(t_obj, current) == t_obj
        targets = []
        for g in current:
            parts = sorted(g.parts)
            targets.append(Composition(tuple(parts)))
        moved = transport(t_obj, targets)
        assert vertex_compositions(moved) == tuple(targets)
        assert transport_inverse(moved, current) == t_obj


def test_transport_image_is_exactly_the_target_set():
    sets = _sets_by_compositions(3, 2)
    by_profile = defaultdict(list)
    for key in sets:
        by_profile[tuple(len(g) for g in key)].append(key)
    for profile, keys in by_profile.items():
        for src, dst in itertools.permutations(keys, 2):
            target = [Composition(g) for g in dst]
            image = set()
            for t_obj in sets[src]:
                moved = transport(t_obj, target)
                assert tuple(g.parts for g in vertex_compositions(moved)) == dst
                image.add(canonical_tree_rooted(moved))
            assert image == sets[dst]


def test_transport_schedule_rejects_profile_mismatch():
    with pytest.raises(ValueError):
        transport_schedule(
            (Composition((2, 1)),), (Composition((3,)),)
        )


def test_colored_counts_symmetric_via_census():
    # c(gamma) depends only on the length profile, n <= 4 / k = 2, n <= 3 / k = 3
    for n, k in [(4, 2), (3, 3)]:
        census = defaultdict(int)
        for p in itertools.product(range(1, n + 1), repeat=k):
            for cf in enumerate_colored_factorizations(n, k, p):
                census[tuple(g.parts for g in color_compositions(cf))] += 1
        by_profile = defaultdict(set)
        for key, cnt in census.items():
            by_profile[tuple(len(g) for g in key)].add(cnt)
        assert all(len(v) == 1 for v in by_profile.values())
