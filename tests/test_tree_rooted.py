import itertools
from math import factorial

import pytest

from constellation_lab.constellations import transitive_tuples
from constellation_lab.counting import (
    count_colored,
    enumerate_colored_factorizations,
)
from constellation_lab.permutations import cycles
from constellation_lab.tree_rooted import (
    SimpleDigraph,
    best_compose,
    best_decompose,
    canonical_tree_rooted,
    digraph_arborescences,
    enumerate_eulerian_tours,
    enumerate_tree_rooted,
    phi,
    phi_inverse,
    tree_rooted_tour,
    xi,
    xi_inverse,
)


def all_colored(n, k):
    for p in itertools.product(range(1, n + 1), repeat=k):
        yield from enumerate_colored_factorizations(n, k, p)


def test_xi_trivial_case():
    cf = next(enumerate_colored_factorizations(1, 2, (1, 1)))
    tour = xi(cf)
    assert len(tour.digraph.vertices()) == 2
    assert len(tour.arcs) == 2
    assert tour.validate() is None


def test_xi_tour_length_and_roundtrip():
    for cf in all_colored(3, 2):
        tour = xi(cf)
        assert len(tour.arcs) == cf.k * cf.n
        assert xi_inverse(tour) == cf


def test_best_two_vertex_digraph():
    # two vertices, two parallel arc-pairs each way; tours from u exist
    dg = SimpleDigraph(
        arc_list=(("a1", "u", "v"), ("a2", "u", "v"), ("b1", "v", "u"), ("b2", "v", "u"))
    )
    tours = list(enumerate_eulerian_tours(dg, "u"))
    assert tours
    for seq in tours:
        # last exit of the only non-start vertex forms the one-edge tree
        last_v_exit = [a for a in seq if dg.tail(a) == "v"][-1]
        assert dg.head(last_v_exit) == "u"


def test_best_tour_count_equals_arborescence_order_pairs():
    dg = SimpleDigraph(
        arc_list=(
            ("a1", "u", "v"),
            ("a2", "u", "v"),
            ("b1", "v", "u"),
            ("b2", "v", "u"),
            ("c1", "v", "w"),
            ("d1", "w", "v"),
            ("e1", "v", "v"),
        )
    )
    for v0 in ("u", "v", "w"):
        tours = sum(1 for _ in enumerate_eulerian_tours(dg, v0))
        pairs = 0
        for tree in digraph_arborescences(dg, v0):
            ways = 1
            for vert in ("u", "v", "w"):
                out = sum(1 for a in dg.arcs() if dg.tail(a) == vert)
                if vert != v0:
                    out -= 1  # the tree arc is pinned last
                ways *= factorial(out)
            pairs += ways
        assert tours == pairs


def test_best_decompose_compose_roundtrip():
    for cf in all_colored(3, 2):
        tour = xi(cf)
        tree, orders = best_decompose(tour)
        assert best_compose(tour.digraph, tree, orders) == tour.arcs


def test_phi_trivial_case():
    cf = next(enumerate_colored_factorizations(1, 2, (1, 1)))
    t = phi(cf)
    assert t.validate() is None
    assert t.n == 1 and t.type_vector() == (1, 1)
    assert len(t.arborescence.edges()) == 1
    assert phi_inverse(t) == cf


def test_phi_bijective_small():
    for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        for p in itertools.product(range(1, n + 1), repeat=k):
            cfs = list(enumerate_colored_factorizations(n, k, p))
            images = set()
            for cf in cfs:
                t = phi(cf)
                assert t.validate() is None
                assert phi_inverse(t) == cf
                images.add(t)
            assert len(images) == len(cfs)
            targets = {canonical_tree_rooted(t) for t in enumerate_tree_rooted(n, k, p)}
            assert images == targets


def test_phi_root_vertex_has_type_k():
    for cf in all_colored(3, 2):
        t = phi(cf)
        c = t.constellation
        assert c.vertex_type[c.root_vertex - 1] == c.k
        assert t.arborescence.root_vertex == c.root_vertex


def test_phi_vertex_compositions_equal_color_compositions():
    for n, k in [(3, 2), (2, 3)]:
        for cf in all_colored(n, k):
            assert phi(cf).vertex_compositions() == cf.color_compositions()


def test_phi_degree_preserving_edgewise():
    # edges joining (type t, color i) to (type t+1, color j) are preserved
    for cf in all_colored(3, 2):
        t = phi(cf)
        c = t.constellation
        k, n = cf.k, cf.n
        for tt in range(1, k + 1):
            t2 = tt % k + 1
            lhs = {}
            for h in range(1, n + 1):
                key = (cf.colorings[tt - 1][h - 1], cf.colorings[t2 - 1][h - 1])
                lhs[key] = lhs.get(key, 0) + 1
            rhs = {}
            for h in range(1, n + 1):
                he = c.hyperedges[h - 1]
                key = (c.labels[he[tt - 1] - 1], c.labels[he[t2 - 1] - 1])
                rhs[key] = rhs.get(key, 0) + 1
            assert lhs == rhs


def test_tree_rooted_tour_is_reused_by_canonical_form():
    for cf in all_colored(2, 3):
        t = phi(cf)
        assert canonical_tree_rooted(t) == t  # phi output is already canonical
        assert len(tree_rooted_tour(t)) == t.n * t.k


def test_label_washing_one_to_n_minus_one_factorial():
    # hyperedge-labelled cacti (any long-cycle product) vs factorizations
    for n, k in [(3, 2), (4, 2), (3, 3)]:
        labelled = 0
        for perms in transitive_tuples(n, k):
            from constellation_lab.permutations import compose_all

            if len(cycles(compose_all(list(perms)))) == 1:
                labelled += 1
        assert labelled == factorial(n - 1) * factorial(n) ** (k - 1)


def test_tree_rooted_counts_match_colored_counts():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for p in itertools.product(range(1, n + 1), repeat=k):
            assert sum(1 for _ in enumerate_tree_rooted(n, k, p)) == count_colored(n, p)


def test_xi_inverse_rejects_non_surjective_coloring():
    from dataclasses import replace

    tour = xi(next(enumerate_colored_factorizations(2, 2, (1, 1))))
    first = tuple(3 if c == 1 else c for c in tour.digraph.colorings[0])
    colorings = (first,) + tour.digraph.colorings[1:]
    bad = replace(tour, digraph=replace(tour.digraph, colorings=colorings))
    with pytest.raises(ValueError, match="coloring 1 is not surjective"):
        xi_inverse(bad)


def test_phi_inverse_rejects_invalid():
    t = phi(next(enumerate_colored_factorizations(2, 2, (1, 1))))
    from dataclasses import replace

    broken = replace(t, arborescence=replace(t.arborescence, root_vertex=1 + t.arborescence.root_vertex % 2))
    with pytest.raises(ValueError):
        phi_inverse(broken)
