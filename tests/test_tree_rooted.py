import gc
import itertools
import random
from math import factorial

import pytest
from oracles import (
    canonical_rooted,
    color_compositions,
    digraph_arborescences,
    eulerian_tour_problem,
    eulerian_tours_by_recursion,
    phi_by_canonical_form,
    random_colored_factorization,
    tour_head,
    vertex_compositions,
    xi_inverse_by_product_orbit,
)

from constellation_lab import tree_rooted
from constellation_lab.biddings import alpha
from constellation_lab.constellations import transitive_tuples
from constellation_lab.counting import (
    count_colored,
    enumerate_colored_factorizations,
    m_tuples,
)
from constellation_lab.permutations import cycles
from constellation_lab.tree_rooted import (
    best_compose,
    best_decompose,
    enumerate_eulerian_tours,
    enumerate_tree_rooted,
    phi,
    phi_inverse,
    tree_rooted_tour,
    xi,
)


def all_colored(n, k):
    for p in itertools.product(range(1, n + 1), repeat=k):
        yield from enumerate_colored_factorizations(n, k, p)


def test_xi_trivial_case():
    cf = next(enumerate_colored_factorizations(1, 2, (1, 1)))
    arcs = xi(cf)
    assert len(best_decompose(arcs, cf.colorings)) == 2
    assert arcs == ((2, 1), (1, 1))
    assert eulerian_tour_problem(cf.k, cf.n, cf.colorings, arcs) is None


def test_xi_tour_length_and_roundtrip():
    for cf in all_colored(3, 2):
        arcs = xi(cf)
        assert len(arcs) == cf.k * cf.n
        assert tree_rooted._xi_inverse(arcs, cf.colorings) == cf


def test_xi_inverse_matches_the_product_orbit_relabelling(monkeypatch):
    """On the criterion-4 phi domains and on random objects at n = 5..8,
    every tour that phi_inverse replays into the decoding core, and xi of
    every input, decodes as the oracle that composes the factors and walks
    the root's orbit does."""
    replayed = []
    core = tree_rooted._xi_inverse

    def recording(arcs, colorings):
        replayed.append((arcs, colorings))
        return core(arcs, colorings)

    monkeypatch.setattr(tree_rooted, "_xi_inverse", recording)
    rng = random.Random(22)
    cfs = [cf for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)] for cf in all_colored(n, k)]
    cfs += [
        random_colored_factorization(rng, n, k)
        for n in range(5, 9)
        for k in (2, 3)
        for _ in range(20)
    ]
    assert len(cfs) == 250
    for cf in cfs:
        assert phi_inverse(phi(cf)) == cf
    assert len(replayed) == len(cfs)
    for (arcs, colorings), cf in zip(replayed, cfs):
        assert eulerian_tour_problem(cf.k, cf.n, colorings, arcs) is None
        assert core(arcs, colorings) == xi_inverse_by_product_orbit(arcs, colorings)
    for cf in cfs:
        arcs = xi(cf)
        assert core(arcs, cf.colorings) == xi_inverse_by_product_orbit(arcs, cf.colorings) == cf


def _plain_digraph(arc_list):
    """(exits, head) of the digraph given as (arc id, tail, head) triples."""
    exits, heads = {}, {}
    for arc, tail, head in arc_list:
        exits.setdefault(tail, []).append(arc)
        heads[arc] = head
    return exits, lambda v, arc: heads[arc]


def test_best_two_vertex_digraph():
    # two vertices, two parallel arc-pairs each way; tours from u exist
    exits, head = _plain_digraph(
        (("a1", "u", "v"), ("a2", "u", "v"), ("b1", "v", "u"), ("b2", "v", "u"))
    )
    tours = list(enumerate_eulerian_tours("u", exits, head))
    assert tours
    for seq in tours:
        # last exit of the only non-start vertex forms the one-edge tree
        last_v_exit = [a for a in seq if a in exits["v"]][-1]
        assert head("v", last_v_exit) == "u"


THREE_VERTICES = (
    ("a1", "u", "v"),
    ("a2", "u", "v"),
    ("b1", "v", "u"),
    ("b2", "v", "u"),
    ("c1", "v", "w"),
    ("d1", "w", "v"),
    ("e1", "v", "v"),
)


def test_best_tour_count_equals_arborescence_order_pairs():
    exits, head = _plain_digraph(THREE_VERTICES)
    for v0 in ("u", "v", "w"):
        tours = sum(1 for _ in enumerate_eulerian_tours(v0, exits, head))
        pairs = 0
        for tree in digraph_arborescences(v0, exits, head):
            ways = 1
            for vert in ("u", "v", "w"):
                out = len(exits[vert])
                if vert != v0:
                    out -= 1  # the tree arc is pinned last
                ways *= factorial(out)
            pairs += ways
        assert tours == pairs


@pytest.mark.parametrize("n, k, count", [(3, 2, 648), (2, 3, 168), (4, 2, 31_104)])
def test_eulerian_tours_equal_the_recursive_search_on_prebidding_domains(n, k, count):
    # the successor digraphs that enumerate_valid_prebiddings searches
    exits = {t: tuple((t, i) for i in range(1, n + 1)) for t in range(1, k + 1)}
    tours = 0
    for mt in m_tuples(n, k):
        heads = {(t, i): alpha(t, s, k) for t in exits for i, s in enumerate(mt.subsets, start=1)}

        def head(_, arc):
            return heads[arc]

        got = list(enumerate_eulerian_tours(k, exits, head))
        assert got == list(eulerian_tours_by_recursion(k, exits, head)), mt.subsets
        tours += len(got)
    assert tours == count


def test_eulerian_tours_equal_the_recursive_search_on_small_digraphs():
    exits, head = _plain_digraph(THREE_VERTICES)
    for v0 in ("u", "v", "w"):
        assert list(enumerate_eulerian_tours(v0, exits, head)) == list(
            eulerian_tours_by_recursion(v0, exits, head)
        )
    # no arc: the empty tour, as the recursive search gives it
    assert list(enumerate_eulerian_tours("u", {}, head)) == [()]
    assert list(eulerian_tours_by_recursion("u", {}, head)) == [()]


def test_eulerian_tours_leave_no_reference_cycle():
    exits, head = _plain_digraph(THREE_VERTICES)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert sum(1 for _ in enumerate_eulerian_tours("v", exits, head)) > 0
        assert gc.collect() == 0
        # the recursive search's self-referencing closure is a cycle
        assert sum(1 for _ in eulerian_tours_by_recursion("v", exits, head)) > 0
        assert gc.collect() > 0
    finally:
        if enabled:
            gc.enable()


def test_best_decompose_compose_roundtrip():
    for cf in all_colored(3, 2):
        arcs = xi(cf)
        v0 = (cf.k, cf.colorings[cf.k - 1][0])
        exits = best_decompose(arcs, cf.colorings)
        assert best_compose(v0, exits, lambda v, arc: tour_head(cf.colorings, arc)) == arcs


def test_best_compose_replays_every_tour_from_its_exits():
    exits, head = _plain_digraph(THREE_VERTICES)
    for v0 in ("u", "v", "w"):
        for seq in enumerate_eulerian_tours(v0, exits, head):
            used = {v: tuple(a for a in seq if a in arcs) for v, arcs in exits.items()}
            assert best_compose(v0, used, head) == seq


def test_best_compose_rejects_last_exits_with_a_cycle_avoiding_v0():
    # the last exits of v and w (c1 and d1) form the cycle v -> w -> v
    exits, head = _plain_digraph(
        (("a1", "u", "v"), ("b1", "v", "u"), ("c1", "v", "w"), ("d1", "w", "v"))
    )
    with pytest.raises(ValueError, match="exits left unused"):
        best_compose("u", exits, head)


def test_best_compose_rejects_an_early_return_to_v0():
    # the last exits w -> v -> u do form a tree toward u, but no arc enters w,
    # so the walk is back at u for good with w's exit unused
    exits, head = _plain_digraph((("a1", "u", "v"), ("b1", "v", "u"), ("d1", "w", "v")))
    with pytest.raises(ValueError, match="exits left unused"):
        best_compose("u", exits, head)


def test_best_compose_rejects_a_walk_stuck_away_from_v0():
    # unbalanced: v has no exit, so the walk ends there
    exits, head = _plain_digraph((("a1", "u", "v"),))
    with pytest.raises(ValueError, match="stuck at vertex v"):
        best_compose("u", {**exits, "v": ()}, head)


def test_phi_trivial_case():
    cf = next(enumerate_colored_factorizations(1, 2, (1, 1)))
    t = phi(cf)
    assert t.validate() is None
    assert t.constellation.n == 1 and t.constellation.type_vector() == (1, 1)
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
            assert images == set(enumerate_tree_rooted(n, k, p))


def test_phi_builds_its_canonical_image_once():
    """phi numbers hyperedges root-first from the exit rotations before its
    one build; its image is the one the route that builds under the tour's
    labels and then takes the canonical form gives, on every criterion-4
    phi domain and on 160 seeded random objects at n = 5..8, k = 2, 3."""
    rng = random.Random(27)
    cfs = [cf for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)] for cf in all_colored(n, k)]
    cfs += [
        random_colored_factorization(rng, n, k)
        for n in range(5, 9)
        for k in (2, 3)
        for _ in range(20)
    ]
    for cf in cfs:
        assert phi(cf) == phi_by_canonical_form(cf)


def test_phi_root_vertex_has_type_k():
    for cf in all_colored(3, 2):
        t = phi(cf)
        c = t.constellation
        assert c.vertex_type[c.root_vertex - 1] == c.k
        assert t.arborescence.root_vertex == c.root_vertex


def test_phi_vertex_compositions_equal_color_compositions():
    for n, k in [(3, 2), (2, 3)]:
        for cf in all_colored(n, k):
            assert vertex_compositions(phi(cf)) == color_compositions(cf)


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
        # phi output is already canonical
        assert canonical_rooted(t.constellation, t.arborescence) == (t.constellation, t.arborescence)
        assert len(tree_rooted_tour(t)) == t.constellation.n * t.constellation.k


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


def test_tour_oracle_words_each_condition():
    """The tour condition xi meets by construction, as the tests check it."""
    cf = next(enumerate_colored_factorizations(2, 2, (1, 1)))
    arcs, colorings = xi(cf), cf.colorings
    assert eulerian_tour_problem(2, 2, colorings, arcs) is None
    non_surjective = (tuple(3 if c == 1 else c for c in colorings[0]),) + colorings[1:]
    for args, message in [
        ((3, 2, colorings, arcs), "colorings are not 3 maps on [2]"),
        ((2, 2, non_surjective, arcs), "coloring 1 is not surjective"),
        ((2, 2, colorings, arcs[:-1] + arcs[:1]), "tour does not use each arc exactly once"),
        ((2, 2, colorings, arcs[1:] + arcs[:1]), "tour does not start at a vertex of type k"),
        ((2, 2, colorings, arcs[2:] + arcs[:2]), None),
    ]:
        assert eulerian_tour_problem(*args) == message, args
    # type 1 has two classes, so swapping two type-2 arcs breaks the walk
    cf = next(enumerate_colored_factorizations(3, 2, (2, 1)))
    arcs = xi(cf)
    assert arcs == ((2, 1), (1, 2), (2, 3), (1, 3), (2, 2), (1, 1))
    swapped = arcs[:2] + (arcs[4], arcs[3], arcs[2]) + arcs[5:]
    assert eulerian_tour_problem(2, 3, cf.colorings, swapped) == (
        "arcs (2, 2) and (1, 3) are not consecutive"
    )


def test_phi_rejects_a_huge_color_without_sizing_a_set_by_it():
    from dataclasses import replace

    # p = (1, 1): each factor is one cycle, so one color value covers it
    cf = next(enumerate_colored_factorizations(2, 2, (1, 1)))
    bad = replace(cf, colorings=((10**30, 10**30),) + cf.colorings[1:])
    with pytest.raises(ValueError, match="coloring 1 is not surjective"):
        phi(bad)


def test_phi_inverse_rejects_invalid():
    t = phi(next(enumerate_colored_factorizations(2, 2, (1, 1))))
    from dataclasses import replace

    broken = replace(t, arborescence=replace(t.arborescence, root_vertex=1 + t.arborescence.root_vertex % 2))
    with pytest.raises(ValueError):
        phi_inverse(broken)
