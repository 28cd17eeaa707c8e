import itertools
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from oracles import (
    _match_fixpoint,
    canonical_rooted,
    identity,
    is_parenthesis_nebula,
    nebula_key,
    nebula_type_vector,
    pointing_counts_naive,
)

from constellation_lab.constellations import Arborescence, from_permutations
from constellation_lab.halfedges import BLACK, WHITE, HalfEdgeMap, typed_map
from constellation_lab.nebulas import (
    Nebula,
    TreePointedConstellation,
    _bud_word,
    _match_parenthesis,
    closure,
    dual_closure,
    dual_opening,
    enumerate_tree_pointed,
    verify_pointing,
)


def canonical_tree_pointed(tp):
    return TreePointedConstellation(*canonical_rooted(tp.constellation, tp.arborescence))


def size_one_pointed(k=3, v0_type=3):
    c = from_permutations((identity(1),) * k, root=1)
    v0 = c.hyperedges[0][v0_type - 1]
    parent = [None] * c.num_vertices
    for t in range(1, k + 1):
        if t != v0_type:
            parent[c.hyperedges[0][t - 1] - 1] = (1, t)
    return TreePointedConstellation(
        constellation=c,
        arborescence=Arborescence(root_vertex=v0, parent_edge=tuple(parent)),
    )


def test_dual_opening_size_one():
    tp = size_one_pointed(k=3, v0_type=3)
    nb = dual_opening(tp)
    assert nb.validate() is None
    assert nb.size == 1
    assert nebula_type_vector(nb) == (1, 1, 0)
    m = nb.hmap
    black_bud_types = sorted(
        m.type[x] for x in m.buds if m.vertex_color[m.vertex[x]] == BLACK
    )
    assert black_bud_types == [1, 2]


def test_dual_opening_bud_types_match_tree_edge_types():
    for n, k in [(2, 3), (3, 3)]:
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            tree_types = Counter(t for _, t in tp.arborescence.edges())
            assert nebula_type_vector(nb) == tuple(tree_types.get(t, 0) for t in range(1, k + 1))
            assert len(nb.hmap.faces()) == 1


@pytest.mark.parametrize("n, k", [(3, 2), (2, 3), (3, 3)])
def test_buds_by_type_partitions_the_buds(n, k):
    for tp in enumerate_tree_pointed(n, k):
        m = dual_opening(tp).hmap
        census = m.buds_by_type
        assert set(census) == {BLACK, WHITE}
        for color, by_type in census.items():
            assert len(by_type) == k
            for t, buds in enumerate(by_type, start=1):
                assert list(buds) == sorted(buds)
                assert all(m.twin[x] is None and m.type[x] == t for x in buds)
                assert all(m.vertex_color[m.vertex[x]] == color for x in buds)
        every = sorted(x for by_type in census.values() for buds in by_type for x in buds)
        assert every == list(m.buds)


@pytest.mark.parametrize(
    "white_next, buds, slot",
    [
        ({(0, 1): (1, 1)}, (), "(0, 1)"),
        ({(1, 1): (2, 4)}, (), "(2, 4)"),
        ({(1, 1): (3, 1)}, (), "(3, 1)"),
        ({(1, 1): (2, 2), (2, 2): (1, 0)}, (), "(1, 0)"),
        ({(1, 1): (2, 2)}, [(2, 2), (-1, 2)], "(-1, 2)"),
        ({(1, 1): (2, 2)}, [(2, 4)], "(2, 4)"),
    ],
)
def test_typed_map_names_the_first_slot_outside_the_grid(white_next, buds, slot):
    """Slots are read in order, each source before its successor, and the
    first one outside [n] x [k] is named, whatever follows it."""
    with pytest.raises(ValueError, match=re.escape(f"slot {slot} is not in [2] x [3]") + "$"):
        typed_map(3, 2, white_next, buds, None)


def test_closure_of_budless_map_is_identity():
    from constellation_lab.constellations import dual

    d = dual(from_permutations((identity(1),) * 3, root=1), ())
    closed, bud_edges = closure(Nebula(hmap=d))
    assert bud_edges == ()
    assert closed == d


def test_closure_rejects_more_black_buds_than_white():
    tp = next(iter(enumerate_tree_pointed(2, 2)))
    m = dual_opening(tp).hmap
    (x,) = [x for x in m.buds if m.vertex_color[m.vertex[x]] == WHITE]
    colors = list(m.vertex_color)
    colors[m.vertex[x]] = BLACK
    with pytest.raises(ValueError, match="unbalanced buds"):
        closure(Nebula(hmap=replace(m, vertex_color=tuple(colors))))


def test_closure_strategies_agree_and_types_match():
    for n, k in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            m = nb.hmap
            word = _bud_word(m)
            a = set(map(tuple, _match_parenthesis(m, word)))
            b = set(map(tuple, _match_fixpoint(m, word)))
            assert a == b
            for w, x in a:
                assert m.type[w] == m.type[x]
                assert m.vertex_color[m.vertex[w]] == WHITE
                assert m.vertex_color[m.vertex[x]] == BLACK
            assert len(a) == len(tp.arborescence.edges())


LAMBDA_GRID = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]


def test_enumerated_tree_pointed_objects_are_canonical():
    for n, k in LAMBDA_GRID:
        for tp in enumerate_tree_pointed(n, k):
            assert canonical_tree_pointed(tp) == tp


def test_dual_closure_inverts_opening():
    for n, k in LAMBDA_GRID:
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            back = dual_closure(nb)
            assert back == tp  # no canonical form: the closure keeps every label
            assert nebula_key(dual_opening(back)) == nebula_key(nb)


def _renumbered(m, rng):
    """m with its dart ids and its vertex ids shuffled."""
    darts = list(range(m.num_darts))
    verts = list(range(m.num_vertices))
    rng.shuffle(darts)
    rng.shuffle(verts)
    old_dart = {y: x for x, y in enumerate(darts)}
    old_vert = {w: v for v, w in enumerate(verts)}
    olds = [old_dart[y] for y in range(m.num_darts)]
    return HalfEdgeMap(
        k=m.k,
        vertex=tuple(verts[m.vertex[x]] for x in olds),
        nxt=tuple(darts[m.nxt[x]] for x in olds),
        twin=tuple(None if m.twin[x] is None else darts[m.twin[x]] for x in olds),
        type=tuple(m.type[x] for x in olds),
        vertex_color=tuple(m.vertex_color[old_vert[w]] for w in range(m.num_vertices)),
        root=verts[m.root],
    )


def test_dual_closure_reads_any_dart_and_vertex_numbering():
    # openings number their darts as halfedges.typed_map does; the closure
    # must not lean on that numbering
    rng = random.Random(4970)
    grid = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (2, 4)]
    for n, k in grid:
        for tp in enumerate_tree_pointed(n, k):
            nb = Nebula(hmap=_renumbered(dual_opening(tp).hmap, rng))
            assert nb.validate() is None
            back = dual_closure(nb)
            assert back.validate() is None
            assert canonical_tree_pointed(back) == tp


def test_dual_closure_size_one_inverts():
    tp = size_one_pointed(k=3, v0_type=3)
    assert dual_closure(dual_opening(tp)) == tp


def test_verify_pointing_small():
    for n in (1, 2):
        for p in itertools.product(range(0, n + 1), repeat=2):
            r = verify_pointing(n, 2, p)
            assert r.equal, r
    empty = verify_pointing(1, 2, (1, 1))  # both sides vanish
    assert empty.equal and empty.lhs == 0 and empty.rhs == 0


POINTING_GRID = [(n, 2) for n in (1, 2, 3, 4)] + [(n, 3) for n in (1, 2, 3)] + [(1, 4), (2, 4)]


@pytest.mark.parametrize("n, k", POINTING_GRID)
def test_pointing_census_matches_the_naive_walk(n, k):
    for p in itertools.product(range(0, n + 2), repeat=k):
        r = verify_pointing(n, k, p)
        assert (r.lhs, r.rhs) == pointing_counts_naive(n, k, p), p


def test_parenthesis_budless_is_true():
    from constellation_lab.constellations import dual

    d = dual(from_permutations((identity(1),) * 2, root=1), ())
    rep = is_parenthesis_nebula(Nebula(hmap=d))
    assert rep.is_parenthesis


def test_tour_and_parenthesis_check_end_on_a_malformed_map():
    # both darts step to dart 0, so the tour from dart 1 never comes back
    m = HalfEdgeMap(
        k=2,
        vertex=(0, 0),
        nxt=(0, 0),
        twin=(None, None),
        type=(1, 2),
        vertex_color=(BLACK,),
        root=0,
    )
    assert m.tour(1) == [1, 0]
    assert m.faces() == [(0,), (1,)]
    assert is_parenthesis_nebula(Nebula(hmap=m)).started_at_bud


def test_parenthesis_iff_tree_rooted():
    for n, k in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            rep = is_parenthesis_nebula(nb)
            tree_rooted = tp.arborescence.root_vertex == tp.constellation.root_vertex
            assert rep.is_parenthesis == tree_rooted


def test_openings_of_tree_rooted_are_parenthesis():
    for tp in enumerate_tree_pointed(3, 2):
        if tp.arborescence.root_vertex == tp.constellation.root_vertex:
            assert is_parenthesis_nebula(dual_opening(tp)).is_parenthesis


def test_nebula_validation_rejects_unrooted():
    tp = size_one_pointed()
    nb = dual_opening(tp)
    from dataclasses import replace

    bad = Nebula(hmap=replace(nb.hmap, root=None))
    assert bad.validate() == "nebula is not rooted"
    with pytest.raises(ValueError, match="not rooted"):
        dual_closure(bad)


def test_dual_closure_needs_buds():
    from constellation_lab.constellations import dual

    d = dual(from_permutations((identity(1),) * 3, root=1), ())
    with pytest.raises(ValueError, match="no buds"):
        dual_closure(Nebula(hmap=d))
