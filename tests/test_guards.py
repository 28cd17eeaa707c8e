"""Every message of the guards on the bijection chain, pinned word for word.

``ColoredFactorization.validate``, ``constellations.validate``,
``validate_arborescence``, ``HalfEdgeMap.validate``, ``validate_nebula`` and
``LabelledNebula.validate`` each read an object's tables once.  Two of them
test a condition in one pass and walk further only to word a failure:
``ColoredFactorization.validate`` walks cycles only to name one that a
coloring is not constant on, and ``validate_nebula`` counts the faces only
when the tour from dart 0 misses a dart, and the darts per vertex only when
the rotations it reads miss one.  Each table below holds one input
per message, and one input with two defects: the message of the defect the
guard meets first, in its reporting order, is the one it must give.
"""
from dataclasses import replace

import pytest
from oracles import from_cycles, identity

from constellation_lab.biddings import Bidding, psi_inverse
from constellation_lab.constellations import (
    Arborescence,
    Constellation,
    dual,
    from_permutations,
    validate,
    validate_arborescence,
)
from constellation_lab.counting import ColoredFactorization
from constellation_lab.halfedges import BLACK, WHITE, HalfEdgeMap
from constellation_lab.nebulas import (
    Nebula,
    dual_closure,
    dual_opening,
    enumerate_tree_pointed,
    validate_nebula,
)
from constellation_lab.permutations import Permutation, compose, inverse, long_cycle


def colored(second, colorings):
    """(1,...,5) = pi_1 pi_2 with pi_2 given by its cycles."""
    pi2 = from_cycles(5, second)
    return ColoredFactorization(
        perms=(compose(long_cycle(5), inverse(pi2)), pi2), colorings=colorings
    )


ONE = (1, 1, 1, 1, 1)
# pi_2 = (1,4,3)(2,5): colors 1,1,2 on the first cycle and 3,4 on the second;
# a change of color first follows dart 2, in the second cycle
UNEVEN = (1, 3, 2, 1, 4)


@pytest.mark.parametrize(
    "cf, message",
    [
        (
            ColoredFactorization(
                perms=(long_cycle(3), identity(2)), colorings=((1,) * 3, (1,) * 2)
            ),
            "size mismatch",
        ),
        (
            ColoredFactorization(perms=(identity(3), identity(3)), colorings=((1,) * 3,) * 2),
            "product is not the long cycle",
        ),
        (colored([[1, 4, 3], [2, 5]], ((1,) * 4, ONE)), "coloring 1 has wrong length"),
        (colored([[1, 4, 3], [2, 5]], (ONE, UNEVEN)), "coloring 2 not constant on cycle [1, 4, 3]"),
        (colored([[1, 4, 3], [2, 5]], (ONE, (2, 2, 2, 2, 2))), "coloring 2 is not surjective"),
        # two defects: coloring 1 is not surjective, coloring 2 not constant
        (
            colored([[1, 4, 3], [2, 5]], ((3,) * 5, UNEVEN)),
            "coloring 1 is not surjective",
        ),
    ],
)
def test_colored_factorization_messages(cf, message):
    assert cf.validate() == message


def fig2(root=2, **fields):
    c = from_permutations(
        (
            from_cycles(5, [[1, 2, 5], [3, 4]]),
            from_cycles(5, [[1, 3]]),
            from_cycles(5, [[1, 4]]),
        ),
        root=root,
    )
    return replace(c, **fields)


FIG2 = fig2()
LABELS = tuple(
    FIG2.vertices_of_type(t).index(v) + 1 for v, t in enumerate(FIG2.vertex_type, start=1)
)
TWO_COMPONENTS = Constellation(
    k=2,
    n=2,
    hyperedges=((1, 3), (2, 4)),
    vertex_type=(1, 1, 2, 2),
    rotation=((1,), (2,), (1,), (2,)),
)


@pytest.mark.parametrize(
    "c, message",
    [
        (replace(FIG2, k=1), "k must be at least 2"),
        (replace(FIG2, n=0), "n must be at least 1"),
        (replace(FIG2, hyperedges=FIG2.hyperedges[:4]), "wrong number of hyperedges"),
        (
            replace(
                FIG2,
                hyperedges=FIG2.hyperedges[:1] + (FIG2.hyperedges[1][:2],) + FIG2.hyperedges[2:],
            ),
            "hyperedge 2 does not have one vertex per type",
        ),
        (
            replace(FIG2, hyperedges=((99,) + FIG2.hyperedges[0][1:],) + FIG2.hyperedges[1:]),
            "hyperedge 1 references unknown vertex 99",
        ),
        (
            replace(FIG2, hyperedges=((FIG2.hyperedges[0][1],) * 3,) + FIG2.hyperedges[1:]),
            "hyperedge 1 slot 1 holds a vertex of type 2",
        ),
        (
            replace(FIG2, rotation=((1, 2, 1),) + FIG2.rotation[1:]),
            "rotation at vertex 1 repeats a hyperedge",
        ),
        (
            replace(FIG2, rotation=(FIG2.rotation[0][:-1],) + FIG2.rotation[1:]),
            "rotation incomplete at vertex 1",
        ),
        (
            replace(FIG2, vertex_type=FIG2.vertex_type + (1,), rotation=FIG2.rotation + ((),)),
            f"vertex {FIG2.num_vertices + 1} is isolated",
        ),
        (TWO_COMPONENTS, "not transitive"),
        (fig2(root=6), "root hyperedge 6 out of range"),
        (fig2(labels=(1,) * FIG2.num_vertices), "labels of type 1 are not a bijection onto [2]"),
        (
            fig2(labels=LABELS, colors=(1, 2) + (3,) * (FIG2.num_vertices - 2)),
            "colors of type 2 are not surjective",
        ),
        # two defects: the root is out of range and the labels are not a bijection
        (fig2(root=0, labels=(1,) * FIG2.num_vertices), "root hyperedge 0 out of range"),
    ],
)
def test_constellation_messages(c, message):
    assert validate(c) == message


# k = 2, n = 2: one type-1 vertex on both hyperedges, one type-2 vertex each
PAIR = from_permutations((long_cycle(2), identity(2)), root=1)
TOWARD_3 = Arborescence(root_vertex=3, parent_edge=((2, 1), (1, 2), None))


@pytest.mark.parametrize(
    "a, message",
    [
        (replace(TOWARD_3, parent_edge=TOWARD_3.parent_edge[:2]), "parent_edge has wrong length"),
        (replace(TOWARD_3, root_vertex=4), "root vertex out of range"),
        (replace(TOWARD_3, parent_edge=((2, 1), (1, 2), (2, 2))), "root vertex has a parent edge"),
        (replace(TOWARD_3, parent_edge=((2, 1), None, None)), "vertex 2 has no parent edge"),
        (
            replace(TOWARD_3, parent_edge=((2, 2), (1, 2), None)),
            "parent edge of vertex 1 has type 2, vertex has type 1",
        ),
        (
            replace(TOWARD_3, parent_edge=((2, 1), (2, 2), None)),
            "parent edge of vertex 2 is not incident to it",
        ),
        # 1 -> 2 -> 1, and vertex 3 is the root
        (replace(TOWARD_3, parent_edge=((1, 1), (1, 2), None)), "parent edges cycle at vertex 1"),
        # two defects: vertex 1's edge has the wrong type, vertex 2 has none
        (
            replace(TOWARD_3, parent_edge=((2, 2), None, None)),
            "parent edge of vertex 1 has type 2, vertex has type 1",
        ),
    ],
)
def test_arborescence_messages(a, message):
    assert validate_arborescence(PAIR, TOWARD_3) is None
    assert validate_arborescence(PAIR, a) == message


# the opened dual of the size-1 constellation at k = 3: black vertex 0 with
# darts 0, 1, 2 of types 1, 2, 3, white vertex 1 with darts 3, 4, 5; the one
# edge joins darts 0 and 3, the other four darts are buds
NEBULA = HalfEdgeMap(
    k=3,
    vertex=(0, 0, 0, 1, 1, 1),
    nxt=(1, 2, 0, 5, 3, 4),
    twin=(3, None, None, 0, None, None),
    type=(1, 2, 3, 1, 2, 3),
    vertex_color=(BLACK, WHITE),
    root=0,
)
# k = 2: two black vertices, each with darts of types 1 and 2, and one white
# vertex joined to the second; the first one's darts are both buds
UNBALANCED = HalfEdgeMap(
    k=2,
    vertex=(0, 0, 1, 1, 2, 2),
    nxt=(1, 0, 3, 2, 5, 4),
    twin=(None, None, 4, 5, 2, 3),
    type=(1, 2, 1, 2, 1, 2),
    vertex_color=(BLACK, BLACK, WHITE),
    root=0,
)


@pytest.mark.parametrize(
    "m, message",
    [
        (replace(NEBULA, vertex=(0, 0, 0, 1, 1, 2)), "a dart's vertex is out of range"),
        (replace(NEBULA, root=5), "root is not a vertex"),
        (replace(NEBULA, nxt=(1, 2, 0, 5, 3, 7)), "next[5] out of range"),
        (replace(NEBULA, nxt=(1, 2, 3, 5, 0, 4)), "next[2] leaves vertex 0"),
        (replace(NEBULA, type=(1, 2, 3, 1, 2, 4)), "type[5] not in [k]"),
        (replace(NEBULA, twin=(3, None, None, 0, None, 9)), "twin[5] is not a dart"),
        (replace(NEBULA, twin=(3, None, None, 0, 1, None)), "twin not an involution at 4"),
        (replace(NEBULA, twin=(3, 1, None, 0, None, None)), "dart 1 is its own twin"),
        (replace(NEBULA, twin=(3, 5, None, 0, None, 1)), "twin pair 1,5 types differ"),
        (replace(NEBULA, nxt=(1, 2, 0, 5, 3, 3)), "next is not a permutation of the darts"),
        (replace(NEBULA, vertex_color=(BLACK, "grey")), "vertex 1 has invalid color"),
        # two defects: dart 2 leaves its vertex and dart 5 has no type in [k]
        (
            replace(NEBULA, nxt=(1, 2, 3, 5, 0, 4), type=(1, 2, 3, 1, 2, 4)),
            "next[2] leaves vertex 0",
        ),
    ],
)
def test_halfedge_map_messages(m, message):
    assert NEBULA.validate() is None
    assert m.validate() == message
    assert validate_nebula(m) == message


@pytest.mark.parametrize(
    "m, message",
    [
        (
            replace(NEBULA, vertex=(0, 0, 1, 1, 1, 1), nxt=(1, 0, 3, 5, 2, 4)),
            "black vertex 0 has degree 2",
        ),
        (replace(NEBULA, type=(1, 3, 3, 1, 2, 3)), "black vertex 0 misses a type"),
        (
            replace(NEBULA, nxt=(2, 0, 1, 5, 3, 4)),
            "types do not increase clockwise at black vertex 0",
        ),
        (
            replace(NEBULA, nxt=(1, 2, 0, 4, 5, 3)),
            "types do not decrease clockwise at white vertex 1",
        ),
        (replace(NEBULA, vertex_color=(BLACK, BLACK)), "edge at dart 0 joins two black vertices"),
        (UNBALANCED, "bud counts differ per type: black [1, 1], white [0, 0]"),
        (
            dual(from_permutations((identity(1),) * 3, root=1), ()),
            "nebula must have a single face, found 3",
        ),
        (replace(NEBULA, root=None), "nebula is not rooted"),
        (replace(NEBULA, root=1), "root vertex is not black"),
        # two defects: vertex 0 misses a type and vertex 1 does not decrease
        (
            replace(NEBULA, type=(1, 3, 3, 1, 2, 3), nxt=(1, 2, 0, 4, 5, 3)),
            "black vertex 0 misses a type",
        ),
    ],
)
def test_nebula_messages(m, message):
    assert validate_nebula(NEBULA) is None
    assert validate_nebula(m) == message


def test_nebula_rejects_a_vertex_with_two_rotation_cycles():
    # the first opened size-2 nebula with 4 vertices, its two white vertices
    # merged: darts 4..7 sit at white vertex 2 in the cycles (4, 7), (5, 6)
    opened = (dual_opening(tp).hmap for tp in enumerate_tree_pointed(2, 2))
    m = next(m for m in opened if m.num_vertices == 4)
    assert m.vertex_color == (BLACK, BLACK, WHITE, WHITE)
    merged = replace(m, vertex=m.vertex[:4] + (2,) * 4, vertex_color=m.vertex_color[:3])
    assert merged.nxt[4:] == (7, 6, 5, 4) and merged.rotations()[2] == (5, 6)
    message = "the darts at vertex 2 form more than one rotation cycle"
    assert validate_nebula(m) is None
    assert validate_nebula(merged) == message
    with pytest.raises(ValueError, match=f"^{message}$"):
        dual_closure(Nebula(merged))


LABELLED = psi_inverse(
    Bidding(
        omegas=(Permutation((1, 4, 3, 2)), Permutation((3, 2, 1, 4)), Permutation((4, 1, 3, 2))),
        subsets=(frozenset({2}), frozenset({2, 3}), frozenset({1, 2}), frozenset({2, 3})),
    )
)
(BUD, BUD_LABEL), *OTHER_BUDS = LABELLED.white_bud_labels


@pytest.mark.parametrize(
    "ln, message",
    [
        (
            replace(
                LABELLED,
                nebula=replace(LABELLED.nebula, hmap=replace(LABELLED.nebula.hmap, root=None)),
            ),
            "nebula is not rooted",
        ),
        (
            replace(LABELLED, black_labels=((0, 2),) + LABELLED.black_labels[1:]),
            "black labels are not a bijection onto [n]",
        ),
        (
            replace(LABELLED, white_bud_labels=tuple(OTHER_BUDS)),
            "white bud labels do not cover exactly the white buds",
        ),
        (
            replace(LABELLED, white_bud_labels=((BUD, 99), *OTHER_BUDS)),
            f"white bud labels of type {LABELLED.nebula.hmap.type[BUD]} "
            "are not the black-bud labels",
        ),
        # two defects: the black labels repeat and a white bud is unlabelled
        (
            replace(
                LABELLED,
                black_labels=((0, 2),) + LABELLED.black_labels[1:],
                white_bud_labels=tuple(OTHER_BUDS),
            ),
            "black labels are not a bijection onto [n]",
        ),
    ],
)
def test_labelled_nebula_messages(ln, message):
    assert LABELLED.validate() is None
    assert ln.validate() == message
