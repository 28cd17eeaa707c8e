"""Tree-pointed constellations, nebulas, and the dual opening/closure pair.

Opening a tree-pointed constellation cuts, in the dual map, the edges
crossed by the marked arborescence; the result is a one-face map with
typed buds (a nebula) rooted at the dual of the root hyperedge.  Closing
a nebula matches buds like parentheses around its unique face (white buds
open, black buds close), glues them back into edges, and recovers the
tree-pointed constellation by dualizing; the pointed vertex is the dual
of the one face no glued pair closed off.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .constellations import (
    Arborescence,
    Constellation,
    _check_rooted_cap,
    _rooted_constellations,
    _validate_tree_pointed,
    arborescences_toward,
    constellation_from_dual,
    dual,
    enumerate_rooted_constellations,
)
from .counting import CheckReport, _check_size, _require
from .halfedges import BLACK, WHITE, HalfEdgeMap, with_twins_joined


@dataclass(frozen=True)
class TreePointedConstellation:
    """A rooted constellation with an arborescence toward any vertex."""

    constellation: Constellation
    arborescence: Arborescence

    def validate(self) -> Optional[str]:
        return _validate_tree_pointed(self.constellation, self.arborescence)


@dataclass(frozen=True)
class Nebula:
    """A rooted one-face map with typed buds and black vertices of degree k."""

    hmap: HalfEdgeMap

    @property
    def size(self) -> int:
        return self.hmap.vertex_color.count(BLACK)

    def black_vertices(self) -> list[int]:
        return [v for v, color in enumerate(self.hmap.vertex_color) if color == BLACK]

    def validate(self) -> Optional[str]:
        return validate_nebula(self.hmap)


def validate_nebula(m: HalfEdgeMap) -> Optional[str]:
    """First violated nebula condition, or None.  Its bud pass and its face
    test read the views that the map holds, ``m.buds_by_type`` and
    ``m.face_tour``, so :func:`closure`, the corner reading of
    :func:`~constellation_lab.biddings.vartheta` and
    :meth:`~constellation_lab.biddings.LabelledNebula.label_sets` read the
    tables this guard computed instead of walking the map again."""
    problem = m.validate()
    if problem is not None:
        return problem
    problem = _rotation_problem(m)
    if problem is not None:
        return problem
    buds = m.buds_by_type
    black_buds = [len(row) for row in buds[BLACK]]
    white_buds = [len(row) for row in buds[WHITE]]
    if black_buds != white_buds:
        return f"bud counts differ per type: black {black_buds}, white {white_buds}"
    # one face exactly when the tour from dart 0 meets every dart; the faces
    # are counted only to word the failure
    if not m.num_darts or len(m.face_tour) != m.num_darts:
        return f"nebula must have a single face, found {len(m.faces())}"
    if m.root is None:
        return "nebula is not rooted"
    if m.vertex_color[m.root] != BLACK:
        return "root vertex is not black"
    return None


def _rotation_problem(m: HalfEdgeMap) -> Optional[str]:
    """The first vertex whose rotation breaks a nebula condition, worded.

    One walk of the ``next`` cycles (:meth:`HalfEdgeMap.rotations`); each
    vertex's types are tested by their cyclic step, up by one around a
    black vertex and down by one around a white one, and a black vertex's
    types are sorted only to word a failure.  Types in [k] that step by one
    are the run from their first type: at a black vertex of degree k it is
    1..k in cyclic order, so a missing type fails the step too, and around
    a white vertex the step closes up exactly when the degree is a multiple
    of k.
    """
    k, vertex, twin, type_, color = m.k, m.vertex, m.twin, m.type, m.vertex_color
    rotations = m.rotations()
    # up[a - 1:a - 1 + d] and down[k - a:k - a + d]: the d types from type a
    # stepping up, or down, by one
    up = [*range(1, k + 1)] * 2
    down = [*range(k, 0, -1)] * (len(vertex) // k + 2)
    for v, rot in enumerate(rotations):
        types = [type_[x] for x in rot]
        if color[v] == BLACK:
            if len(rot) != k:
                return f"black vertex {v} has degree {len(rot)}"
            a = types[0]
            if types != up[a - 1 : a - 1 + k]:
                if sorted(types) != up[:k]:
                    return f"black vertex {v} misses a type"
                return f"types do not increase clockwise at black vertex {v}"
        elif rot and (len(rot) % k or types != down[k - types[0] : k - types[0] + len(rot)]):
            return f"types do not decrease clockwise at white vertex {v}"
        for x in rot:
            t = twin[x]
            if t is not None and color[vertex[t]] == color[v]:
                return f"edge at dart {x} joins two {color[v]} vertices"
    # rotations() keeps one next-cycle per vertex, so it covers every dart
    # exactly when no vertex has two
    if sum(map(len, rotations)) != m.num_darts:
        degree = Counter(vertex)
        v = next(v for v, rot in enumerate(rotations) if len(rot) != degree[v])
        return f"the darts at vertex {v} form more than one rotation cycle"
    return None


# ---------------------------------------------------------------------------
# Dual opening
# ---------------------------------------------------------------------------


def dual_opening(tp: TreePointedConstellation) -> Nebula:
    """Cut the dual edges crossed by the arborescence; yields a rooted nebula.
    Raises ValueError on invalid input; the guard-free core is
    :func:`_dual_opening`.  The output is valid by construction and is
    checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    _require(tp.validate())
    return _dual_opening(tp)


def _dual_opening(tp: TreePointedConstellation) -> Nebula:
    """:func:`dual_opening` without its input guard, for the ``lambda``
    roundtrip, whose objects come valid from :func:`enumerate_tree_pointed`."""
    return Nebula(hmap=dual(tp.constellation, tp.arborescence.edges()))


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------


def _bud_word(m: HalfEdgeMap) -> list[int]:
    """The buds in clockwise-tour order around the (single) face, from the
    first bud: the buds of ``m.face_tour``, turned to start at the least."""
    twin = m.twin
    word = [x for x in m.face_tour if twin[x] is None]
    if not word:
        return []
    i = word.index(min(word))
    return word[i:] + word[:i]


def _match_parenthesis(m: HalfEdgeMap, word: list[int]) -> list[tuple[int, int]]:
    """Match white buds (open) to black buds (close) on the cyclic word."""
    vertex, vertex_color = m.vertex, m.vertex_color
    stack: list[int] = []
    early_black: list[int] = []
    pairs: list[tuple[int, int]] = []
    for x in word:
        if vertex_color[vertex[x]] == WHITE:
            stack.append(x)
        elif stack:
            pairs.append((stack.pop(), x))
        else:
            early_black.append(x)
    if len(stack) != len(early_black):
        raise ValueError("unbalanced buds")
    for b in early_black:
        pairs.append((stack.pop(), b))
    return pairs


def closure(nb: Nebula) -> tuple[HalfEdgeMap, tuple[tuple[int, int], ...]]:
    """Glue matching buds recursively; returns the dual-constellation and the
    bud-edges as (white dart, black dart) pairs, oriented white to black.

    The bud word is read off the one-face tour that the nebula guard
    checked and that the map holds (``m.face_tour``); the map is not walked
    again."""
    m = nb.hmap
    pairs = _match_parenthesis(m, _bud_word(m))
    closed = with_twins_joined(m, pairs)
    return closed, tuple(pairs)


def dual_closure(nb: Nebula) -> TreePointedConstellation:
    """Rebuild the tree-pointed constellation whose opening is the nebula.

    Each glued bud pair is a bud-edge, oriented white to black; the face on
    its right (the one whose tour traverses the black-side dart) is the
    face it closed, and the dual of the bud-edge is that face's parent
    edge.  The pointed vertex is the dual of the one face no bud-edge
    closed.  Raises ValueError on invalid input.  The output is valid by
    construction and is checked only in tests (criterion 4,
    ``tests/test_validate_once.py``).
    """
    if None not in nb.hmap.twin:
        raise ValueError("nebula has no buds: no pointed vertex to recover")
    _require(nb.validate())
    closed, bud_edges = closure(nb)
    c, hyperedge_of_black, vertex_of_dart = constellation_from_dual(closed)
    parent: list[Optional[tuple[int, int]]] = [None] * c.num_vertices
    for _, b in bud_edges:
        h = hyperedge_of_black[closed.vertex[b]]
        t = closed.type[b]
        v = vertex_of_dart[b]
        if parent[v - 1] is not None:
            raise AssertionError(f"vertex {v} closed by two bud-edges")
        parent[v - 1] = (h, t)
    unclosed = [v for v in range(1, c.num_vertices + 1) if parent[v - 1] is None]
    if len(unclosed) != 1:
        raise AssertionError("closing edges do not leave a unique pointed vertex")
    return TreePointedConstellation(
        constellation=c,
        arborescence=Arborescence(root_vertex=unclosed[0], parent_edge=tuple(parent)),
    )


# ---------------------------------------------------------------------------
# Enumeration and the pointing correspondence
# ---------------------------------------------------------------------------


def enumerate_tree_pointed(
    n: int, k: int, cap: Optional[int] = None
) -> Iterator[TreePointedConstellation]:
    """All tree-pointed constellations of size n (canonical forms); ``cap``
    bounds the rooted-constellation domain they are built from."""
    for c in enumerate_rooted_constellations(n, k, cap=cap):
        for v0 in range(1, c.num_vertices + 1):
            for arb in arborescences_toward(c, v0):
                yield TreePointedConstellation(constellation=c, arborescence=arb)


@lru_cache(maxsize=None)
def _pointing_census(n: int, k: int) -> tuple[Mapping[tuple[int, ...], int], ...]:
    """Both sides of the pointing correspondence, from one pass per size.

    Returns ``(pointed, rooted)``: tree-pointed objects counted by reduced
    type, and unlabelled tree-rooted objects (arborescences toward the
    root vertex) counted by type.  Labels are free within each type, so a
    type p has ``rooted[p] * prod p_t!`` labelled tree-rooted objects.
    Memoized per (n, k); callers check the size and the cap first.
    """
    pointed: dict[tuple[int, ...], int] = {}
    rooted: dict[tuple[int, ...], int] = {}
    for c in _rooted_constellations(n, k):
        p = c.type_vector()
        for v0 in range(1, c.num_vertices + 1):
            count = sum(1 for _ in arborescences_toward(c, v0))
            t0 = c.vertex_type[v0 - 1]
            reduced = p[: t0 - 1] + (p[t0 - 1] - 1,) + p[t0:]
            pointed[reduced] = pointed.get(reduced, 0) + count
            if v0 == c.root_vertex:
                rooted[p] = rooted.get(p, 0) + count
    return MappingProxyType(pointed), MappingProxyType(rooted)


def _labellings(p: Sequence[int]) -> int:
    return prod(factorial(x) for x in p)


def verify_pointing(n: int, k: int, p: Sequence[int], cap: Optional[int] = None) -> CheckReport:
    """Pointing correspondence: tree-pointed objects of reduced type p times
    the product of p_t! against the labelled tree-rooted unions; ``cap``
    bounds the rooted-constellation domain both sides are counted on."""
    _check_size(n, k, p, n_min=1, k_min=2, p_min=0)
    p = tuple(p)
    _check_rooted_cap(n, k, cap)
    pointed, rooted = _pointing_census(n, k)
    lhs = pointed.get(p, 0) * _labellings(p)
    rhs = 0
    for t in range(1, k + 1):
        bumped = tuple(x + (1 if s == t else 0) for s, x in enumerate(p, start=1))
        rhs += rooted.get(bumped, 0) * _labellings(bumped)
    return CheckReport(
        name="pointing",
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        params=(("n", n), ("k", k), ("p", p)),
    )
