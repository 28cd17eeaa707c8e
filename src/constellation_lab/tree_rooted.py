"""From colored factorizations to tree-rooted constellations and back.

The forward direction reads the unique white face of the cactus of a
colored factorization as an Eulerian tour of a typed digraph whose
vertices are the (type, color) classes, splits the tour into a last-exit
arborescence plus residual exit orders, and reassembles those as a
rotation system: a vertex-labelled constellation with a marked spanning
tree oriented to the root vertex.  Every step is order-determined, so
both directions are deterministic.

Conventions.  The white-face tour of the cactus of (pi_1,...,pi_k) visits
the edge of type t+1 of hyperedge pi_{t+1}^{-1}(g) right after the type-t
edge of hyperedge g; the tour of the canonical input (product equal to
(1,2,...,n), root hyperedge 1) starts with the type-k edge of hyperedge 1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Optional, Sequence

from .constellations import (
    Arborescence,
    Constellation,
    _norm_cycle,
    arborescences_toward,
    enumerate_rooted_constellations,
    relabel_arborescence,
    relabel_hyperedges,
    validate,
    validate_arborescence,
)
from .counting import ColoredFactorization
from .permutations import Composition, Permutation, compose_all, inverse

Arc = tuple[int, int]  # (type, hyperedge label)
DigraphVertex = tuple[int, int]  # (type, color)


@dataclass(frozen=True)
class ColoredDigraph:
    """Typed digraph on (type, color) classes with one arc per (type, label).

    The arc (t, i) runs from (t, colorings[t-1][i-1]) to the class of i in
    type t+1; in/out degrees balance at every vertex by construction.
    """

    k: int
    n: int
    colorings: tuple[tuple[int, ...], ...]

    def tail(self, arc: Arc) -> DigraphVertex:
        t, i = arc
        return (t, self.colorings[t - 1][i - 1])

    def head(self, arc: Arc) -> DigraphVertex:
        t, i = arc
        t2 = t % self.k + 1
        return (t2, self.colorings[t2 - 1][i - 1])

    def arcs(self) -> list[Arc]:
        return [(t, i) for t in range(1, self.k + 1) for i in range(1, self.n + 1)]


@dataclass(frozen=True)
class EulerianDigraphTour:
    """An Eulerian arc sequence starting and ending at a type-k vertex."""

    digraph: ColoredDigraph
    arcs: tuple[Arc, ...]

    def validate(self) -> Optional[str]:
        dg = self.digraph
        if len(dg.colorings) != dg.k or any(len(col) != dg.n for col in dg.colorings):
            return f"colorings are not {dg.k} maps on [{dg.n}]"
        for t, col in enumerate(dg.colorings, start=1):
            used = set(col)
            if used != set(range(1, len(used) + 1)):
                return f"coloring {t} is not surjective"
        if sorted(self.arcs) != sorted(dg.arcs()):
            return "tour does not use each arc exactly once"
        if dg.tail(self.arcs[0])[0] != dg.k:
            return "tour does not start at a vertex of type k"
        for a, b in zip(self.arcs, self.arcs[1:] + self.arcs[:1]):
            if dg.head(a) != dg.tail(b):
                return f"arcs {a} and {b} are not consecutive"
        return None


@dataclass(frozen=True)
class TreeRootedConstellation:
    """A rooted vertex-labelled constellation with a root-vertex arborescence."""

    constellation: Constellation
    arborescence: Arborescence

    @property
    def k(self) -> int:
        return self.constellation.k

    @property
    def n(self) -> int:
        return self.constellation.n

    def type_vector(self) -> tuple[int, ...]:
        return self.constellation.type_vector()

    def vertex_compositions(self) -> tuple[Composition, ...]:
        """Per type, the composition of hyperdegrees read off by label."""
        c = self.constellation
        out = []
        for t in range(1, c.k + 1):
            vs = c.vertices_of_type(t)
            parts = [0] * len(vs)
            for v in vs:
                parts[c.labels[v - 1] - 1] = c.hyperdegree(v)
            out.append(Composition(tuple(parts)))
        return tuple(out)

    def validate(self) -> Optional[str]:
        c = self.constellation
        problem = validate(c)
        if problem is not None:
            return problem
        if c.root is None:
            return "constellation is not rooted"
        if c.labels is None:
            return "constellation is not vertex-labelled"
        problem = validate_arborescence(c, self.arborescence)
        if problem is not None:
            return problem
        if self.arborescence.root_vertex != c.root_vertex:
            return "arborescence does not point to the root vertex"
        return None

    def to_json(self) -> dict:
        data = self.constellation.to_json()
        data["arborescence"] = {
            str(v + 1): list(e)
            for v, e in enumerate(self.arborescence.parent_edge)
            if e is not None
        }
        data["root_vertex"] = self.arborescence.root_vertex
        return data


# ---------------------------------------------------------------------------
# Xi: colored cacti as Eulerian tours
# ---------------------------------------------------------------------------


def xi(cf: ColoredFactorization) -> EulerianDigraphTour:
    """Encode a colored factorization as an Eulerian tour of its class digraph.

    The tour is the clockwise white-face reading of the cactus from the
    root corner of hyperedge 1; its arc labels are the hyperedge labels.
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    problem = cf.validate()
    if problem is not None:
        raise ValueError(problem)
    k, n = cf.k, cf.n
    invs = [inverse(p) for p in cf.perms]
    arcs: list[Arc] = [(k, 1)]
    g = 1
    for m in range(1, k * n):
        t = (m - 1) % k + 1
        g = invs[t - 1](g)
        arcs.append((t, g))
    return EulerianDigraphTour(
        digraph=ColoredDigraph(k=k, n=n, colorings=cf.colorings), arcs=tuple(arcs)
    )


def xi_inverse(tour: EulerianDigraphTour) -> ColoredFactorization:
    """Rebuild the colored factorization encoded by an Eulerian tour.

    Consecutive tour arcs (t-1, b), (t, a) force pi_t(a) = b; the result
    is relabelled so the product is (1,2,...,n) and the root hyperedge
    (the first arc's label) becomes 1.
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    problem = tour.validate()
    if problem is not None:
        raise ValueError(problem)
    dg = tour.digraph
    k, n = dg.k, dg.n
    images = [[0] * n for _ in range(k)]
    seq = tour.arcs
    for m in range(len(seq)):
        t, a = seq[m]
        _, b = seq[m - 1]
        images[t - 1][a - 1] = b
    perms = tuple(Permutation(tuple(img)) for img in images)
    product = compose_all(list(perms))
    root = seq[0][1]
    # relabel so that the product becomes the long cycle with root at 1
    s = [0] * (n + 1)
    x = root
    for j in range(n):
        if s[x]:
            raise ValueError("tour product is not a single n-cycle")
        s[x] = j + 1
        x = product(x)
    new_perms = []
    for p in perms:
        img = [0] * n
        for y in range(1, n + 1):
            img[s[y] - 1] = s[p(y)]
        new_perms.append(Permutation(tuple(img)))
    new_colorings = []
    for col in dg.colorings:
        out = [0] * n
        for i in range(1, n + 1):
            out[s[i] - 1] = col[i - 1]
        new_colorings.append(tuple(out))
    return ColoredFactorization(perms=tuple(new_perms), colorings=tuple(new_colorings))


# ---------------------------------------------------------------------------
# BEST decomposition of Eulerian tours
# ---------------------------------------------------------------------------


def best_decompose(tour: EulerianDigraphTour) -> dict[DigraphVertex, tuple[Arc, ...]]:
    """Each vertex's exits in tour order.

    The last exit of every vertex other than the start vertex is its
    last-exit arc; these arcs form an arborescence toward the start vertex.
    """
    exits: dict[DigraphVertex, list[Arc]] = {}
    for arc in tour.arcs:
        exits.setdefault(tour.digraph.tail(arc), []).append(arc)
    return {v: tuple(used) for v, used in exits.items()}


# A digraph for the BEST helpers below is a start vertex v0, a mapping
# ``exits`` from every vertex to its outgoing arcs in order, and a function
# ``head(v, arc)`` giving the vertex an arc of v leads to.


def best_compose(v0, exits: Mapping, head: Callable) -> tuple[Hashable, ...]:
    """Replay the tour that leaves each vertex along its exits in order.

    The replay is an Eulerian tour exactly when the last exits of the
    vertices other than v0 form an arborescence toward v0 (BEST theorem).
    Returns the arc sequence; raises ValueError if the walk gets stuck
    away from v0 or returns to v0 with exits left unused.
    """
    unused = {v: iter(arcs) for v, arcs in exits.items()}
    seq = []
    v = v0
    while (arc := next(unused[v], None)) is not None:
        seq.append(arc)
        v = head(v, arc)
    if v != v0:
        raise ValueError(f"tour replay stuck at vertex {v}")
    if len(seq) != sum(map(len, exits.values())):
        raise ValueError("tour replay closed with exits left unused")
    return tuple(seq)


def enumerate_eulerian_tours(v0, exits: Mapping, head: Callable) -> Iterator[tuple[Hashable, ...]]:
    """All Eulerian tours from v0, by backtracking over the exits in order."""
    total = sum(map(len, exits.values()))
    used: set[Hashable] = set()
    seq: list[Hashable] = []

    def rec(v) -> Iterator[tuple[Hashable, ...]]:
        if len(seq) == total:
            if v == v0:
                yield tuple(seq)
            return
        for arc in exits[v]:
            if arc in used:
                continue
            used.add(arc)
            seq.append(arc)
            yield from rec(head(v, arc))
            seq.pop()
            used.remove(arc)

    yield from rec(v0)


def digraph_arborescences(v0, exits: Mapping, head: Callable) -> Iterator[dict]:
    """All arc sets {v != v0: outgoing arc} forming a tree toward v0."""
    others = [v for v in exits if v != v0]

    def reaches_v0(v, tree: dict) -> bool:
        seen = set()
        while v != v0:
            if v in seen:
                return False
            seen.add(v)
            v = head(v, tree[v])
        return True

    for combo in itertools.product(*(exits[v] for v in others)):
        tree = dict(zip(others, combo))
        if all(reaches_v0(v, tree) for v in others):
            yield tree


# ---------------------------------------------------------------------------
# The bijection itself
# ---------------------------------------------------------------------------


def phi(cf: ColoredFactorization) -> TreeRootedConstellation:
    """Map a colored factorization to a vertex-labelled tree-rooted constellation.

    Composition of the tour encoding, the last-exit decomposition, and the
    reassembly of exit orders as clockwise rotations; hyperedge labels are
    then canonicalized away (first visit along the tour).
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    tour = xi(cf)
    dg = tour.digraph
    exits = best_decompose(tour)
    v0 = dg.tail(tour.arcs[0])
    dverts = sorted(exits)
    vid = {dv: idx + 1 for idx, dv in enumerate(dverts)}
    rotation = []
    labels = []
    vertex_type = []
    parent: list[Optional[tuple[int, int]]] = [None] * len(dverts)
    for dv in dverts:
        t, c = dv
        vertex_type.append(t)
        labels.append(c)
        rotation.append(_norm_cycle([i for (_, i) in exits[dv]]))
        if dv != v0:
            parent[vid[dv] - 1] = (exits[dv][-1][1], t)
    hyperedges = tuple(
        tuple(vid[(t, cf.colorings[t - 1][h - 1])] for t in range(1, dg.k + 1))
        for h in range(1, dg.n + 1)
    )
    c = Constellation(
        k=dg.k,
        n=dg.n,
        hyperedges=hyperedges,
        vertex_type=tuple(vertex_type),
        rotation=tuple(rotation),
        root=tour.arcs[0][1],
        labels=tuple(labels),
    )
    t_rooted = TreeRootedConstellation(
        constellation=c,
        arborescence=Arborescence(root_vertex=vid[v0], parent_edge=tuple(parent)),
    )
    return canonical_tree_rooted(t_rooted)


def tree_rooted_tour(t_rooted: TreeRootedConstellation) -> tuple[Arc, ...]:
    """Replay the Eulerian tour encoded by the rotations and the arborescence.

    Exit order at the root vertex starts at the root hyperedge; at every
    other vertex the clockwise rotation is rotated to end at the parent
    hyperedge (its last exit).
    """
    c = t_rooted.constellation
    v0 = c.root_vertex
    exits: dict[int, tuple[Arc, ...]] = {}
    for v, rot in enumerate(c.rotation, start=1):
        if v == v0:
            i = rot.index(c.root)
        else:
            i = rot.index(t_rooted.arborescence.parent_edge[v - 1][0]) + 1
        t = c.vertex_type[v - 1]
        exits[v] = tuple((t, h) for h in rot[i:] + rot[:i])
    return best_compose(v0, exits, lambda v, arc: c.hyperedges[arc[1] - 1][arc[0] % c.k])


def canonical_tree_rooted(t_rooted: TreeRootedConstellation) -> TreeRootedConstellation:
    """Relabel hyperedges by first visit along the tour (root becomes 1)."""
    seq = tree_rooted_tour(t_rooted)
    s: dict[int, int] = {}
    for _, h in seq:
        if h not in s:
            s[h] = len(s) + 1
    new_c, vmap = relabel_hyperedges(t_rooted.constellation, s)
    return TreeRootedConstellation(
        constellation=new_c, arborescence=relabel_arborescence(t_rooted.arborescence, s, vmap)
    )


def phi_inverse(t_rooted: TreeRootedConstellation) -> ColoredFactorization:
    """Invert phi: replay the tour and rebuild the colored factorization."""
    problem = t_rooted.validate()
    if problem is not None:
        raise ValueError(problem)
    c = t_rooted.constellation
    seq = tree_rooted_tour(t_rooted)
    colorings = tuple(
        tuple(c.labels[c.hyperedges[h - 1][t - 1] - 1] for h in range(1, c.n + 1))
        for t in range(1, c.k + 1)
    )
    tour = EulerianDigraphTour(
        digraph=ColoredDigraph(k=c.k, n=c.n, colorings=colorings), arcs=seq
    )
    return xi_inverse(tour)


def enumerate_tree_rooted(
    n: int, k: int, p: Sequence[int]
) -> Iterator[TreeRootedConstellation]:
    """All vertex-labelled tree-rooted constellations of the given type."""
    p = tuple(p)
    for c in enumerate_rooted_constellations(n, k, p):
        v0 = c.root_vertex
        for arb in arborescences_toward(c, v0):
            by_type = [c.vertices_of_type(t) for t in range(1, k + 1)]
            for label_choice in itertools.product(
                *(itertools.permutations(range(1, len(vs) + 1)) for vs in by_type)
            ):
                labels = [0] * c.num_vertices
                for vs, perm in zip(by_type, label_choice):
                    for v, lab in zip(vs, perm):
                        labels[v - 1] = lab
                yield TreeRootedConstellation(
                    constellation=Constellation(
                        k=c.k,
                        n=c.n,
                        hyperedges=c.hyperedges,
                        vertex_type=c.vertex_type,
                        rotation=c.rotation,
                        root=c.root,
                        labels=tuple(labels),
                    ),
                    arborescence=arb,
                )
