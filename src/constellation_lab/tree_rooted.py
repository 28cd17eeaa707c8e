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
    _from_rotations,
    _hyperedge_order,
    _validate_tree_pointed,
    arborescences_toward,
    enumerate_rooted_constellations,
)
from .counting import ColoredFactorization, _check_size, _require
from .permutations import Composition, Permutation

Arc = tuple[int, int]  # (type, hyperedge label)
DigraphVertex = tuple[int, int]  # (type, color)


@dataclass(frozen=True)
class TreeRootedConstellation:
    """A rooted vertex-labelled constellation with a root-vertex arborescence."""

    constellation: Constellation
    arborescence: Arborescence

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
        problem = _validate_tree_pointed(c, self.arborescence)
        if problem is not None:
            return problem
        if c.labels is None:
            return "constellation is not vertex-labelled"
        if self.arborescence.root_vertex != c.root_vertex:
            return "arborescence does not point to the root vertex"
        return None


# ---------------------------------------------------------------------------
# Xi: colored cacti as Eulerian tours
# ---------------------------------------------------------------------------


def xi(cf: ColoredFactorization) -> tuple[Arc, ...]:
    """Encode a colored factorization as an Eulerian tour of its class digraph.

    The digraph has an arc (t, i) per type t and hyperedge label i, from
    (t, colorings[t-1][i-1]) to the class of i in type t+1 (1 after k).  The
    tour, returned as its arcs, is the clockwise white-face reading of the
    cactus from the root corner of hyperedge 1, so it starts with (k, 1).
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    _require(cf.validate())
    k, n = cf.k, cf.n
    # invs[t-1][g]: the preimage of g under pi_t
    invs = []
    for p in cf.perms:
        inv = [0] * (n + 1)
        for x, y in enumerate(p.image, start=1):
            inv[y] = x
        invs.append(inv)
    arcs: list[Arc] = [(k, 1)]
    g = 1
    for m in range(1, k * n):
        t = (m - 1) % k + 1
        g = invs[t - 1][g]
        arcs.append((t, g))
    return tuple(arcs)


def _xi_inverse(arcs: Sequence[Arc], colorings: Sequence[Sequence[int]]) -> ColoredFactorization:
    """The colored factorization whose tour (see :func:`xi`) is ``arcs``,
    for :func:`phi_inverse`, whose guard makes the tour it replays valid.

    Consecutive tour arcs (t-1, b), (t, a) force pi_t(a) = b, so the
    product pi_1...pi_k sends the label of each type-k arc to that of the
    type-k arc k places earlier: it is one n-cycle.  The result is
    relabelled so the product is (1,2,...,n): the first arc's label (the
    root hyperedge) becomes 1, and the other type-k labels, read from the
    last one back, become 2..n.
    """
    k, n = len(colorings), len(colorings[0])
    type_k = [a for _, a in arcs[::k]]
    s = [0] * (n + 1)
    for j, a in enumerate(type_k[:1] + type_k[:0:-1], start=1):
        s[a] = j
    images = [[0] * n for _ in range(k)]
    for m, (t, a) in enumerate(arcs):
        images[t - 1][s[a] - 1] = s[arcs[m - 1][1]]
    new_colorings = []
    for col in colorings:
        out = [0] * n
        for i in range(1, n + 1):
            out[s[i] - 1] = col[i - 1]
        new_colorings.append(tuple(out))
    perms = tuple(Permutation(tuple(img)) for img in images)
    return ColoredFactorization(perms=perms, colorings=tuple(new_colorings))


# ---------------------------------------------------------------------------
# BEST decomposition of Eulerian tours
# ---------------------------------------------------------------------------


def best_decompose(
    arcs: Sequence[Arc], colorings: Sequence[Sequence[int]]
) -> dict[DigraphVertex, tuple[Arc, ...]]:
    """Each vertex's exits in tour order, for a tour of the class digraph
    of ``colorings`` (see :func:`xi`).

    The last exit of every vertex other than the start vertex is its
    last-exit arc; these arcs form an arborescence toward the start vertex.
    """
    exits: dict[DigraphVertex, list[Arc]] = {}
    for t, i in arcs:  # the arc (t, i) leaves (t, colorings[t-1][i-1])
        exits.setdefault((t, colorings[t - 1][i - 1]), []).append((t, i))
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
    """All Eulerian tours from v0, by backtracking over the exits in order on
    an explicit stack of exit iterators, so a call leaves no reference cycle."""
    total = sum(map(len, exits.values()))
    if not total:
        yield ()
        return
    used: set[Hashable] = set()
    seq: list[Hashable] = []
    stack = [(v0, iter(exits[v0]))]
    while stack:
        v, arcs = stack[-1]
        for arc in arcs:
            if arc not in used:
                break
        else:
            # every exit of v tried: take back the arc that led to v
            stack.pop()
            if seq:
                used.remove(seq.pop())
            continue
        w = head(v, arc)
        used.add(arc)
        seq.append(arc)
        if len(seq) < total:
            stack.append((w, iter(exits[w])))
            continue
        if w == v0:
            yield tuple(seq)
        used.remove(seq.pop())


# ---------------------------------------------------------------------------
# The bijection itself
# ---------------------------------------------------------------------------


def phi(cf: ColoredFactorization) -> TreeRootedConstellation:
    """Map a colored factorization to a vertex-labelled tree-rooted constellation.

    Composition of the tour encoding, the last-exit decomposition, and the
    reassembly of exit orders as clockwise rotations.  The exit orders fix
    the root-first order of :func:`~constellation_lab.constellations._hyperedge_order`
    from the root hyperedge, so each hyperedge is numbered by its place in it
    before the one build: the images are exactly the objects
    :func:`enumerate_tree_rooted` yields.
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    arcs = xi(cf)
    k, n, colorings = cf.k, cf.n, cf.colorings
    exits = best_decompose(arcs, colorings)
    dverts = list(exits)
    rotation = [[i for _, i in exits[dv]] for dv in dverts]
    # the type-t vertex of hyperedge h is the class (t, colorings[t-1][h-1]),
    # numbered here by its place in dverts, from 1
    vid = {dv: j for j, dv in enumerate(dverts, start=1)}
    hyperedges = [[vid[t, col[h]] for t, col in enumerate(colorings, start=1)] for h in range(n)]
    s = [0] * (n + 1)
    # the tour starts with the arc (k, 1): hyperedge 1 is the root
    for place, h in enumerate(_hyperedge_order(hyperedges, rotation, 1), start=1):
        s[h] = place
    verts = [(t, [s[h] for h in rot]) for (t, _), rot in zip(dverts, rotation)]
    c, order = _from_rotations(k, n, verts, 1, [col for _, col in dverts])
    # the parent edge of a vertex other than v0, the tail of (k, 1), is its last exit
    v0 = (k, colorings[k - 1][0])
    parent = [None if dverts[j] == v0 else (verts[j][1][-1], dverts[j][0]) for j in order]
    arb = Arborescence(root_vertex=parent.index(None) + 1, parent_edge=tuple(parent))
    return TreeRootedConstellation(c, arb)


def tree_rooted_tour(t_rooted: TreeRootedConstellation) -> tuple[Arc, ...]:
    """Replay the Eulerian tour encoded by the rotations and the arborescence.

    Exit order at the root vertex starts at the root hyperedge; at every
    other vertex the clockwise rotation is rotated to end at the parent
    hyperedge (its last exit).
    """
    c = t_rooted.constellation
    v0 = c.root_vertex
    hyperedges, k, parent_edge = c.hyperedges, c.k, t_rooted.arborescence.parent_edge
    exits: dict[int, list[Arc]] = {}
    for v, (t, rot) in enumerate(zip(c.vertex_type, c.rotation), start=1):
        i = rot.index(c.root) if v == v0 else rot.index(parent_edge[v - 1][0]) + 1
        exits[v] = [(t, h) for h in rot[i:] + rot[:i]]
    return best_compose(v0, exits, lambda v, arc: hyperedges[arc[1] - 1][arc[0] % k])


def phi_inverse(t_rooted: TreeRootedConstellation) -> ColoredFactorization:
    """Invert phi: replay the tour and rebuild the colored factorization.

    Raises ValueError on invalid input.  A valid input replays a valid tour,
    so the tour is decoded by :func:`_xi_inverse` and not checked again.
    """
    _require(t_rooted.validate())
    labels = t_rooted.constellation.labels
    # column t-1 of the hyperedges holds the type-t vertex of each hyperedge
    colorings = tuple(
        tuple([labels[v - 1] for v in column]) for column in zip(*t_rooted.constellation.hyperedges)
    )
    return _xi_inverse(tree_rooted_tour(t_rooted), colorings)


def enumerate_tree_rooted(
    n: int, k: int, p: Sequence[int], cap: Optional[int] = None
) -> Iterator[TreeRootedConstellation]:
    """All vertex-labelled tree-rooted constellations of the given type;
    ``cap`` bounds the rooted-constellation domain they are built from."""
    _check_size(n, k, p, n_min=1, k_min=2, p_min=1)
    for c in enumerate_rooted_constellations(n, k, tuple(p), cap):
        by_type = [c.vertices_of_type(t) for t in range(1, k + 1)]
        # the labellings do not depend on the arborescence, so each labelled
        # copy of c is built once and shared by every arborescence
        labelled = []
        for label_choice in itertools.product(
            *(itertools.permutations(range(1, len(vs) + 1)) for vs in by_type)
        ):
            labels = [0] * c.num_vertices
            for vs, perm in zip(by_type, label_choice):
                for v, lab in zip(vs, perm):
                    labels[v - 1] = lab
            labelled.append(
                Constellation(
                    k=k,
                    n=n,
                    hyperedges=c.hyperedges,
                    vertex_type=c.vertex_type,
                    rotation=c.rotation,
                    root=c.root,
                    labels=tuple(labels),
                    colors=c.colors,
                )
            )
        for arb in arborescences_toward(c, c.root_vertex):
            for copy in labelled:
                yield TreeRootedConstellation(constellation=copy, arborescence=arb)
