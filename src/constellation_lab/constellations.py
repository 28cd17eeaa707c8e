"""Constellations as rotation systems on k-typed hypergraphs.

A k-constellation of size n has n hyperedges (its black k-gonal faces),
each incident to one vertex of every type 1..k, plus a clockwise cyclic
order of the incident hyperedges around every vertex.  The representation
map identifies hyperedge-labelled constellations with tuples of k
permutations of [n] acting transitively: the cycles of the t-th
permutation are the counterclockwise hyperedge orders around the type-t
vertices, so the stored clockwise rotations are the reversed cycles.

Edges are pairs (h, t): the type-t side of hyperedge h, joining its
type-t vertex to its type-(t+1) vertex.  Each edge has a "lo" dart at the
type-t end and a "hi" dart at the other end; faces are traced with the
clockwise-tour step dart -> cw_next(twin(dart)).  Hi-dart orbits are
exactly the n black k-gons, lo-dart orbits are the white faces.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .halfedges import BLACK, WHITE, HalfEdgeMap, _json_field, _json_int
from .permutations import Permutation, all_permutations, compose_all, cycles

Edge = tuple[int, int]  # (hyperedge id, type)
Dart = tuple[int, int, int]  # (hyperedge id, type, side); side 0 = type-t end


def _norm_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so its minimum comes first."""
    i = seq.index(min(seq))
    return tuple(seq[i:]) + tuple(seq[:i])


@dataclass(frozen=True)
class Constellation:
    """A k-typed hypergraph with clockwise rotations, optionally decorated.

    Vertices are 1..V; ``hyperedges[h-1][t-1]`` is the type-t vertex of
    hyperedge h; ``rotation[v-1]`` is the clockwise cyclic hyperedge order
    around v, stored minimum-first.  ``labels``/``colors`` are per-vertex
    decorations (labels bijective per type, colors surjective per type).
    """

    k: int
    n: int
    hyperedges: tuple[tuple[int, ...], ...]
    vertex_type: tuple[int, ...]
    rotation: tuple[tuple[int, ...], ...]
    root: Optional[int] = None
    labels: Optional[tuple[int, ...]] = None
    colors: Optional[tuple[int, ...]] = None

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_type)

    def vertices_of_type(self, t: int) -> list[int]:
        return [v for v in range(1, self.num_vertices + 1) if self.vertex_type[v - 1] == t]

    def type_vector(self) -> tuple[int, ...]:
        counts = [0] * self.k
        for t in self.vertex_type:
            counts[t - 1] += 1
        return tuple(counts)

    @property
    def root_vertex(self) -> int:
        """The type-k vertex incident to the root hyperedge."""
        if self.root is None:
            raise ValueError("constellation is not rooted")
        return self.hyperedges[self.root - 1][self.k - 1]

    def vertex_by_label(self, t: int, i: int) -> int:
        if self.labels is None:
            raise ValueError("constellation is not vertex-labelled")
        for v in self.vertices_of_type(t):
            if self.labels[v - 1] == i:
                return v
        raise ValueError(f"no vertex of type {t} labelled {i}")

    def hyperdegree(self, v: int) -> int:
        return len(self.rotation[v - 1])

    def edge_endpoints(self, e: Edge) -> tuple[int, int]:
        """Endpoints (type-t vertex, type-(t+1) vertex) of edge e = (h, t)."""
        h, t = e
        he = self.hyperedges[h - 1]
        return he[t - 1], he[t % self.k]

    def to_json(self) -> dict:
        data: dict = {
            "k": self.k,
            "n": self.n,
            "hyperedges": [list(he) for he in self.hyperedges],
            "vertex_type": {str(v): self.vertex_type[v - 1] for v in range(1, self.num_vertices + 1)},
            "rotation": {str(v): list(self.rotation[v - 1]) for v in range(1, self.num_vertices + 1)},
        }
        if self.root is not None:
            data["root"] = self.root
        if self.labels is not None:
            data["labels"] = {str(v): self.labels[v - 1] for v in range(1, self.num_vertices + 1)}
        if self.colors is not None:
            data["colors"] = {str(v): self.colors[v - 1] for v in range(1, self.num_vertices + 1)}
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Constellation":
        nv = _json_field(data, "vertex_type", len)

        def per_vertex(values) -> tuple:
            return tuple(values[str(v)] for v in range(1, nv + 1))

        labels = colors = None
        if "labels" in data:
            labels = _json_field(data, "labels", per_vertex)
        if "colors" in data:
            colors = _json_field(data, "colors", per_vertex)
        c = cls(
            k=_json_field(data, "k", _json_int),
            n=_json_field(data, "n", _json_int),
            hyperedges=_json_field(data, "hyperedges", lambda hes: tuple(tuple(he) for he in hes)),
            vertex_type=_json_field(data, "vertex_type", per_vertex),
            rotation=_json_field(
                data, "rotation", lambda rot: tuple(_norm_cycle(r) for r in per_vertex(rot))
            ),
            root=_json_field(data, "root", _json_int) if "root" in data else None,
            labels=labels,
            colors=colors,
        )
        problem = validate(c)
        if problem is not None:
            raise ValueError(problem)
        return c


@dataclass(frozen=True)
class Arborescence:
    """A spanning tree oriented toward ``root_vertex``.

    ``parent_edge[v-1]`` is the (hyperedge, type) edge joining v to its
    parent; it is None exactly for the root vertex.  For a vertex of type
    t the parent edge has type t.
    """

    root_vertex: int
    parent_edge: tuple[Optional[Edge], ...]

    def edges(self) -> frozenset[Edge]:
        return frozenset(e for e in self.parent_edge if e is not None)

    def to_json(self) -> dict:
        return {
            "root_vertex": self.root_vertex,
            "parent_edge": {
                str(v + 1): list(e) for v, e in enumerate(self.parent_edge) if e is not None
            },
        }


# ---------------------------------------------------------------------------
# Representation map: permutations <-> constellations
# ---------------------------------------------------------------------------


def is_transitive(perms: Sequence[Permutation]) -> bool:
    """Whether the group generated by the tuple acts transitively on [n]."""
    n = perms[0].n
    seen = [False] * (n + 1)
    stack = [1]
    seen[1] = True
    count = 1
    while stack:
        x = stack.pop()
        for p in perms:
            y = p(x)
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def _from_rotations(
    k: int, n: int, verts: Sequence[tuple[int, Sequence[int]]], root: Optional[int]
) -> tuple[Constellation, list[int]]:
    """Assemble a constellation from (type, clockwise rotation) vertices.

    The one place that numbers vertices: by (type, smallest incident
    hyperedge).  Returns the constellation and ``order``, where vertex
    ``j + 1`` is ``verts[order[j]]``.
    """
    order = sorted(range(len(verts)), key=lambda i: (verts[i][0], min(verts[i][1])))
    slot = [[0] * n for _ in range(k)]  # slot[t-1][h-1]: type-t vertex of hyperedge h
    for v, i in enumerate(order, start=1):
        t, rot = verts[i]
        for h in rot:
            slot[t - 1][h - 1] = v
    c = Constellation(
        k=k,
        n=n,
        hyperedges=tuple(zip(*slot)),
        vertex_type=tuple(verts[i][0] for i in order),
        rotation=tuple(_norm_cycle(verts[i][1]) for i in order),
        root=root,
    )
    return c, order


def from_permutations(perms: Sequence[Permutation], root: Optional[int] = None) -> Constellation:
    """Inverse of the representation map (hyperedge-labelled objects).

    One type-t vertex per cycle of the t-th permutation; the clockwise
    rotation is the reversed cycle (cycles read counterclockwise).
    """
    k = len(perms)
    if k < 2:
        raise ValueError("need at least 2 permutations")
    n = perms[0].n
    if any(p.n != n for p in perms):
        raise ValueError("size mismatch among permutations")
    if not is_transitive(perms):
        raise ValueError("not connected: permutations do not act transitively on [n]")
    verts = [(t, cyc[::-1]) for t, p in enumerate(perms, start=1) for cyc in cycles(p)]
    return _from_rotations(k, n, verts, root)[0]


def to_permutations(c: Constellation) -> tuple[Permutation, ...]:
    """The representation map: counterclockwise hyperedge orders per type."""
    images = [[0] * c.n for _ in range(c.k)]
    for v in range(1, c.num_vertices + 1):
        t = c.vertex_type[v - 1]
        ccw = tuple(reversed(c.rotation[v - 1]))
        for a, b in zip(ccw, ccw[1:] + ccw[:1]):
            images[t - 1][a - 1] = b
    return tuple(Permutation(tuple(img)) for img in images)


def validate(c: Constellation) -> Optional[str]:
    """Return the first violated invariant (with location), or None."""
    if c.k < 2:
        return "k must be at least 2"
    if c.n < 1:
        return "n must be at least 1"
    if len(c.hyperedges) != c.n:
        return "wrong number of hyperedges"
    nv = c.num_vertices
    incident: dict[int, set[int]] = {v: set() for v in range(1, nv + 1)}
    for h, he in enumerate(c.hyperedges, start=1):
        if len(he) != c.k:
            return f"hyperedge {h} does not have one vertex per type"
        for t, v in enumerate(he, start=1):
            if not (1 <= v <= nv):
                return f"hyperedge {h} references unknown vertex {v}"
            if c.vertex_type[v - 1] != t:
                return f"hyperedge {h} slot {t} holds a vertex of type {c.vertex_type[v - 1]}"
            incident[v].add(h)
    for v in range(1, nv + 1):
        rot = c.rotation[v - 1]
        if len(rot) != len(set(rot)):
            return f"rotation at vertex {v} repeats a hyperedge"
        if set(rot) != incident[v]:
            return f"rotation incomplete at vertex {v}"
        if not incident[v]:
            return f"vertex {v} is isolated"
    # the orbits of to_permutations(c) are the classes of hyperedges joined
    # by shared vertices, since each rotation lists its incident hyperedges
    reached = {1}
    todo = [1]
    seen = [False] * (nv + 1)
    while todo:
        for v in c.hyperedges[todo.pop() - 1]:
            if not seen[v]:
                seen[v] = True
                for g in c.rotation[v - 1]:
                    if g not in reached:
                        reached.add(g)
                        todo.append(g)
    if len(reached) != c.n:
        return "not transitive"
    if c.root is not None and not (1 <= c.root <= c.n):
        return f"root hyperedge {c.root} out of range"
    if c.labels is not None:
        for t in range(1, c.k + 1):
            vs = c.vertices_of_type(t)
            got = sorted(c.labels[v - 1] for v in vs)
            if got != list(range(1, len(vs) + 1)):
                return f"labels of type {t} are not a bijection onto [{len(vs)}]"
    if c.colors is not None:
        for t in range(1, c.k + 1):
            got = {c.colors[v - 1] for v in c.vertices_of_type(t)}
            if got != set(range(1, max(got) + 1)):
                return f"colors of type {t} are not surjective"
    return None


def validate_arborescence(c: Constellation, a: Arborescence) -> Optional[str]:
    """Check that ``a`` is a v0-arborescence of ``c``."""
    if len(a.parent_edge) != c.num_vertices:
        return "parent_edge has wrong length"
    if not (1 <= a.root_vertex <= c.num_vertices):
        return "root vertex out of range"
    for v in range(1, c.num_vertices + 1):
        e = a.parent_edge[v - 1]
        if v == a.root_vertex:
            if e is not None:
                return "root vertex has a parent edge"
            continue
        if e is None:
            return f"vertex {v} has no parent edge"
        h, t = e
        if t != c.vertex_type[v - 1]:
            return f"parent edge of vertex {v} has type {t}, vertex has type {c.vertex_type[v - 1]}"
        if c.edge_endpoints(e)[0] != v:
            return f"parent edge of vertex {v} is not incident to it"
    # every vertex must reach the root by following parents; mark[u] is the
    # first vertex whose walk passed u, and every earlier walk reached the root
    mark = [0] * (c.num_vertices + 1)
    mark[a.root_vertex] = -1
    for v in range(1, c.num_vertices + 1):
        u = v
        while mark[u] == 0:
            mark[u] = v
            u = c.edge_endpoints(a.parent_edge[u - 1])[1]
        if mark[u] == v:
            return f"parent edges cycle at vertex {v}"
    return None


# ---------------------------------------------------------------------------
# Faces, genus, duality
# ---------------------------------------------------------------------------


def _cw_dart_order(c: Constellation, v: int) -> list[Dart]:
    """Clockwise dart listing around v: per hyperedge the lo dart of its
    type-t edge then the hi dart of its type-(t-1) edge."""
    t = c.vertex_type[v - 1]
    t_prev = (t - 2) % c.k + 1
    out: list[Dart] = []
    for h in c.rotation[v - 1]:
        out.append((h, t, 0))
        out.append((h, t_prev, 1))
    return out


def _face_orbits(c: Constellation) -> list[list[Dart]]:
    """Orbits of the clockwise tour step on all 2nk darts."""
    cw_next: dict[Dart, Dart] = {}
    for v in range(1, c.num_vertices + 1):
        order = _cw_dart_order(c, v)
        for d, d2 in zip(order, order[1:] + order[:1]):
            cw_next[d] = d2
    faces: list[list[Dart]] = []
    seen: set[Dart] = set()
    for d0 in sorted(cw_next):
        if d0 in seen:
            continue
        orbit = []
        d = d0
        while d not in seen:
            seen.add(d)
            orbit.append(d)
            h, t, side = d
            d = cw_next[(h, t, 1 - side)]
        faces.append(orbit)
    return faces


def white_faces(c: Constellation) -> list[list[Dart]]:
    """The white faces as lo-dart tour cycles; hi-dart orbits are the black k-gons."""
    whites = []
    for orbit in _face_orbits(c):
        sides = {side for (_, _, side) in orbit}
        if len(sides) != 1:
            raise AssertionError("face orbit mixes sides; corrupted rotations")
        if sides == {0}:
            whites.append(orbit)
        else:
            hs = {h for (h, _, _) in orbit}
            if len(hs) != 1 or len(orbit) != c.k:
                raise AssertionError("black face is not a single k-gon")
    return whites


def white_face_count(c: Constellation) -> int:
    return len(white_faces(c))


def is_cactus(c: Constellation) -> bool:
    return white_face_count(c) == 1


def genus(c: Constellation) -> int:
    """Genus via V - E + F = 2 - 2g with E = nk and F = n + #white faces."""
    v = c.num_vertices
    e = c.n * c.k
    f = c.n + white_face_count(c)
    chi = v - e + f
    if chi % 2 != 0 or chi > 2:
        raise ValueError(f"inconsistent Euler characteristic {chi}")
    return (2 - chi) // 2


def _edge_index(c: Constellation, e: Edge) -> int:
    h, t = e
    return (h - 1) * c.k + (t - 1)


def dual_black_dart(c: Constellation, e: Edge) -> int:
    """Dart id at the black vertex of the dual edge crossing e."""
    return 2 * _edge_index(c, e)


def dual_white_dart(c: Constellation, e: Edge) -> int:
    return 2 * _edge_index(c, e) + 1


def dual(c: Constellation) -> HalfEdgeMap:
    """The dual map: black vertices are hyperedges, white vertices are white faces.

    Types increase clockwise around black vertices and decrease around
    white ones (the white rotation is the reversed white-face tour).
    Dart ids follow :func:`dual_black_dart` / :func:`dual_white_dart`;
    black vertex ids are h-1, white vertex ids follow after n.
    """
    whites = white_faces(c)
    H = 2 * c.n * c.k
    vertex = [0] * H
    nxt = [0] * H
    twin: list[Optional[int]] = [0] * H
    dtype = [0] * H
    for h in range(1, c.n + 1):
        for t in range(1, c.k + 1):
            b = dual_black_dart(c, (h, t))
            w = b + 1
            vertex[b] = h - 1
            dtype[b] = dtype[w] = t
            twin[b] = w
            twin[w] = b
            t_next = t % c.k + 1
            nxt[b] = dual_black_dart(c, (h, t_next))
    for f, orbit in enumerate(whites):
        wv = c.n + f
        for d_prev, d in zip(orbit, orbit[1:] + orbit[:1]):
            w = dual_white_dart(c, (d[0], d[1]))
            vertex[w] = wv
            nxt[w] = dual_white_dart(c, (d_prev[0], d_prev[1]))
    colors = tuple([BLACK] * c.n + [WHITE] * len(whites))
    root = None if c.root is None else c.root - 1
    return HalfEdgeMap(c.k, tuple(vertex), tuple(nxt), tuple(twin), tuple(dtype), colors, root)


def constellation_from_dual(m: HalfEdgeMap) -> tuple[Constellation, dict[int, int], dict[int, int]]:
    """Rebuild the constellation whose dual is ``m`` (no buds allowed).

    Returns (constellation, hyperedge_of_black_vertex, vertex_of_dart):
    the second maps black vertex ids of m to hyperedge ids, the third maps
    every dart of m to the constellation vertex dual to its face.
    """
    if any(t is None for t in m.twin):
        raise ValueError("dual-constellation may not have buds")
    blacks = sorted(v for v in range(m.num_vertices) if m.vertex_color[v] == BLACK)
    hyperedge_of_black = {b: i + 1 for i, b in enumerate(blacks)}
    n = len(blacks)
    k = m.k
    # type-t dart at each black vertex
    black_dart: dict[tuple[int, int], int] = {}
    for x in range(m.num_darts):
        v = m.vertex[x]
        if m.vertex_color[v] == BLACK:
            key = (hyperedge_of_black[v], m.type[x])
            if key in black_dart:
                raise ValueError(f"black vertex {v} has two darts of type {m.type[x]}")
            black_dart[key] = x
    if len(black_dart) != n * k:
        raise ValueError("black vertices do not have one dart per type")
    # faces of the dual are the constellation vertices; black darts on one
    # face all share a type and give the counterclockwise hyperedge cycle
    verts: list[tuple[int, tuple[int, ...]]] = []
    face_darts: list[list[int]] = []
    for orbit in m.faces():
        hs = []
        ts = set()
        for x in orbit:
            v = m.vertex[x]
            if m.vertex_color[v] == BLACK:
                hs.append(hyperedge_of_black[v])
                ts.add(m.type[x])
        if len(ts) != 1:
            raise ValueError("dual face mixes dart types; not a dual-constellation")
        verts.append((ts.pop(), tuple(reversed(hs))))
        face_darts.append(orbit)
    root = None if m.root is None else hyperedge_of_black[m.root]
    c, order = _from_rotations(k, n, verts, root)
    vertex_of_dart = {x: j + 1 for j, i in enumerate(order) for x in face_darts[i]}
    problem = validate(c)
    if problem is not None:
        raise ValueError(f"dual reconstruction invalid: {problem}")
    return c, hyperedge_of_black, vertex_of_dart


# ---------------------------------------------------------------------------
# Relabelling and canonical forms
# ---------------------------------------------------------------------------


def relabel_hyperedges(
    c: Constellation, s: dict[int, int]
) -> tuple[Constellation, dict[int, int]]:
    """Rename hyperedges by the bijection s and renumber vertices canonically.

    Returns (new constellation, vertex map old id -> new id).  The new
    vertex ids follow the (type, smallest incident hyperedge) order of
    :func:`_from_rotations`; labels and colors move with their vertices.
    """
    if sorted(s.get(h, 0) for h in range(1, c.n + 1)) != list(range(1, c.n + 1)):
        raise ValueError(f"hyperedge relabelling is not a bijection of [{c.n}]")
    verts = [(t, [s[h] for h in rot]) for t, rot in zip(c.vertex_type, c.rotation)]
    new_c, order = _from_rotations(c.k, c.n, verts, None if c.root is None else s[c.root])

    def moved(values: Optional[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
        return None if values is None else tuple(values[i] for i in order)

    new_c = replace(new_c, labels=moved(c.labels), colors=moved(c.colors))
    return new_c, {i + 1: j + 1 for j, i in enumerate(order)}


def relabel_arborescence(a: Arborescence, s: dict[int, int], vmap: dict[int, int]) -> Arborescence:
    """Carry an arborescence through :func:`relabel_hyperedges` (its s and vmap)."""
    parent: list[Optional[Edge]] = [None] * len(a.parent_edge)
    for v, e in enumerate(a.parent_edge, start=1):
        if e is not None:
            parent[vmap[v] - 1] = (s[e[0]], e[1])
    return Arborescence(root_vertex=vmap[a.root_vertex], parent_edge=tuple(parent))


def bfs_hyperedge_relabelling(c: Constellation) -> dict[int, int]:
    """Deterministic root-first hyperedge labelling of a rooted constellation.

    Hyperedges are discovered from the root by scanning each hyperedge's
    vertices in type order and each vertex's rotation clockwise starting
    after the current hyperedge.  Independent of the existing labels.
    """
    if c.root is None:
        raise ValueError("constellation is not rooted")
    s = {c.root: 1}
    order = [c.root]
    qi = 0
    while qi < len(order):
        h = order[qi]
        qi += 1
        for t in range(1, c.k + 1):
            v = c.hyperedges[h - 1][t - 1]
            rot = c.rotation[v - 1]
            i = rot.index(h)
            for j in range(1, len(rot)):
                g = rot[(i + j) % len(rot)]
                if g not in s:
                    s[g] = len(s) + 1
                    order.append(g)
    if len(s) != c.n:
        raise ValueError("not transitive")
    return s


def canonical_rooted(c: Constellation) -> tuple[Constellation, dict[int, int]]:
    """Canonical form of a rooted constellation (root hyperedge becomes 1)."""
    s = bfs_hyperedge_relabelling(c)
    return relabel_hyperedges(c, s)


# ---------------------------------------------------------------------------
# Exhaustive enumeration (small sizes)
# ---------------------------------------------------------------------------


def transitive_tuples(n: int, k: int) -> Iterator[tuple[Permutation, ...]]:
    """All k-tuples of permutations of [n] acting transitively, lexicographically."""
    for perms in itertools.product(all_permutations(n), repeat=k):
        if is_transitive(perms):
            yield perms


def enumerate_rooted_constellations(
    n: int, k: int, type_vector: Optional[Sequence[int]] = None
) -> list[Constellation]:
    """All rooted k-constellations of size n, in canonical form.

    Rooted objects are hyperedge-labelled objects modulo relabelling, so
    every transitive tuple rooted at hyperedge 1 is canonicalized and
    deduplicated.  The domain is walked once per (n, k) for the life of
    the process; each call filters it by ``type_vector`` (vertices per
    type) into a new list.
    """
    domain = _rooted_constellations(n, k)
    if type_vector is None:
        return list(domain)
    target = tuple(type_vector)
    return [c for c in domain if c.type_vector() == target]


@lru_cache(maxsize=None)
def _rooted_constellations(n: int, k: int) -> tuple[Constellation, ...]:
    out = {}
    for perms in transitive_tuples(n, k):
        canon, _ = canonical_rooted(from_permutations(perms, root=1))
        out[canon.hyperedges + canon.rotation + (canon.root,)] = canon
    return tuple(sorted(out.values(), key=lambda c: (c.hyperedges, c.rotation)))


enumerate_rooted_constellations.cache_info = _rooted_constellations.cache_info  # type: ignore[attr-defined]
enumerate_rooted_constellations.cache_clear = _rooted_constellations.cache_clear  # type: ignore[attr-defined]


def arborescences_toward(c: Constellation, v0: int) -> Iterator[Arborescence]:
    """All v0-arborescences of c (brute force over parent-edge choices)."""
    nv = c.num_vertices
    others = [v for v in range(1, nv + 1) if v != v0]
    choices = []
    for v in others:
        t = c.vertex_type[v - 1]
        choices.append([(h, t) for h in c.rotation[v - 1]])
    for combo in itertools.product(*choices):
        parent: list[Optional[Edge]] = [None] * nv
        for v, e in zip(others, combo):
            parent[v - 1] = e
        a = Arborescence(root_vertex=v0, parent_edge=tuple(parent))
        if validate_arborescence(c, a) is None:
            yield a


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------

_SHAPES = ["circle", "box", "diamond", "triangle", "hexagon", "ellipse"]


def constellation_to_dot(c: Constellation) -> str:
    """Stable-ordered DOT drawing: vertex shape by type, hyperedges as point
    nodes joined to their vertices by typed edges, fill from colors/labels."""
    lines = ["graph constellation {"]
    for v in range(1, c.num_vertices + 1):
        t = c.vertex_type[v - 1]
        label = f"t{t}"
        if c.labels is not None:
            label += f" #{c.labels[v - 1]}"
        attrs = [f'label="{label}"', f"shape={_SHAPES[(t - 1) % len(_SHAPES)]}"]
        if c.colors is not None:
            attrs.append("style=filled")
            attrs.append(f"colorscheme=set312 fillcolor={(c.colors[v - 1] - 1) % 12 + 1}")
        lines.append(f"  v{v} [{' '.join(attrs)}];")
    for h in range(1, c.n + 1):
        mark = " (root)" if c.root == h else ""
        lines.append(f'  h{h} [shape=point width=0.08 xlabel="{h}{mark}"];')
        for t in range(1, c.k + 1):
            v = c.hyperedges[h - 1][t - 1]
            lines.append(f'  h{h} -- v{v} [label="{t}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def halfedge_to_dot(m: HalfEdgeMap) -> str:
    """DOT drawing of a half-edge map; buds are drawn as arrow stubs."""
    lines = ["graph halfedgemap {"]
    for v in range(m.num_vertices):
        fill = "black" if m.vertex_color[v] == BLACK else "white"
        font = "white" if m.vertex_color[v] == BLACK else "black"
        mark = " peripheries=2" if m.root == v else ""
        lines.append(
            f'  v{v} [shape=circle style=filled fillcolor={fill} fontcolor={font}{mark} label="{v}"];'
        )
    done = set()
    for x in range(m.num_darts):
        t = m.twin[x]
        if t is None:
            lines.append(f"  s{x} [shape=none label=\"\" width=0 height=0];")
            lines.append(f'  v{m.vertex[x]} -- s{x} [label="{m.type[x]}" style=dashed arrowhead=vee];')
        elif x < t:
            key = (x, t)
            if key not in done:
                done.add(key)
                lines.append(f'  v{m.vertex[x]} -- v{m.vertex[t]} [label="{m.type[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def product_of(c: Constellation) -> Permutation:
    return compose_all(list(to_permutations(c)))
