"""Constellations as rotation systems on k-typed hypergraphs.

A k-constellation of size n has n hyperedges (its black k-gonal faces),
each incident to one vertex of every type 1..k, plus a clockwise cyclic
order of the incident hyperedges around every vertex.  The representation
map identifies hyperedge-labelled constellations with tuples of k
permutations of [n] acting transitively: the cycles of the t-th
permutation are the counterclockwise hyperedge orders around the type-t
vertices, so the stored clockwise rotations are the reversed cycles.

Edges are pairs (h, t): the type-t side of hyperedge h, joining its
type-t vertex to its type-(t+1) vertex.  The white faces are the white
vertices of the dual map, which :func:`dual` writes straight from the
rotations; faces are traced only by :class:`HalfEdgeMap`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .counting import _check_cap, _check_size, _require
from .halfedges import BLACK, HalfEdgeMap, _json_field, _json_int, typed_map
from .permutations import Permutation, all_permutations, cycles

Edge = tuple[int, int]  # (hyperedge id, type)


def _norm_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic sequence so its minimum comes first, as a tuple."""
    seq = tuple(seq)
    i = seq.index(min(seq))
    return seq[i:] + seq[:i] if i else seq


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
        for v, (t2, label) in enumerate(zip(self.vertex_type, self.labels), start=1):
            if t2 == t and label == i:
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

        def per_vertex(values, read=_json_int) -> tuple:
            return tuple(read(values[str(v)]) for v in range(1, nv + 1))

        labels = colors = None
        if "labels" in data:
            labels = _json_field(data, "labels", per_vertex)
        if "colors" in data:
            colors = _json_field(data, "colors", per_vertex)
        c = cls(
            k=_json_field(data, "k", _json_int),
            n=_json_field(data, "n", _json_int),
            hyperedges=_json_field(
                data, "hyperedges", lambda hes: tuple(tuple(map(_json_int, he)) for he in hes)
            ),
            vertex_type=_json_field(data, "vertex_type", per_vertex),
            rotation=_json_field(
                data,
                "rotation",
                lambda rot: per_vertex(rot, lambda r: _norm_cycle([*map(_json_int, r)])),
            ),
            root=_json_field(data, "root", _json_int) if "root" in data else None,
            labels=labels,
            colors=colors,
        )
        _require(validate(c))
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
    k: int,
    n: int,
    verts: Sequence[tuple[int, Sequence[int]]],
    root: Optional[int],
    labels: Optional[Sequence[int]] = None,
) -> tuple[Constellation, list[int]]:
    """Assemble a constellation from (type, clockwise rotation) vertices.

    The one place that numbers vertices: by (type, smallest incident
    hyperedge).  ``labels[i]``, when given, is the label of ``verts[i]``.
    Returns the constellation and ``order``, where vertex ``j + 1`` is
    ``verts[order[j]]``.
    """
    # each rotation turned to start at its least hyperedge, which also keys
    # the sort: no two vertices share a type and a hyperedge
    ranked = sorted((t, _norm_cycle(rot), i) for i, (t, rot) in enumerate(verts))
    order = [i for _, _, i in ranked]
    slot = [[0] * n for _ in range(k)]  # slot[t-1][h-1]: type-t vertex of hyperedge h
    for v, (t, rot, _) in enumerate(ranked, start=1):
        row = slot[t - 1]
        for h in rot:
            row[h - 1] = v
    c = Constellation(
        k=k,
        n=n,
        hyperedges=tuple(zip(*slot)),
        vertex_type=tuple([t for t, _, _ in ranked]),
        rotation=tuple([rot for _, rot, _ in ranked]),
        root=root,
        labels=None if labels is None else tuple([labels[i] for i in order]),
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


def validate(c: Constellation) -> Optional[str]:
    """Return the first violated invariant (with location), or None."""
    if c.k < 2:
        return "k must be at least 2"
    if c.n < 1:
        return "n must be at least 1"
    if len(c.hyperedges) != c.n:
        return "wrong number of hyperedges"
    k, nv, vertex_type, rotation = c.k, c.num_vertices, c.vertex_type, c.rotation
    # incident[v]: the hyperedges at v, increasing, since a vertex has one
    # slot per hyperedge it is in
    incident: list[list[int]] = [[] for _ in range(nv + 1)]
    for h, he in enumerate(c.hyperedges, start=1):
        if len(he) != k:
            return f"hyperedge {h} does not have one vertex per type"
        for t, v in enumerate(he, start=1):
            if not (1 <= v <= nv):
                return f"hyperedge {h} references unknown vertex {v}"
            if vertex_type[v - 1] != t:
                return f"hyperedge {h} slot {t} holds a vertex of type {vertex_type[v - 1]}"
            incident[v].append(h)
    for v in range(1, nv + 1):
        rot = rotation[v - 1]
        if sorted(rot) != incident[v]:
            # incident[v] has no repeat, so a rotation that repeats a
            # hyperedge lands here; the set only words which failure it is
            if len(rot) != len(set(rot)):
                return f"rotation at vertex {v} repeats a hyperedge"
            return f"rotation incomplete at vertex {v}"
        if not rot:
            return f"vertex {v} is isolated"
    # the orbits of the permutations c represents are the classes of hyperedges
    # joined by shared vertices, since each rotation lists its incident hyperedges
    if len(_hyperedge_order(c.hyperedges, rotation, 1)) != c.n:
        return "not transitive"
    if c.root is not None and not (1 <= c.root <= c.n):
        return f"root hyperedge {c.root} out of range"
    labels, colors = c.labels, c.colors
    if labels is None and colors is None:
        return None
    # every vertex is incident to a hyperedge, so its type is in [k]
    if labels is not None:
        labels_of_type: list[list[int]] = [[] for _ in range(k)]
        for v, t in enumerate(vertex_type):
            labels_of_type[t - 1].append(labels[v])
        for t, got in enumerate(labels_of_type, start=1):
            got.sort()
            if got != list(range(1, len(got) + 1)):
                return f"labels of type {t} are not a bijection onto [{len(got)}]"
    if colors is not None:
        colors_of_type: list[set[int]] = [set() for _ in range(k)]
        for v, t in enumerate(vertex_type):
            colors_of_type[t - 1].add(colors[v])
        for t, got in enumerate(colors_of_type, start=1):
            # onto [max(got)] exactly when got is [len(got)], which never
            # sizes a set by an input value
            if got != set(range(1, len(got) + 1)):
                return f"colors of type {t} are not surjective"
    return None


def validate_arborescence(c: Constellation, a: Arborescence) -> Optional[str]:
    """Check that ``a`` is a v0-arborescence of ``c``."""
    nv = c.num_vertices
    parent_edge = a.parent_edge
    if len(parent_edge) != nv:
        return "parent_edge has wrong length"
    root = a.root_vertex
    if not (1 <= root <= nv):
        return "root vertex out of range"
    hyperedges, k = c.hyperedges, c.k
    # head[v]: the vertex v's parent edge leads to
    head = [0] * (nv + 1)
    for v, e in enumerate(parent_edge, start=1):
        if v == root:
            if e is not None:
                return "root vertex has a parent edge"
            continue
        if e is None:
            return f"vertex {v} has no parent edge"
        h, t = e
        if t != c.vertex_type[v - 1]:
            return f"parent edge of vertex {v} has type {t}, vertex has type {c.vertex_type[v - 1]}"
        he = hyperedges[h - 1]
        if he[t - 1] != v:
            return f"parent edge of vertex {v} is not incident to it"
        head[v] = he[t % k]
    # every vertex must reach the root by following parents; mark[u] is the
    # first vertex whose walk passed u, and every earlier walk reached the root
    mark = [0] * (nv + 1)
    mark[root] = -1
    for v in range(1, nv + 1):
        u = v
        while mark[u] == 0:
            mark[u] = v
            u = head[u]
        if mark[u] == v:
            return f"parent edges cycle at vertex {v}"
    return None


def _validate_tree_pointed(c: Constellation, a: Arborescence) -> Optional[str]:
    """The checks of a tree-pointed constellation, which a tree-rooted one
    starts with: c is valid and rooted, and ``a`` is an arborescence of c."""
    problem = validate(c)
    if problem is not None:
        return problem
    if c.root is None:
        return "constellation is not rooted"
    return validate_arborescence(c, a)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def dual(c: Constellation, cut: Iterable[Edge]) -> HalfEdgeMap:
    """The dual map: black vertices are hyperedges, white vertices are white faces.

    Types increase clockwise around black vertices and decrease around
    white ones.  Where g comes just before h clockwise around a type-t
    vertex, the dual edge crossing (h, t) follows the one crossing
    (g, t-1) clockwise around their white vertex.  The dual edge crossing
    (h, t) is slot (h, t) of :func:`~constellation_lab.halfedges.typed_map`,
    and is cut into a bud pair when (h, t) is in ``cut``.
    """
    k = c.k
    white_next = {}
    for t, rot in zip(c.vertex_type, c.rotation):
        t_prev = (t - 2) % k + 1
        for g, h in zip(rot[-1:] + rot[:-1], rot):
            white_next[(h, t)] = (g, t_prev)
    return typed_map(k, c.n, white_next, cut, c.root)


def constellation_from_dual(m: HalfEdgeMap) -> tuple[Constellation, dict[int, int], list[int]]:
    """Rebuild the constellation whose dual is ``m`` (no buds allowed).

    ``m`` is taken to pass :func:`~constellation_lab.nebulas.validate_nebula`,
    which :func:`~constellation_lab.nebulas.dual_closure` runs before
    closing; its checks are not repeated here.  Returns (constellation,
    hyperedge_of_black_vertex, vertex_of_dart): the second maps black vertex
    ids of m to hyperedge ids, the third lists, for every black dart of m,
    the constellation vertex dual to its face (0 at white darts).
    """
    if None in m.twin:
        raise ValueError("dual-constellation may not have buds")
    vertex, nxt, twin, type_ = m.vertex, m.nxt, m.twin, m.type
    blacks = [v for v, color in enumerate(m.vertex_color) if color == BLACK]
    hyperedge_of_black = {b: i + 1 for i, b in enumerate(blacks)}
    # faces of the dual are the constellation vertices.  Twins share a type and
    # types increase clockwise around black vertices, decrease around white
    # ones, so a tour alternates type-t black and type-(t-1) white darts: the
    # black darts of a face share a type and give its counterclockwise cycle.
    # One walk per face, two tour steps at a time, visits its black darts.
    face_of = [-1] * len(vertex)  # the index in verts of the face of each black dart
    verts: list[tuple[int, tuple[int, ...]]] = []
    for start, v in enumerate(vertex):
        if face_of[start] >= 0 or v not in hyperedge_of_black:
            continue
        f = len(verts)
        hs = []
        x = start
        while face_of[x] < 0:
            face_of[x] = f
            hs.append(hyperedge_of_black[vertex[x]])
            x = nxt[twin[nxt[twin[x]]]]
        hs.reverse()
        verts.append((type_[start], tuple(hs)))
    root = None if m.root is None else hyperedge_of_black[m.root]
    c, order = _from_rotations(m.k, len(blacks), verts, root)
    # place[f]: the vertex id of face f; white darts, at face -1, read the 0 at the end
    place = [0] * (len(order) + 1)
    for j, i in enumerate(order, start=1):
        place[i] = j
    return c, hyperedge_of_black, [place[f] for f in face_of]


# ---------------------------------------------------------------------------
# Root-first hyperedge order
# ---------------------------------------------------------------------------


def _hyperedge_order(
    hyperedges: Sequence[Sequence[int]], rotation: Sequence[Sequence[int]], start: int
) -> list[int]:
    """The hyperedges reached from ``start``, root-first.

    ``hyperedges[h-1][t-1]`` is the type-t vertex of hyperedge h and
    ``rotation[v-1]`` the clockwise hyperedge order around vertex v, as in
    :class:`Constellation`.  Each reached hyperedge scans its vertices in
    type order, and a vertex not scanned before lists its rotation clockwise
    from just after that hyperedge.  A vertex is scanned once: its whole
    rotation is then reached.  Renaming hyperedges by their place in this
    order is the one canonical labelling of rooted objects.
    """
    order = [start]
    reached = [False] * (len(hyperedges) + 1)
    reached[start] = True
    scanned = [False] * (len(rotation) + 1)
    for h in order:  # grows while it is read
        for v in hyperedges[h - 1]:
            if scanned[v]:
                continue
            scanned[v] = True
            rot = rotation[v - 1]
            i = rot.index(h)
            for g in rot[i + 1 :] + rot[:i]:
                if not reached[g]:
                    reached[g] = True
                    order.append(g)
    return order


# ---------------------------------------------------------------------------
# Exhaustive enumeration (small sizes)
# ---------------------------------------------------------------------------


def transitive_tuples(n: int, k: int) -> Iterator[tuple[Permutation, ...]]:
    """All k-tuples of permutations of [n] acting transitively, lexicographically."""
    for perms in itertools.product(all_permutations(n), repeat=k):
        if is_transitive(perms):
            yield perms


def enumerate_rooted_constellations(
    n: int,
    k: int,
    type_vector: Optional[Sequence[int]] = None,
    cap: Optional[int] = None,
) -> list[Constellation]:
    """All rooted k-constellations of size n, in canonical form.

    The domain is generated once per (n, k) for the life of the process
    (:func:`_rooted_walk`) and grouped once by type vector (vertices per
    type); every call checks the size and the n!^k tuples that bound the
    domain against the cap (:class:`CapExceededError`) before the memo, and
    returns a new list.
    """
    _check_size(n, k, type_vector, n_min=1, k_min=2, p_min=0)
    _check_rooted_cap(n, k, cap)
    if type_vector is None:
        return list(_rooted_constellations(n, k))
    return list(_rooted_by_type(n, k).get(tuple(type_vector), ()))


def _check_rooted_cap(n: int, k: int, cap: Optional[int]) -> None:
    """The cap check of the rooted-constellation domain: the n!^k tuples
    of permutations it is a quotient of."""
    _check_cap(factorial(n) ** k, cap)


def _rooted_walk(n: int, k: int) -> list[Constellation]:
    """Every rooted k-constellation of size n once, already canonical.

    Canonical augmentation along :func:`_hyperedge_order`: the clockwise
    successors ``tau_t = sigma_t^-1`` are chosen lazily in the order in which
    that walk scans them, so each type-t vertex is opened at the first
    hyperedge h that reaches it and its rotation is chosen from h on.  A
    successor is h itself (closing the rotation), a reached hyperedge with no
    type-t predecessor yet, or the next unused label.  So the root-first
    order of every object built is the identity, and the tuples are exactly
    the transitive ones whose root-first labelling is the identity, each
    once.  Rooted maps have no automorphisms, so no isomorphism test is
    needed.  The order of the list is that of the search.
    """
    tau = [[0] * (n + 1) for _ in range(k)]  # tau[t-1][h]: 0 until chosen
    pred = [[0] * (n + 1) for _ in range(k)]  # its inverse, as far as chosen
    out: list[Constellation] = []

    def build() -> Constellation:
        verts = []
        for t, row in enumerate(tau, start=1):
            seen = [False] * (n + 1)
            for h in range(1, n + 1):
                if not seen[h]:
                    rot = [h]
                    seen[h] = True
                    g = row[h]
                    while g != h:
                        rot.append(g)
                        seen[g] = True
                        g = row[g]
                    verts.append((t, rot))
        return _from_rotations(k, n, verts, 1)[0]

    def open_next(h: int, t: int, reached: int) -> None:
        # the next vertex the root-first order scans: (hyperedge h, type t + 1)
        while True:
            if t == k:
                h, t = h + 1, 0
                if h > reached:  # the order has ended: transitive iff all n reached
                    if reached == n:
                        out.append(build())
                    return
            if not tau[t][h]:
                return extend(h, t, h, reached)
            t += 1

    def extend(h: int, t: int, last: int, reached: int) -> None:
        # choose tau_t(last) for the rotation of (h, t + 1) opened at h
        row, back = tau[t], pred[t]
        for g in range(1, reached + 1 + (reached < n)):
            if back[g]:
                continue
            row[last] = g
            back[g] = last
            if g == h:
                open_next(h, t + 1, reached)
            else:
                extend(h, t, g, max(reached, g))
            back[g] = 0
        row[last] = 0

    open_next(1, 0, 1)
    return out


@lru_cache(maxsize=None)
def _rooted_constellations(n: int, k: int) -> tuple[Constellation, ...]:
    """The rooted domain, sorted by hyperedges and rotations."""
    return tuple(sorted(_rooted_walk(n, k), key=lambda c: (c.hyperedges, c.rotation)))


@lru_cache(maxsize=None)
def _rooted_by_type(n: int, k: int) -> Mapping[tuple[int, ...], tuple[Constellation, ...]]:
    """The rooted domain grouped by type vector, each group in sorted order."""
    groups: dict[tuple[int, ...], list[Constellation]] = {}
    for c in _rooted_constellations(n, k):
        groups.setdefault(c.type_vector(), []).append(c)
    return MappingProxyType({p: tuple(cs) for p, cs in groups.items()})


def arborescences_toward(c: Constellation, v0: int) -> Iterator[Arborescence]:
    """All v0-arborescences of c, in the order of the product of the parent
    edge choices (vertices increasing, each vertex's edges in rotation order).

    A depth-first search takes the vertices other than v0 in increasing
    order and keeps a parent edge only when the parent walk from its head
    does not come back to the vertex.  The walk stops at v0 or at a vertex
    not yet given a parent, so the edges kept never close a cycle, and when
    every vertex has one they form an arborescence toward v0.
    """
    nv, k, hyperedges = c.num_vertices, c.k, c.hyperedges
    others = [v for v in range(1, nv + 1) if v != v0]
    # choices[d]: (parent edge, head) of the vertex others[d]
    choices = []
    for v in others:
        t = c.vertex_type[v - 1]
        choices.append([((h, t), hyperedges[h - 1][t % k]) for h in c.rotation[v - 1]])
    parent: list[Optional[Edge]] = [None] * nv
    head = [0] * (nv + 1)  # head[v]: where v's parent edge leads, 0 while v has none
    # every type has a vertex, so others is not empty
    last = len(others) - 1
    tried = [0] * len(others)  # the choices of each depth already tried
    d = 0
    while d >= 0:
        v = others[d]
        head[v] = 0
        options = choices[d]
        j = tried[d]
        while j < len(options):
            e, to = options[j]
            j += 1
            u = to
            while head[u]:
                u = head[u]
            if u != v:
                break
        else:
            tried[d] = 0
            d -= 1
            continue
        tried[d] = j
        head[v] = to
        parent[v - 1] = e
        if d == last:
            yield Arborescence(root_vertex=v0, parent_edge=tuple(parent))
        else:
            d += 1


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
    for x in range(m.num_darts):
        t = m.twin[x]
        if t is None:
            lines.append(f"  s{x} [shape=none label=\"\" width=0 height=0];")
            lines.append(f'  v{m.vertex[x]} -- s{x} [label="{m.type[x]}" style=dashed arrowhead=vee];')
        elif x < t:
            lines.append(f'  v{m.vertex[x]} -- v{m.vertex[t]} [label="{m.type[x]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
