"""Degree transport on vertex-labelled tree-rooted constellations.

The elementary move unglues one hyperedge from the type-t vertex labelled
i and reglues it at the vertex labelled j (possibly exchanging a whole
block of hyperedges and the two labels, depending on whether the freed
edge lies on the tree path from the target vertex to the root), dropping
the hyperdegree of (t, i) by one and raising (t, j) by one.  Composing
elementary moves transports any vertex-composition profile to any other
with the same lengths.
"""
from __future__ import annotations

from .constellations import Constellation, _norm_cycle, validate_arborescence
from .counting import _require
from .tree_rooted import TreeRootedConstellation


def _anchored(rot: tuple[int, ...], h: int) -> tuple[int, ...]:
    """Rotate a cyclic tuple so h comes first."""
    i = rot.index(h)
    return rot[i:] + rot[:i]


def _tree_path_edges(t_rooted: TreeRootedConstellation, v: int) -> set[tuple[int, int]]:
    """Edges on the arborescence path from v to the root vertex."""
    c = t_rooted.constellation
    a = t_rooted.arborescence
    out: set[tuple[int, int]] = set()
    u = v
    while u != a.root_vertex:
        e = a.parent_edge[u - 1]
        out.add(e)
        u = c.edge_endpoints(e)[1]
    return out


def _parent_hyperedge(t_rooted: TreeRootedConstellation, v: int) -> int:
    """The hyperedge of v's parent edge; for the root vertex, the root hyperedge."""
    if v == t_rooted.arborescence.root_vertex:
        return t_rooted.constellation.root
    return t_rooted.arborescence.parent_edge[v - 1][0]


def swap_degree(
    t_rooted: TreeRootedConstellation, t: int, i: int, j: int
) -> TreeRootedConstellation:
    """Move one unit of hyperdegree from the type-t vertex labelled i to label j.

    Requires i != j and hyperdegree at least 2 at (t, i).  The move is an
    involution together with ``swap_degree(result, t, j, i)``.  Raises
    ValueError unless the arborescence is one of the constellation, the
    condition for the walk to the root vertex to end.
    """
    if i == j:
        raise ValueError("labels i and j must differ")
    c = t_rooted.constellation
    _require(validate_arborescence(c, t_rooted.arborescence))
    u_i = c.vertex_by_label(t, i)
    u_j = c.vertex_by_label(t, j)
    if c.hyperdegree(u_i) < 2:
        raise ValueError(f"hyperdegree < 2 at type {t} label {i}")

    h_i = _parent_hyperedge(t_rooted, u_i)
    h_j = _parent_hyperedge(t_rooted, u_j)
    rot_i = _anchored(c.rotation[u_i - 1], h_i)
    h_i_prime = rot_i[-1]  # hyperedge preceding h_i clockwise around u_i
    t_prev = (t - 2) % c.k + 1
    e_i = (h_i_prime, t_prev)

    # the rows of the hyperedges whose type-t vertex moves are rebuilt, the
    # others shared
    hyperedges = list(c.hyperedges)

    def move(h: int, u: int) -> None:
        he = hyperedges[h - 1]
        hyperedges[h - 1] = he[: t - 1] + (u,) + he[t:]

    rotation = list(c.rotation)

    if e_i not in _tree_path_edges(t_rooted, u_j):
        # single-hyperedge reglue: h_i' moves from u_i to u_j, landing in
        # the corner just before h_j clockwise
        move(h_i_prime, u_j)
        rotation[u_i - 1] = _norm_cycle([h for h in rot_i if h != h_i_prime])
        rot_j = _anchored(c.rotation[u_j - 1], h_j)
        rotation[u_j - 1] = _norm_cycle(rot_j[1:] + (h_i_prime, h_j))
        labels = c.labels
    else:
        # mass reglue with label swap: everything at u_i except h_i, h_i'
        # goes to u_j, everything at u_j except h_j goes to u_i (kept in
        # clockwise order), then the labels i and j are exchanged
        rest_i = [h for h in rot_i[1:] if h != h_i_prime]
        rot_j = _anchored(c.rotation[u_j - 1], h_j)
        rest_j = list(rot_j[1:])
        for h in rest_j:
            move(h, u_i)
        for h in rest_i:
            move(h, u_j)
        rotation[u_i - 1] = _norm_cycle([h_i] + rest_j + [h_i_prime])
        rotation[u_j - 1] = _norm_cycle([h_j] + rest_i)
        labels = list(c.labels)
        labels[u_i - 1], labels[u_j - 1] = labels[u_j - 1], labels[u_i - 1]
        labels = tuple(labels)

    new_c = Constellation(
        k=c.k,
        n=c.n,
        hyperedges=tuple(hyperedges),
        vertex_type=c.vertex_type,
        rotation=tuple(rotation),
        root=c.root,
        labels=labels,
        colors=c.colors,
    )
    return TreeRootedConstellation(constellation=new_c, arborescence=t_rooted.arborescence)
