"""Brute-force oracles that only tests use: each enumerates the whole space
that a library function counts by a faster route."""
import itertools
from fractions import Fraction
from math import factorial, prod

from constellation_lab.biddings import (
    Bidding,
    TypedGraph,
    alpha,
    canonical_labelling,
    is_valid_bidding,
    vartheta,
)
from constellation_lab.constellations import (
    canonical_rooted,
    dual_black_dart,
    dual_white_dart,
    from_permutations,
    to_permutations,
    transitive_tuples,
)
from constellation_lab.counting import m_tuples
from constellation_lab.halfedges import BLACK, WHITE, HalfEdgeMap
from constellation_lab.nebulas import enumerate_tree_pointed
from constellation_lab.permutations import Permutation, all_permutations, compose_all, cycles
from constellation_lab.puzzle import UndefinedProbabilityError
from constellation_lab.tree_rooted import enumerate_tree_rooted


def tree_probability_by_tuples(n, k, p, cap=None):
    """P(successor graph of a uniform pair is a tree) by a walk over every
    subset tuple of type p, its index tuples grouped by successor; oracle for
    :func:`constellation_lab.puzzle.tree_probability`, which walks multisets.

    With ``mult[t][a]`` the number of i such that alpha(t, R_i) = a, the
    index tuples whose successor graph has the edges {t, f(t)} number
    ``prod_t mult[t][f(t)]``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    p = tuple(p)
    successors = {}
    tree_maps = {}
    hits = 0
    total_tuples = 0
    for mt in m_tuples(n, k, p, cap):
        total_tuples += 1
        mult = [{} for _ in range(k - 1)]
        for s in mt.subsets:
            if s not in successors:
                successors[s] = tuple(alpha(t, s, k) for t in range(1, k))
            for row, a in zip(mult, successors[s]):
                row[a] = row.get(a, 0) + 1
        for f in itertools.product(*mult):
            if f not in tree_maps:
                edges = sorted((min(t, a), max(t, a)) for t, a in enumerate(f, start=1))
                tree_maps[f] = TypedGraph(k=k, edges=tuple(edges)).is_tree()
            if tree_maps[f]:
                hits += prod(row[a] for row, a in zip(mult, f))
    if total_tuples == 0:
        raise UndefinedProbabilityError(f"no subset tuples of type {p}")
    return Fraction(hits, n ** (k - 1) * total_tuples)


def event_probability_naive(constraints, n, k, p):
    """P(A_s is contained in R_{i_s} for all s) by full product-space
    enumeration; oracle for :func:`constellation_lab.puzzle.event_probability`."""
    constraints = [frozenset(a) for a in constraints]
    m = len(constraints)
    hits = 0
    total = 0
    for mt in m_tuples(n, k, p):
        total += 1
        for indices in itertools.product(range(1, n + 1), repeat=m):
            if all(a <= mt.subsets[i - 1] for a, i in zip(constraints, indices)):
                hits += 1
    if total == 0:
        raise UndefinedProbabilityError(f"no subset tuples of type {p}")
    return Fraction(hits, n**m * total)


def rooted_constellations_naive(n, k, type_vector=None):
    """A fresh walk over all transitive k-tuples, keeping the tuples whose
    cycle counts are ``type_vector``; oracle for
    :func:`constellation_lab.constellations.enumerate_rooted_constellations`."""
    out = {}
    for perms in transitive_tuples(n, k):
        if type_vector is not None and tuple(len(cycles(p)) for p in perms) != type_vector:
            continue
        canon, _ = canonical_rooted(from_permutations(perms, root=1))
        out[canon.hyperedges + canon.rotation + (canon.root,)] = canon
    return sorted(out.values(), key=lambda c: (c.hyperedges, c.rotation))


def pointing_counts_naive(n, k, p, cap=None):
    """Both sides of the pointing correspondence by enumeration: tree-pointed
    objects filtered by reduced type p, times prod p_t!, and every labelled
    tree-rooted object of each type p + e_t; oracle for
    :func:`constellation_lab.nebulas.verify_pointing`."""
    p = tuple(p)
    pointed = sum(1 for tp in enumerate_tree_pointed(n, k, cap) if tp.reduced_type() == p)
    lhs = pointed * prod(factorial(x) for x in p)
    rhs = 0
    for t in range(k):
        bumped = p[:t] + (p[t] + 1,) + p[t + 1:]
        rhs += sum(1 for _ in enumerate_tree_rooted(n, k, bumped, cap))
    return lhs, rhs


def bfs_hyperedge_relabelling_naive(c):
    """Root-first hyperedge labelling that rescans every vertex of each
    reached hyperedge; oracle for
    :func:`constellation_lab.constellations.bfs_hyperedge_relabelling`."""
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
    return s


def from_cycles(n, cycs):
    """Build a permutation of [n] from cycles; omitted elements are fixed points."""
    image = list(range(1, n + 1))
    for cyc in cycs:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b
    return Permutation(tuple(image))


def product_of(c):
    """The product of the permutations a constellation represents."""
    return compose_all(list(to_permutations(c)))


def digraph_arborescences(v0, exits, head):
    """All arc sets {v != v0: outgoing arc} forming a tree toward v0, by brute
    force over every choice of one exit per vertex (digraphs as in
    :func:`constellation_lab.tree_rooted.best_compose`)."""
    others = [v for v in exits if v != v0]

    def reaches_v0(v, tree):
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


def _match_fixpoint(m, word):
    """Alternative to :func:`constellation_lab.nebulas._match_parenthesis`:
    repeatedly glue the last adjacent (white, black) pair on the remaining
    cyclic word.  Used to certify order-independence."""
    remaining = list(word)
    pairs = []
    while remaining:
        n = len(remaining)
        found = None
        for idx in range(n - 1, -1, -1):
            w, b = remaining[idx], remaining[(idx + 1) % n]
            if (
                m.vertex_color[m.vertex[w]] == WHITE
                and m.vertex_color[m.vertex[b]] == BLACK
            ):
                found = idx
                break
        if found is None:
            raise ValueError("no matching bud pair on a nonempty word")
        w, b = remaining[found], remaining[(found + 1) % len(remaining)]
        pairs.append((w, b))
        remaining.remove(w)
        remaining.remove(b)
    return pairs


def nebula_key(nb):
    """Canonical encoding of a rooted nebula (its canonical prebidding)."""
    pb = vartheta(canonical_labelling(nb))
    return (pb.k, pb.order, pb.subsets)


def enumerate_valid_biddings(n, k, p=None):
    """All valid biddings, by brute force over omega tuples and subsets."""
    for mt in m_tuples(n, k, p):
        for omegas in itertools.product(all_permutations(n), repeat=k):
            b = Bidding(omegas=omegas, subsets=mt.subsets)
            if is_valid_bidding(b):
                yield b


def dual_by_face_orbits(c):
    """The dual map built by tracing the faces of c on its 2nk darts.

    A dart (h, t, side) sits on edge (h, t), at its type-t end for side 0.
    Around each vertex the clockwise dart order is, per hyperedge h of the
    rotation, (h, t, 0) then (h, t-1, 1); the tour step is
    d -> cw_next(twin(d)).  The side-0 orbits are the white faces, numbered
    by least dart; oracle for :func:`constellation_lab.constellations.dual`.
    """
    cw_next = {}
    for t, rot in zip(c.vertex_type, c.rotation):
        order = [d for h in rot for d in ((h, t, 0), (h, (t - 2) % c.k + 1, 1))]
        cw_next.update(zip(order, order[1:] + order[:1]))
    whites = []
    seen = set()
    for d0 in sorted(cw_next):
        orbit = []
        d = d0
        while d not in seen:
            seen.add(d)
            orbit.append(d)
            d = cw_next[(d[0], d[1], 1 - d[2])]
        if orbit and d0[2] == 0:
            whites.append(orbit)
    H = 2 * c.n * c.k
    vertex, nxt, twin, dtype = [0] * H, [0] * H, [0] * H, [0] * H
    for h in range(1, c.n + 1):
        for t in range(1, c.k + 1):
            b = dual_black_dart(c, (h, t))
            vertex[b], dtype[b], dtype[b + 1] = h - 1, t, t
            twin[b], twin[b + 1] = b + 1, b
            nxt[b] = dual_black_dart(c, (h, t % c.k + 1))
    for f, orbit in enumerate(whites):
        for d_prev, d in zip(orbit, orbit[1:] + orbit[:1]):
            w = dual_white_dart(c, d[:2])
            vertex[w] = c.n + f
            nxt[w] = dual_white_dart(c, d_prev[:2])
    colors = (BLACK,) * c.n + (WHITE,) * len(whites)
    root = None if c.root is None else c.root - 1
    return HalfEdgeMap(c.k, tuple(vertex), tuple(nxt), tuple(twin), tuple(dtype), colors, root)
