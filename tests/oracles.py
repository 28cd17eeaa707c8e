"""Code that only tests use: brute-force oracles, each enumerating the whole
space that a library function counts by a faster route, and the helpers the
tests read objects with."""
import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, prod

from constellation_lab.biddings import (
    Bidding,
    LabelledNebula,
    TypedGraph,
    alpha,
    is_valid_bidding,
    vartheta,
)
from constellation_lab.constellations import (
    Arborescence,
    _from_rotations,
    _hyperedge_order,
    dual,
    from_permutations,
    transitive_tuples,
    validate_arborescence,
)
from constellation_lab.counting import (
    ColoredFactorization,
    _composition_assignments,
    cycle_type_census,
    enumerate_factorizations,
    m_tuples,
    surjection_count,
)
from constellation_lab.halfedges import BLACK, WHITE, HalfEdgeMap
from constellation_lab.nebulas import enumerate_tree_pointed
from constellation_lab.permutations import (
    Composition,
    Permutation,
    all_permutations,
    compose,
    compose_all,
    cycle_type,
    cycles,
    inverse,
    long_cycle,
    orbits,
)
from constellation_lab.puzzle import UndefinedProbabilityError, event_probability
from constellation_lab.symmetry import swap_degree, transport_schedule
from constellation_lab.tree_rooted import (
    TreeRootedConstellation,
    best_decompose,
    enumerate_tree_rooted,
    xi,
)


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


def k3_sum_by_fractions(n, p):
    """The nine-term alternating sum of the k=3 inclusion-exclusion as nine
    public ``event_probability`` values; oracle for the right side of
    :func:`constellation_lab.puzzle.verify_k3_inclusion_exclusion`."""

    def P(a, b):
        return event_probability([a, b], n, 3, p)

    return (
        P({1}, {2}) + P({1}, {3}) + P({2}, {3})
        - P({1}, {2, 3}) - P({2}, {1, 3}) - P({3}, {1, 2})
        + P({1, 2}, {1, 3}) + P({1, 2}, {2, 3}) + P({1, 3}, {2, 3})
    )


def exchange_counts_by_pairs(n, p, a, b, c):
    """(|E1|, |E2|) of the k=3 exchange lemma by a loop over every subset
    tuple of type p and every index pair (i, j); oracle for the position
    counts of :func:`constellation_lab.puzzle.verify_exchange_lemma`.  E1
    requires a in R_i, c not in R_i, b in R_j; E2 requires a, b in R_i, c not
    in R_i, R_j != {a, c}."""
    e1 = e2 = 0
    for mt in m_tuples(n, 3, p):
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            ri, rj = mt.subsets[i - 1], mt.subsets[j - 1]
            if a in ri and c not in ri and b in rj:
                e1 += 1
            if a in ri and b in ri and c not in ri and rj != frozenset({a, c}):
                e2 += 1
    return e1, e2


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


def rooted_constellations_by_filter(n, k):
    """The walk over all n!^k tuples that keeps, of the transitive ones rooted
    at hyperedge 1, those whose root-first order is already the identity,
    sorted as the library sorts them; oracle for
    :func:`constellation_lab.constellations._rooted_walk`."""
    first_n = list(range(1, n + 1))
    out = []
    for perms in transitive_tuples(n, k):
        c = from_permutations(perms, root=1)
        if _hyperedge_order(c.hyperedges, c.rotation, 1) == first_n:
            out.append(c)
    return sorted(out, key=lambda c: (c.hyperedges, c.rotation))


def arborescences_by_product(c, v0):
    """Every parent-edge choice of the vertices other than v0, in product
    order, kept when :func:`validate_arborescence` passes it; oracle for
    :func:`constellation_lab.constellations.arborescences_toward`."""
    nv = c.num_vertices
    others = [v for v in range(1, nv + 1) if v != v0]
    choices = [[(h, c.vertex_type[v - 1]) for h in c.rotation[v - 1]] for v in others]
    for combo in itertools.product(*choices):
        parent = [None] * nv
        for v, e in zip(others, combo):
            parent[v - 1] = e
        a = Arborescence(root_vertex=v0, parent_edge=tuple(parent))
        if validate_arborescence(c, a) is None:
            yield a


def pointing_counts_naive(n, k, p, cap=None):
    """Both sides of the pointing correspondence by enumeration: tree-pointed
    objects filtered by reduced type p, times prod p_t!, and every labelled
    tree-rooted object of each type p + e_t; oracle for
    :func:`constellation_lab.nebulas.verify_pointing`."""
    p = tuple(p)
    pointed = sum(1 for tp in enumerate_tree_pointed(n, k, cap) if reduced_type(tp) == p)
    lhs = pointed * prod(factorial(x) for x in p)
    rhs = 0
    for t in range(k):
        bumped = p[:t] + (p[t] + 1,) + p[t + 1:]
        # every type has a vertex, and enumerate_tree_rooted rejects a type
        # vector with a zero entry
        if min(bumped) >= 1:
            rhs += sum(1 for _ in enumerate_tree_rooted(n, k, bumped, cap))
    return lhs, rhs


def cycle_type_census_by_stream(n, k):
    """How many factorizations have each tuple of factor cycle types, keyed in
    the order first met, by typing every tuple of the factorization stream;
    oracle for :func:`constellation_lab.counting.cycle_type_census`, which
    reads the types from tables over S_n."""
    census = {}
    for perms in enumerate_factorizations(n, k):
        key = tuple(cycle_type(q).parts for q in perms)
        census[key] = census.get(key, 0) + 1
    return census


def color_composition_count_by_census(gammas, cap=None):
    """c(gamma^(1),...,gamma^(k)) as one sum over every census key, weighted
    per factor by the colorings of its cycles with the color sizes of
    gamma^(t); oracle for
    :func:`constellation_lab.counting.color_composition_counts`, which
    contracts the census one factor at a time."""
    n = gammas[0].size
    return sum(
        cnt * prod(_composition_assignments(lam, g.parts) for lam, g in zip(lams, gammas))
        for lams, cnt in cycle_type_census(n, len(gammas), cap).items()
    )


def colored_count_by_census(n, p, cap=None):
    """C^n_p as one sum over every census key of the surjections from each
    factor's cycles onto its colors; oracle for
    :func:`constellation_lab.counting.count_colored`, which sums over the
    census by cycle numbers."""
    return sum(
        cnt * prod(surjection_count(len(lam), pt) for lam, pt in zip(lams, p))
        for lams, cnt in cycle_type_census(n, len(p), cap).items()
    )


def gf_left_side_by_census(n, xs, cap=None):
    """The left side of the cycle-count generating identity, prod_t
    x_t^(cycles of factor t) summed over every census key; oracle for the
    left side of :func:`constellation_lab.counting.verify_gf_identity`."""
    return sum(
        cnt * prod(x ** len(lam) for x, lam in zip(xs, lams))
        for lams, cnt in cycle_type_census(n, len(xs), cap).items()
    )


def bfs_hyperedge_relabelling_naive(c):
    """Root-first hyperedge labelling that rescans every vertex of each
    reached hyperedge; oracle for
    :func:`bfs_hyperedge_relabelling`, which reads the order of
    :func:`constellation_lab.constellations._hyperedge_order`."""
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


def relabel_hyperedges(c, s):
    """Rename hyperedges by the bijection s and renumber vertices canonically.

    Returns (new constellation, vertex map old id -> new id).  The new
    vertex ids follow the (type, smallest incident hyperedge) order of
    :func:`constellation_lab.constellations._from_rotations`; labels and
    colors move with their vertices.
    """
    if sorted(s.get(h, 0) for h in range(1, c.n + 1)) != list(range(1, c.n + 1)):
        raise ValueError(f"hyperedge relabelling is not a bijection of [{c.n}]")
    verts = [(t, [s[h] for h in rot]) for t, rot in zip(c.vertex_type, c.rotation)]
    new_c, order = _from_rotations(c.k, c.n, verts, None if c.root is None else s[c.root])

    def moved(values):
        return None if values is None else tuple(values[i] for i in order)

    new_c = replace(new_c, labels=moved(c.labels), colors=moved(c.colors))
    return new_c, {i + 1: j + 1 for j, i in enumerate(order)}


def relabel_arborescence(a, s, vmap):
    """Carry an arborescence through :func:`relabel_hyperedges` (its s and vmap)."""
    parent = [None] * len(a.parent_edge)
    for v, e in enumerate(a.parent_edge, start=1):
        if e is not None:
            parent[vmap[v] - 1] = (s[e[0]], e[1])
    return Arborescence(root_vertex=vmap[a.root_vertex], parent_edge=tuple(parent))


def bfs_hyperedge_relabelling(c):
    """Hyperedge h of a rooted constellation renamed by its place in the
    root-first order of
    :func:`constellation_lab.constellations._hyperedge_order`, so the root
    becomes 1.  Independent of the existing labels."""
    if c.root is None:
        raise ValueError("constellation is not rooted")
    order = _hyperedge_order(c.hyperedges, c.rotation, c.root)
    if len(order) != c.n:
        raise ValueError("not transitive")
    return {h: place for place, h in enumerate(order, start=1)}


def canonical_rooted(c, a=None):
    """Canonical form of a rooted constellation (root hyperedge becomes 1),
    by renaming the hyperedges of a built object and building it again.

    Hyperedges are renamed by :func:`bfs_hyperedge_relabelling`, which reads
    neither labels, colors nor ``a``.  Returns the canonical constellation
    and ``a`` carried along (None when no ``a`` is given).
    """
    s = bfs_hyperedge_relabelling(c)
    canon, vmap = relabel_hyperedges(c, s)
    return canon, None if a is None else relabel_arborescence(a, s, vmap)


def phi_by_canonical_form(cf):
    """phi by building the constellation under the tour's hyperedge labels
    and then taking its canonical form; oracle for
    :func:`constellation_lab.tree_rooted.phi`, which numbers hyperedges
    root-first before its one build."""
    arcs = xi(cf)
    exits = best_decompose(arcs, cf.colorings)
    v0 = (cf.k, cf.colorings[cf.k - 1][0])
    dverts = list(exits)
    verts = [(t, [i for _, i in exits[(t, col)]]) for t, col in dverts]
    c, order = _from_rotations(cf.k, cf.n, verts, arcs[0][1])
    parent = [None if dverts[j] == v0 else (exits[dverts[j]][-1][1], dverts[j][0]) for j in order]
    c = replace(c, labels=tuple(dverts[j][1] for j in order))
    arb = Arborescence(root_vertex=parent.index(None) + 1, parent_edge=tuple(parent))
    return TreeRootedConstellation(*canonical_rooted(c, arb))


def tour_head(colorings, arc):
    """The vertex the arc (t, i) of the class digraph of ``colorings`` leads
    to: the class of i in type t + 1 (type 1 after type k)."""
    t, i = arc
    t2 = t % len(colorings) + 1
    return (t2, colorings[t2 - 1][i - 1])


def eulerian_tour_problem(k, n, colorings, arcs):
    """Why ``arcs`` is not an Eulerian tour of the class digraph of k
    colorings of [n] starting at a type-k vertex, or None; the tour
    condition that :func:`constellation_lab.tree_rooted.xi` meets by
    construction."""
    if len(colorings) != k or any(len(col) != n for col in colorings):
        return f"colorings are not {k} maps on [{n}]"
    for t, col in enumerate(colorings, start=1):
        used = set(col)
        if used != set(range(1, len(used) + 1)):
            return f"coloring {t} is not surjective"
    arcs = tuple(arcs)
    if sorted(arcs) != [(t, i) for t in range(1, k + 1) for i in range(1, n + 1)]:
        return "tour does not use each arc exactly once"
    if arcs[0][0] != k:
        return "tour does not start at a vertex of type k"
    for a, b in zip(arcs, arcs[1:] + arcs[:1]):
        if tour_head(colorings, a) != (b[0], colorings[b[0] - 1][b[1] - 1]):
            return f"arcs {a} and {b} are not consecutive"
    return None


def eulerian_tours_by_recursion(v0, exits, head):
    """All Eulerian tours from v0, by a recursive backtracking over the exits
    in order; the reference for
    :func:`constellation_lab.tree_rooted.enumerate_eulerian_tours`."""
    total = sum(map(len, exits.values()))
    used = set()
    seq = []

    def rec(v):
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


def xi_inverse_by_product_orbit(arcs, colorings):
    """The colored factorization of a valid Eulerian tour, relabelled along
    the orbit of the root under the composed product; oracle for
    :func:`constellation_lab.tree_rooted._xi_inverse`, which reads the
    relabelling off the tour's type-k arcs."""
    k, n = len(colorings), len(colorings[0])
    seq = arcs
    images = [[0] * n for _ in range(k)]
    for m in range(len(seq)):
        t, a = seq[m]
        images[t - 1][a - 1] = seq[m - 1][1]
    perms = [Permutation(tuple(img)) for img in images]
    product = compose_all(perms)
    (cycle,) = orbits((0,) + product.image, (seq[0][1],))
    if len(cycle) < n:
        raise ValueError("tour product is not a single n-cycle")
    s = [0] * (n + 1)
    for j, x in enumerate(cycle, start=1):
        s[x] = j
    new_perms = []
    for p in perms:
        img = [0] * n
        for y in range(1, n + 1):
            img[s[y] - 1] = s[p(y)]
        new_perms.append(Permutation(tuple(img)))
    new_colorings = []
    for col in colorings:
        out = [0] * n
        for i in range(1, n + 1):
            out[s[i] - 1] = col[i - 1]
        new_colorings.append(tuple(out))
    return ColoredFactorization(perms=tuple(new_perms), colorings=tuple(new_colorings))


def random_permutation(rng, n):
    return Permutation(tuple(rng.sample(range(1, n + 1), n)))


def random_colored_factorization(rng, n, k):
    """k factors with product (1,...,n), each with a random surjective
    coloring of its cycles."""
    rest = [random_permutation(rng, n) for _ in range(k - 1)]
    perms = [compose(long_cycle(n), inverse(compose_all(rest)))] + rest
    colorings = []
    for perm in perms:
        cycs = cycles(perm)
        colors = list(range(1, rng.randint(1, len(cycs)) + 1))
        colors += [rng.choice(colors) for _ in range(len(cycs) - len(colors))]
        rng.shuffle(colors)
        col = [0] * n
        for cyc, color in zip(cycs, colors):
            for x in cyc:
                col[x - 1] = color
        colorings.append(tuple(col))
    return ColoredFactorization(perms=tuple(perms), colorings=tuple(colorings))


def identity(n):
    """The identity permutation of [n]."""
    return Permutation(tuple(range(1, n + 1)))


def from_cycles(n, cycs):
    """Build a permutation of [n] from cycles; omitted elements are fixed points."""
    image = list(range(1, n + 1))
    for cyc in cycs:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b
    return Permutation(tuple(image))


def to_permutations(c):
    """The representation map: counterclockwise hyperedge orders per type;
    inverse of :func:`constellation_lab.constellations.from_permutations`."""
    images = [[0] * c.n for _ in range(c.k)]
    for v in range(1, c.num_vertices + 1):
        t = c.vertex_type[v - 1]
        ccw = tuple(reversed(c.rotation[v - 1]))
        for a, b in zip(ccw, ccw[1:] + ccw[:1]):
            images[t - 1][a - 1] = b
    return tuple(Permutation(tuple(img)) for img in images)


def genus(c):
    """Genus of a constellation: that of its dual map, by Euler's relation
    V - E + F = 2 - 2g (buds do not count as edges)."""
    m = dual(c, ())
    edges = sum(1 for t in m.twin if t is not None) // 2
    chi = m.num_vertices - edges + len(m.faces())
    if chi % 2 != 0 or chi > 2:
        raise ValueError(f"inconsistent Euler characteristic {chi}")
    return (2 - chi) // 2


def white_face_count(c):
    """The number of white faces of a constellation: the white vertices of
    its dual map."""
    return dual(c, ()).num_vertices - c.n


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


def subset_type(k, subsets):
    """The type of a tuple of subsets of [k]: entry t counts the subsets holding t."""
    out = [0] * k
    for s in subsets:
        for t in s:
            out[t - 1] += 1
    return tuple(out)


def nebula_type_vector(nb):
    """Black buds of a nebula per type."""
    return tuple(len(buds) for buds in nb.hmap.buds_by_type[BLACK])


def labellings(nb):
    """All n! * prod(p_t!) labellings of a rooted nebula."""
    m = nb.hmap
    blacks = nb.black_vertices()
    n = len(blacks)
    white_by_type = m.buds_by_type[WHITE]
    black_by_type = m.buds_by_type[BLACK]
    for black_image in itertools.permutations(range(1, n + 1)):
        lab = dict(zip(blacks, black_image))
        pools = [[lab[m.vertex[x]] for x in buds] for buds in black_by_type]
        for assignment in itertools.product(
            *(itertools.permutations(pool) for pool in pools)
        ):
            wlab = {}
            for buds, labs in zip(white_by_type, assignment):
                for x, l in zip(buds, labs):
                    wlab[x] = l
            yield LabelledNebula(
                nebula=nb,
                black_labels=tuple(sorted(lab.items())),
                white_bud_labels=tuple(sorted(wlab.items())),
            )


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
    The dual edge crossing (h, t) has black dart (h-1)k + t-1 and white dart
    nk more, as in :func:`constellation_lab.halfedges.typed_map`.
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
    H, nk = 2 * c.n * c.k, c.n * c.k

    def black(h, t):
        return (h - 1) * c.k + t - 1

    vertex, nxt, twin, dtype = [0] * H, [0] * H, [0] * H, [0] * H
    for h in range(1, c.n + 1):
        for t in range(1, c.k + 1):
            b = black(h, t)
            vertex[b], dtype[b], dtype[b + nk] = h - 1, t, t
            twin[b], twin[b + nk] = b + nk, b
            nxt[b] = black(h, t % c.k + 1)
    for f, orbit in enumerate(whites):
        for d_prev, d in zip(orbit, orbit[1:] + orbit[:1]):
            w = nk + black(*d[:2])
            vertex[w] = c.n + f
            nxt[w] = nk + black(*d_prev[:2])
    colors = (BLACK,) * c.n + (WHITE,) * len(whites)
    root = None if c.root is None else c.root - 1
    return HalfEdgeMap(c.k, tuple(vertex), tuple(nxt), tuple(twin), tuple(dtype), colors, root)


# ---------------------------------------------------------------------------
# Helpers that only tests call
# ---------------------------------------------------------------------------


def partitions_of(n):
    """All partitions of n (weakly decreasing compositions).

    Ordered by number of parts, then lexicographically by the increasing
    arrangement of the parts, the order in which they first occur among
    :func:`constellation_lab.permutations.compositions_of`.
    """

    def rising(total, length, least):
        # weakly increasing sequences of `length` parts, each >= least, summing to total
        if length == 1:
            yield (total,)
            return
        for first in range(least, total // length + 1):
            for rest in rising(total - first, length - 1, first):
                yield (first,) + rest

    for length in range(1, n + 1):
        for parts in rising(n, length, 1):
            yield Composition(parts[::-1])


def is_partition(c):
    """Whether the parts of a composition are weakly decreasing."""
    return all(a >= b for a, b in zip(c.parts, c.parts[1:]))


def color_compositions(cf):
    """Per type of a colored factorization, the composition whose i-th part
    is the number of elements colored i."""
    out = []
    for col in cf.colorings:
        parts = [0] * max(col)
        for c in col:
            parts[c - 1] += 1
        out.append(Composition(tuple(parts)))
    return tuple(out)


def reduced_type(tp):
    """The type vector of a tree-pointed constellation less its pointed vertex."""
    c = tp.constellation
    p = list(c.type_vector())
    p[c.vertex_type[tp.arborescence.root_vertex - 1] - 1] -= 1
    return tuple(p)


def canonical_tree_rooted(t_obj):
    """A tree-rooted constellation with canonical hyperedge labels."""
    return TreeRootedConstellation(*canonical_rooted(t_obj.constellation, t_obj.arborescence))


def transport_inverse(t_rooted, original):
    """Undo a :func:`constellation_lab.symmetry.transport` whose source
    compositions were ``original``."""
    schedule = transport_schedule(original, t_rooted.vertex_compositions())
    for t, i, j in reversed(schedule):
        t_rooted = swap_degree(t_rooted, t, j, i)
    return t_rooted


def canonical_labelling(nb):
    """Deterministic labelling: black vertices by first appearance on the
    tour from the root's type-1 dart; white buds of type t get the sorted
    eligible labels in appearance order."""
    problem = nb.validate()
    if problem is not None:
        raise ValueError(problem)
    m = nb.hmap
    black_labels = {}
    white_buds_in_order = {}
    start = next(x for x in range(m.num_darts) if m.vertex[x] == m.root and m.type[x] == 1)
    for x in m.tour(start):
        v = m.vertex[x]
        if m.vertex_color[v] == BLACK and v not in black_labels:
            black_labels[v] = len(black_labels) + 1
        if m.twin[x] is None and m.vertex_color[v] == WHITE:
            white_buds_in_order.setdefault(m.type[x], []).append(x)
    eligible = [sorted(black_labels[m.vertex[x]] for x in buds) for buds in m.buds_by_type[BLACK]]
    wlab = {}
    for t, darts in white_buds_in_order.items():
        for x, lab in zip(darts, eligible[t - 1]):
            wlab[x] = lab
    return LabelledNebula(
        nebula=nb,
        black_labels=tuple(sorted(black_labels.items())),
        white_bud_labels=tuple(sorted(wlab.items())),
    )


@dataclass(frozen=True)
class ParenthesisReport:
    is_parenthesis: bool
    started_at_bud: bool


def is_parenthesis_nebula(nb):
    """Whether black buds never lead white buds on the clockwise tour.

    The count starts at the corner between the type-(k-1) and type-k
    half-edges of the root vertex: that corner lies in the face that the
    closure leaves unclosed exactly when the recovered arborescence points
    at the root vertex, so validity here characterizes tree-rootedness.
    The corner is canonical whether or not the adjacent type-k half-edge
    is a bud; the report flags the bud case.
    """
    m = nb.hmap
    if m.root is None:
        raise ValueError("nebula is not rooted")
    start = next((x for x in range(m.num_darts) if m.vertex[x] == m.root and m.type[x] == m.k), None)
    if start is None:
        raise ValueError(f"root vertex has no type-{m.k} half-edge")
    whites = blacks = 0
    ok = True
    for x in m.tour(start):
        if m.twin[x] is not None:
            continue
        if m.vertex_color[m.vertex[x]] == WHITE:
            whites += 1
        else:
            blacks += 1
            if blacks > whites:
                ok = False
    return ParenthesisReport(is_parenthesis=ok, started_at_bud=m.twin[start] is None)


# ---------------------------------------------------------------------------
# Plain forms of three guards, each condition tested as it is stated:
# rotations kept in a dict, a black vertex's types sorted before their
# step is tested, rotations compared with the incident hyperedges as sets.
# Oracles for HalfEdgeMap.validate, nebulas._rotation_problem and
# constellations.validate, whose verdicts must match them on every input.
# ---------------------------------------------------------------------------


def halfedge_map_problem_by_entries(m):
    """First violated structural invariant of a half-edge map, or None."""
    H = m.num_darts
    V = m.num_vertices
    if H and (min(m.vertex) < 0 or max(m.vertex) >= V):
        return "a dart's vertex is out of range"
    if m.root is not None and not 0 <= m.root < V:
        return "root is not a vertex"
    for x in range(H):
        if not (0 <= m.nxt[x] < H):
            return f"next[{x}] out of range"
        if m.vertex[m.nxt[x]] != m.vertex[x]:
            return f"next[{x}] leaves vertex {m.vertex[x]}"
        if not (1 <= m.type[x] <= m.k):
            return f"type[{x}] not in [k]"
        t = m.twin[x]
        if t is not None:
            if not 0 <= t < H:
                return f"twin[{x}] is not a dart"
            if m.twin[t] != x:
                return f"twin not an involution at {x}"
            if t == x:
                return f"dart {x} is its own twin"
            if m.type[t] != m.type[x]:
                return f"twin pair {x},{t} types differ"
    if sorted(m.nxt) != list(range(H)):
        return "next is not a permutation of the darts"
    for v in range(m.num_vertices):
        if m.vertex_color[v] not in (BLACK, WHITE):
            return f"vertex {v} has invalid color"
    return None


def rotation_problem_by_sorting(m):
    """First vertex whose rotation breaks a nebula condition, worded; m is
    taken to pass its structural check."""
    k, vertex, twin, type_, color = m.k, m.vertex, m.twin, m.type, m.vertex_color
    rotations = {v: () for v in range(m.num_vertices)}
    for cyc in orbits(m.nxt, range(m.num_darts)):
        rotations[vertex[cyc[0]]] = tuple(cyc)
    for v in range(m.num_vertices):
        rot = rotations[v]
        types = [type_[x] for x in rot]
        if color[v] == BLACK:
            if len(rot) != k:
                return f"black vertex {v} has degree {len(rot)}"
            if sorted(types) != list(range(1, k + 1)):
                return f"black vertex {v} misses a type"
            for a, b in zip(types, types[1:] + types[:1]):
                if b != a % k + 1:
                    return f"types do not increase clockwise at black vertex {v}"
        else:
            for a, b in zip(types, types[1:] + types[:1]):
                if b != (a - 2) % k + 1:
                    return f"types do not decrease clockwise at white vertex {v}"
        for x in rot:
            t = twin[x]
            if t is not None and color[vertex[t]] == color[v]:
                return f"edge at dart {x} joins two {color[v]} vertices"
    if sum(map(len, rotations.values())) != m.num_darts:
        degree = Counter(vertex)
        v = next(v for v, rot in rotations.items() if len(rot) != degree[v])
        return f"the darts at vertex {v} form more than one rotation cycle"
    return None


def constellation_problem_by_sets(c):
    """First violated invariant of a constellation (with location), or None."""
    if c.k < 2:
        return "k must be at least 2"
    if c.n < 1:
        return "n must be at least 1"
    if len(c.hyperedges) != c.n:
        return "wrong number of hyperedges"
    nv = c.num_vertices
    incident = {v: set() for v in range(1, nv + 1)}
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
    if len(_hyperedge_order(c.hyperedges, c.rotation, 1)) != c.n:
        return "not transitive"
    if c.root is not None and not (1 <= c.root <= c.n):
        return f"root hyperedge {c.root} out of range"
    if c.labels is None and c.colors is None:
        return None
    by_type = [[] for _ in range(c.k)]
    for v, t in enumerate(c.vertex_type):
        by_type[t - 1].append(v)
    if c.labels is not None:
        for t, vs in enumerate(by_type, start=1):
            if sorted(c.labels[v] for v in vs) != list(range(1, len(vs) + 1)):
                return f"labels of type {t} are not a bijection onto [{len(vs)}]"
    if c.colors is not None:
        for t, vs in enumerate(by_type, start=1):
            got = {c.colors[v] for v in vs}
            if got != set(range(1, len(got) + 1)):
                return f"colors of type {t} are not surjective"
    return None
