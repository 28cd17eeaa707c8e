"""Nebulas as biddings: the successor map, prebiddings, and the encoding.

A labelled rooted nebula is read off by its clockwise tour: the white
corners visit every (type, label) pair once, giving a linear order (the
root's (k, l0) pair placed greatest), and the bud types at each black
vertex give the subsets R_i.  The successor type of consecutive corners
is forced by the subsets alone: after (t, i) comes type t-1 if t is in
R_i, else t+r where t+1..t+r is the maximal run inside R_i.  Forgetting
the order down to the per-type appearance permutations is a bijection
onto the biddings whose last-exit graph is a tree (the validity test).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .counting import subset_type
from .halfedges import BLACK, WHITE, HalfEdgeMap, _json_field, _json_int
from .nebulas import Nebula
from .permutations import Permutation
from .tree_rooted import best_compose, enumerate_eulerian_tours

Pair = tuple[int, int]  # (type, label)


def alpha(t: int, subset: frozenset[int] | set[int], k: int) -> int:
    """Successor type of t for the subset R: t-1 if t in R, else t+r for the
    maximal cyclic run t+1,...,t+r inside R.  R must be a strict subset."""
    if not (1 <= t <= k):
        raise ValueError(f"type {t} not in [{k}]")
    if len(subset) >= k:
        raise ValueError("subset must be strict")
    if t in subset:
        return (t - 2) % k + 1
    r = 0
    while (t + r) % k + 1 in subset:
        r += 1
    return (t + r - 1) % k + 1


def _successor(k: int, subsets: Sequence[frozenset[int]]):
    """The successor digraph on types as a BEST ``head``: arc (t, i) leads to
    alpha(t, R_i)."""
    return lambda t, pair: alpha(t, subsets[pair[1] - 1], k)


@dataclass(frozen=True)
class TypedGraph:
    """A multigraph on [k]; edges are sorted pairs, loops allowed."""

    k: int
    edges: tuple[tuple[int, int], ...]

    def is_tree(self) -> bool:
        if len(self.edges) != self.k - 1:
            return False
        if any(a == b for a, b in self.edges):
            return False
        parent = list(range(self.k + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True


def alpha_graph(
    indices: Sequence[int], subsets: Sequence[frozenset[int]], k: int
) -> TypedGraph:
    """Graph on [k] with edges {t, alpha(t, R_{i_t})} for t = 1..k-1."""
    if len(indices) != k - 1:
        raise ValueError("need k-1 indices")
    edges = []
    for t, i in enumerate(indices, start=1):
        a = alpha(t, subsets[i - 1], k)
        edges.append((min(t, a), max(t, a)))
    return TypedGraph(k=k, edges=tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Prebiddings and biddings
# ---------------------------------------------------------------------------


def _read_subsets(subsets) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(map(_json_int, s)) for s in subsets)


def _read_labels(labels: dict) -> tuple[tuple[int, int], ...]:
    """JSON object keys are strings; labelled items are ints."""
    return tuple(sorted((int(x), _json_int(lab)) for x, lab in labels.items()))


def _are_strict_subsets(k: int, subsets: Sequence[frozenset[int]]) -> bool:
    return all(len(s) < k and all(1 <= t <= k for t in s) for s in subsets)


@dataclass(frozen=True)
class Prebidding:
    """A linear order on [k] x [n] (least first) plus strict subsets."""

    k: int
    order: tuple[Pair, ...]
    subsets: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return len(self.subsets)

    def p_vector(self) -> tuple[int, ...]:
        return subset_type(self.k, self.subsets)

    def validate(self) -> Optional[str]:
        if self.n < 1:
            return "a prebidding needs n >= 1"
        if sorted(self.order) != sorted(
            (t, i) for t in range(1, self.k + 1) for i in range(1, self.n + 1)
        ):
            return "order is not a linear order on [k] x [n]"
        if not _are_strict_subsets(self.k, self.subsets):
            return "subsets must be strict subsets of [k]"
        t_top, _ = self.order[-1]
        if t_top != self.k:
            return f"greatest element has type {t_top}, expected {self.k}"
        for (t, i), (t2, _) in zip(self.order, self.order[1:] + self.order[:1]):
            expected = alpha(t, self.subsets[i - 1], self.k)
            if t2 != expected:
                return f"after ({t},{i}) expected type {expected}, found {t2}"
        return None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "order": [list(pair) for pair in self.order],
            "subsets": [sorted(s) for s in self.subsets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Prebidding":
        return cls(
            k=_json_field(data, "k"),
            order=_json_field(data, "order", lambda order: tuple((t, i) for t, i in order)),
            subsets=_json_field(data, "subsets", _read_subsets),
        )


@dataclass(frozen=True)
class Bidding:
    """k permutations of [n] plus strict subsets of [k]."""

    omegas: tuple[Permutation, ...]
    subsets: tuple[frozenset[int], ...]

    @property
    def k(self) -> int:
        return len(self.omegas)

    @property
    def n(self) -> int:
        return len(self.subsets)

    def p_vector(self) -> tuple[int, ...]:
        return subset_type(self.k, self.subsets)

    def validate(self) -> Optional[str]:
        if self.n < 1 or any(w.n != self.n for w in self.omegas):
            return "omegas must be permutations of [n] for n >= 1"
        if not _are_strict_subsets(self.k, self.subsets):
            return "subsets must be strict subsets of [k]"
        if not is_valid_bidding(self):
            return "invalid bidding: last-appearance graph is not a tree"
        return None

    def to_json(self) -> dict:
        return {
            "omegas": [list(w.image) for w in self.omegas],
            "subsets": [sorted(s) for s in self.subsets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Bidding":
        return cls(
            omegas=_json_field(
                data, "omegas", lambda omegas: tuple(Permutation(tuple(w)) for w in omegas)
            ),
            subsets=_json_field(data, "subsets", _read_subsets),
        )


def is_valid_bidding(b: Bidding) -> bool:
    """Valid iff the last-appearance graph of types 1..k-1 is a tree."""
    indices = tuple(b.omegas[t - 1](b.n) for t in range(1, b.k))
    return alpha_graph(indices, b.subsets, b.k).is_tree()


# ---------------------------------------------------------------------------
# Labelled nebulas and the corner reading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelledNebula:
    """A nebula with black vertices labelled in [n] and white buds of type t
    labelled by the black vertices carrying the type-t black buds."""

    nebula: Nebula
    black_labels: tuple[tuple[int, int], ...]  # (vertex, label), sorted by vertex
    white_bud_labels: tuple[tuple[int, int], ...]  # (dart, label), sorted by dart

    def black_label(self, v: int) -> int:
        return dict(self.black_labels)[v]

    def label_sets(self) -> tuple[frozenset[int], ...]:
        """R_i: the bud types at the black vertex labelled i."""
        m = self.nebula.hmap
        by_label = {lab: v for v, lab in self.black_labels}
        out = []
        for i in range(1, self.nebula.size + 1):
            v = by_label[i]
            out.append(
                frozenset(m.type[x] for x in m.darts_at(v) if m.is_bud(x))
            )
        return tuple(out)

    def validate(self) -> Optional[str]:
        problem = self.nebula.validate()
        if problem is not None:
            return problem
        m = self.nebula.hmap
        blacks = self.nebula.black_vertices()
        lab = dict(self.black_labels)
        if sorted(lab) != blacks or sorted(lab.values()) != list(
            range(1, len(blacks) + 1)
        ):
            return "black labels are not a bijection onto [n]"
        wlab = dict(self.white_bud_labels)
        by_type: dict[int, list[int]] = {}
        allowed: dict[int, set[int]] = {}
        for x in m.buds:
            t = m.type[x]
            if m.vertex_color[m.vertex[x]] == WHITE:
                by_type.setdefault(t, []).append(x)
            else:
                allowed.setdefault(t, set()).add(lab[m.vertex[x]])
        if sorted(wlab) != sorted(x for xs in by_type.values() for x in xs):
            return "white bud labels do not cover exactly the white buds"
        for t, darts in by_type.items():
            got = {wlab[x] for x in darts}
            if got != allowed.get(t, set()):
                return f"white bud labels of type {t} are not the black-bud labels"
        return None

    def to_json(self) -> dict:
        data = self.nebula.hmap.to_json()
        data["black_labels"] = {str(v): lab for v, lab in self.black_labels}
        data["white_bud_labels"] = {str(x): lab for x, lab in self.white_bud_labels}
        return data

    @classmethod
    def from_json(cls, data: dict) -> "LabelledNebula":
        m = HalfEdgeMap.from_json(data)
        return cls(
            nebula=Nebula(hmap=m),
            black_labels=_json_field(data, "black_labels", _read_labels),
            white_bud_labels=_json_field(data, "white_bud_labels", _read_labels),
        )


def _corner_reading(ln: LabelledNebula) -> list[Pair]:
    """(type, label) pairs of the white corners in clockwise-tour order."""
    m = ln.nebula.hmap
    lab = dict(ln.black_labels)
    wlab = dict(ln.white_bud_labels)
    pairs: list[Pair] = []
    for x in m.tour(0):
        v = m.vertex[x]
        if m.vertex_color[v] != WHITE:
            continue
        if m.is_bud(x):
            pairs.append((m.type[x], wlab[x]))
        else:
            pairs.append((m.type[x], lab[m.vertex[m.twin[x]]]))
    return pairs


def vartheta(ln: LabelledNebula) -> Prebidding:
    """Read a labelled rooted nebula as a valid prebidding.  Raises ValueError
    on invalid input.  The output is valid by construction and is checked
    only in tests (criterion 4, ``tests/test_validate_once.py``)."""
    problem = ln.validate()
    if problem is not None:
        raise ValueError(problem)
    m = ln.nebula.hmap
    pairs = _corner_reading(ln)
    top = (m.k, dict(ln.black_labels)[m.root])
    i = pairs.index(top)
    order = tuple(pairs[i + 1 :] + pairs[: i + 1])
    return Prebidding(k=m.k, order=order, subsets=ln.label_sets())


def vartheta_inverse(pb: Prebidding) -> LabelledNebula:
    """Rebuild the labelled rooted nebula whose corner reading is ``pb``.

    Black vertices get one dart per type (clockwise increasing); the white
    rotations are chained run by run: consecutive corners inside a run are
    clockwise-consecutive darts, and each run hangs off the edge dart that
    entered the vertex, which is the white dart of (t+1, previous label).
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    problem = pb.validate()
    if problem is not None:
        raise ValueError(problem)
    k, n = pb.k, pb.n
    R = pb.subsets

    def bdart(t: int, i: int) -> int:
        return (i - 1) * k + (t - 1)

    def wdart(t: int, i: int) -> int:
        return n * k + (i - 1) * k + (t - 1)

    num = 2 * n * k
    vertex = [0] * num
    nxt = [0] * num
    twin: list[Optional[int]] = [None] * num
    dtype = [0] * num
    for i in range(1, n + 1):
        for t in range(1, k + 1):
            b = bdart(t, i)
            w = wdart(t, i)
            vertex[b] = i - 1
            dtype[b] = dtype[w] = t
            nxt[b] = bdart(t % k + 1, i)
            if t not in R[i - 1]:
                twin[b] = w
                twin[w] = b
    m_len = len(pb.order)
    for idx, (t, i) in enumerate(pb.order):
        prev_t, prev_i = pb.order[(idx - 1) % m_len]
        if prev_t in R[prev_i - 1]:
            src = wdart(prev_t, prev_i)
        else:
            src = wdart(t % k + 1, prev_i)
        nxt[src] = wdart(t, i)
    # white vertices from the rotation cycles
    n_vertices = n
    seen = [False] * num
    for x in range(n * k, num):
        if seen[x]:
            continue
        vid = n_vertices
        n_vertices += 1
        y = x
        while not seen[y]:
            seen[y] = True
            vertex[y] = vid
            y = nxt[y]
    colors = tuple([BLACK] * n + [WHITE] * (n_vertices - n))
    root_label = pb.order[-1][1]
    hmap = HalfEdgeMap(
        k=k,
        vertex=tuple(vertex),
        nxt=tuple(nxt),
        twin=tuple(twin),
        type=tuple(dtype),
        vertex_color=colors,
        root=root_label - 1,
    )
    return LabelledNebula(
        nebula=Nebula(hmap=hmap),
        black_labels=tuple((i - 1, i) for i in range(1, n + 1)),
        white_bud_labels=tuple(
            sorted(
                (wdart(t, i), i)
                for i in range(1, n + 1)
                for t in R[i - 1]
            )
        ),
    )


# ---------------------------------------------------------------------------
# sigma and psi
# ---------------------------------------------------------------------------


def sigma(pb: Prebidding) -> Bidding:
    """Forget the order down to the per-type appearance permutations.  Raises
    ValueError on invalid input.  The output is valid by construction and is
    checked only in tests (criterion 4, ``tests/test_validate_once.py``)."""
    problem = pb.validate()
    if problem is not None:
        raise ValueError(problem)
    omegas = []
    for t in range(1, pb.k + 1):
        omegas.append(Permutation(tuple(i for t2, i in pb.order if t2 == t)))
    return Bidding(omegas=tuple(omegas), subsets=pb.subsets)


def sigma_inverse(b: Bidding) -> Prebidding:
    """Replay the unique tour whose per-vertex exit orders are the omegas.

    The tour starts at vertex k with the arc of pair (k, omega_k(n)); its
    existence is the tree condition on the last exits (the validity test).
    Raises ValueError on invalid input.  The output is valid by construction
    and is checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    problem = b.validate()
    if problem is not None:
        raise ValueError(problem)
    k, n = b.k, b.n
    exits = {t: tuple((t, w(m)) for m in range(1, n + 1)) for t, w in enumerate(b.omegas, start=1)}
    exits[k] = exits[k][-1:] + exits[k][:-1]
    seq = best_compose(k, exits, _successor(k, b.subsets))
    return Prebidding(k=k, order=seq[1:] + seq[:1], subsets=b.subsets)


def psi(ln: LabelledNebula) -> Bidding:
    return sigma(vartheta(ln))


def psi_inverse(b: Bidding) -> LabelledNebula:
    return vartheta_inverse(sigma_inverse(b))


# ---------------------------------------------------------------------------
# Canonical labelling, equality, enumeration
# ---------------------------------------------------------------------------


def canonical_labelling(nb: Nebula) -> LabelledNebula:
    """Deterministic labelling: black vertices by first appearance on the
    tour from the root's type-1 dart; white buds of type t get the sorted
    eligible labels in appearance order."""
    problem = nb.validate()
    if problem is not None:
        raise ValueError(problem)
    m = nb.hmap
    start = nb.black_dart(m.root, 1)
    seq = m.tour(start)
    black_labels: dict[int, int] = {}
    white_buds_in_order: dict[int, list[int]] = {}
    for x in seq:
        v = m.vertex[x]
        if m.vertex_color[v] == BLACK and v not in black_labels:
            black_labels[v] = len(black_labels) + 1
        if m.is_bud(x) and m.vertex_color[v] == WHITE:
            white_buds_in_order.setdefault(m.type[x], []).append(x)
    eligible: dict[int, list[int]] = {}
    for x in m.buds:
        if m.vertex_color[m.vertex[x]] == BLACK:
            eligible.setdefault(m.type[x], []).append(black_labels[m.vertex[x]])
    wlab = {}
    for t, darts in white_buds_in_order.items():
        for x, lab in zip(darts, sorted(eligible[t])):
            wlab[x] = lab
    return LabelledNebula(
        nebula=nb,
        black_labels=tuple(sorted(black_labels.items())),
        white_bud_labels=tuple(sorted(wlab.items())),
    )


def nebula_key(nb: Nebula):
    """Canonical encoding of a rooted nebula (its canonical prebidding)."""
    pb = vartheta(canonical_labelling(nb))
    return (pb.k, pb.order, pb.subsets)


def labellings(nb: Nebula) -> Iterator[LabelledNebula]:
    """All n! * prod(p_t!) labellings of a rooted nebula."""
    m = nb.hmap
    blacks = nb.black_vertices()
    n = len(blacks)
    white_by_type: dict[int, list[int]] = {}
    black_by_type: dict[int, list[int]] = {}
    for x in m.buds:
        if m.vertex_color[m.vertex[x]] == WHITE:
            white_by_type.setdefault(m.type[x], []).append(x)
        else:
            black_by_type.setdefault(m.type[x], []).append(m.vertex[x])
    types = sorted(white_by_type)
    for black_image in itertools.permutations(range(1, n + 1)):
        lab = dict(zip(blacks, black_image))
        pools = [[lab[v] for v in black_by_type[t]] for t in types]
        for assignment in itertools.product(
            *(itertools.permutations(pool) for pool in pools)
        ):
            wlab = {}
            for t, labs in zip(types, assignment):
                for x, l in zip(white_by_type[t], labs):
                    wlab[x] = l
            yield LabelledNebula(
                nebula=nb,
                black_labels=tuple(sorted(lab.items())),
                white_bud_labels=tuple(sorted(wlab.items())),
            )


def enumerate_valid_prebiddings(
    n: int, k: int, p: Optional[Sequence[int]] = None
) -> Iterator[Prebidding]:
    """All valid prebiddings, by Eulerian search over the successor digraph."""
    from .counting import m_tuples

    exits = {t: tuple((t, i) for i in range(1, n + 1)) for t in range(1, k + 1)}
    for mt in m_tuples(n, k, p):
        for tour in enumerate_eulerian_tours(k, exits, _successor(k, mt.subsets)):
            yield Prebidding(k=k, order=tour[1:] + tour[:1], subsets=mt.subsets)


def enumerate_valid_biddings(
    n: int, k: int, p: Optional[Sequence[int]] = None
) -> Iterator[Bidding]:
    """All valid biddings, by brute force over omega tuples and subsets."""
    from .counting import m_tuples
    from .permutations import all_permutations

    for mt in m_tuples(n, k, p):
        for omegas in itertools.product(all_permutations(n), repeat=k):
            b = Bidding(omegas=omegas, subsets=mt.subsets)
            if is_valid_bidding(b):
                yield b
