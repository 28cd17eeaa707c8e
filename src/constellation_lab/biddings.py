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

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .counting import _check_size, _require, m_tuples
from .halfedges import BLACK, WHITE, HalfEdgeMap, _json_field, _json_int, typed_map
from .nebulas import Nebula, validate_nebula
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


def _read_omegas(omegas) -> tuple[Permutation, ...]:
    return tuple(Permutation(tuple(map(_json_int, w))) for w in omegas)


def _label_key(key: str) -> int:
    """A labelled item from a JSON object key, which must be the decimal
    string of a non-negative integer with no sign, space or leading zero,
    so that no two keys name one item."""
    if not (key.isascii() and key.isdecimal()) or (key[0] == "0" and key != "0"):
        raise ValueError(f"key {key!r} is not a non-negative integer in canonical form")
    return int(key)


def _read_labels(labels: dict) -> tuple[tuple[int, int], ...]:
    """JSON object keys are strings; labelled items are ints."""
    return tuple(sorted((_label_key(x), _json_int(lab)) for x, lab in labels.items()))


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

    def validate(self) -> Optional[str]:
        k, n, order, subsets = self.k, self.n, self.order, self.subsets
        if n < 1:
            return "a prebidding needs n >= 1"
        if sorted(order) != [(t, i) for t in range(1, k + 1) for i in range(1, n + 1)]:
            return "order is not a linear order on [k] x [n]"
        if not _are_strict_subsets(k, subsets):
            return "subsets must be strict subsets of [k]"
        t_top, _ = order[-1]
        if t_top != k:
            return f"greatest element has type {t_top}, expected {k}"
        for (t, i), (t2, _) in zip(order, order[1:] + order[:1]):
            expected = alpha(t, subsets[i - 1], k)
            if t2 != expected:
                return f"after ({t},{i}) expected type {expected}, found {t2}"
        return None


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
            omegas=_json_field(data, "omegas", _read_omegas),
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

    def label_sets(self) -> tuple[frozenset[int], ...]:
        """R_i: the bud types at the black vertex labelled i, read off the
        map's ``buds_by_type`` view."""
        m = self.nebula.hmap
        vertex = m.vertex
        lab = dict(self.black_labels)
        out: list[set[int]] = [set() for _ in range(self.nebula.size)]
        for t, buds in enumerate(m.buds_by_type[BLACK], start=1):
            for x in buds:
                out[lab[vertex[x]] - 1].add(t)
        return tuple(map(frozenset, out))

    def validate(self) -> Optional[str]:
        m = self.nebula.hmap
        problem = validate_nebula(m)
        if problem is not None:
            return problem
        lab = dict(self.black_labels)
        blacks = self.nebula.black_vertices()
        if sorted(lab) != blacks or sorted(lab.values()) != list(range(1, len(blacks) + 1)):
            return "black labels are not a bijection onto [n]"
        wlab = dict(self.white_bud_labels)
        buds = m.buds_by_type
        whites = buds[WHITE]
        if set(wlab) != {x for row in whites for x in row}:
            return "white bud labels do not cover exactly the white buds"
        vertex = m.vertex
        for t, (wbuds, bbuds) in enumerate(zip(whites, buds[BLACK]), start=1):
            if {wlab[x] for x in wbuds} != {lab[vertex[x]] for x in bbuds}:
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
    """(type, label) pairs of the white corners in clockwise-tour order, read
    off the one-face tour that the nebula guard checked (``m.face_tour``)."""
    m = ln.nebula.hmap
    vertex, twin, type_, color = m.vertex, m.twin, m.type, m.vertex_color
    lab = dict(ln.black_labels)
    wlab = dict(ln.white_bud_labels)
    return [
        (type_[x], wlab[x] if (y := twin[x]) is None else lab[vertex[y]])
        for x in m.face_tour
        if color[vertex[x]] == WHITE
    ]


def vartheta(ln: LabelledNebula) -> Prebidding:
    """Read a labelled rooted nebula as a valid prebidding.  Raises ValueError
    on invalid input.  The output is valid by construction and is checked
    only in tests (criterion 4, ``tests/test_validate_once.py``).

    The corner reading and the subsets R_i read the tour and the bud table
    that the guard ``ln.validate()`` computed and the map holds."""
    _require(ln.validate())
    m = ln.nebula.hmap
    pairs = _corner_reading(ln)
    top = (m.k, dict(ln.black_labels)[m.root])
    i = pairs.index(top)
    order = tuple(pairs[i + 1 :] + pairs[: i + 1])
    return Prebidding(k=m.k, order=order, subsets=ln.label_sets())


def vartheta_inverse(pb: Prebidding) -> LabelledNebula:
    """Rebuild the labelled rooted nebula whose corner reading is ``pb``.

    The map is :func:`~constellation_lab.halfedges.typed_map` with black
    vertex i labelled i and slot (i, t) a bud pair for t in R_i.  The white
    rotations are chained run by run: consecutive corners inside a run are
    clockwise-consecutive darts, and each run hangs off the edge dart that
    entered the vertex, which is the white dart of (t+1, previous label).
    Raises ValueError on invalid input; the guard-free core is
    :func:`_vartheta_inverse`.  The output is valid by construction and is
    checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    _require(pb.validate())
    return _vartheta_inverse(pb)


def _vartheta_inverse(pb: Prebidding) -> LabelledNebula:
    """:func:`vartheta_inverse` without its input guard, for
    :func:`psi_inverse`, whose prebidding comes valid from :func:`sigma_inverse`,
    and for the ``theta`` and ``psi`` roundtrips."""
    k, n = pb.k, pb.n
    R = pb.subsets
    white_next = {}
    for (prev_t, prev_i), (t, i) in zip(pb.order[-1:] + pb.order[:-1], pb.order):
        src = prev_t if prev_t in R[prev_i - 1] else t % k + 1
        white_next[(prev_i, src)] = (i, t)
    buds = [(i, t) for i in range(1, n + 1) for t in R[i - 1]]
    hmap = typed_map(k, n, white_next, buds, pb.order[-1][1])
    return LabelledNebula(
        nebula=Nebula(hmap=hmap),
        black_labels=tuple((i - 1, i) for i in range(1, n + 1)),
        # the partner of white dart x is the black dart x - nk
        white_bud_labels=tuple((x, hmap.vertex[x - n * k] + 1) for x in hmap.buds if x >= n * k),
    )


# ---------------------------------------------------------------------------
# sigma and psi
# ---------------------------------------------------------------------------


def sigma(pb: Prebidding) -> Bidding:
    """Forget the order down to the per-type appearance permutations.  Raises
    ValueError on invalid input; the guard-free core is :func:`_sigma`.  The
    output is valid by construction and is checked only in tests (criterion
    4, ``tests/test_validate_once.py``)."""
    _require(pb.validate())
    return _sigma(pb)


def _sigma(pb: Prebidding) -> Bidding:
    """:func:`sigma` without its input guard, for :func:`psi`, whose
    prebidding comes valid from :func:`vartheta`, and for the ``sigma`` and
    ``psi`` roundtrips, whose prebiddings come valid from
    :func:`enumerate_valid_prebiddings`."""
    appearances: list[list[int]] = [[] for _ in range(pb.k)]
    for t, i in pb.order:
        appearances[t - 1].append(i)
    return Bidding(omegas=tuple(Permutation(tuple(a)) for a in appearances), subsets=pb.subsets)


def sigma_inverse(b: Bidding) -> Prebidding:
    """Replay the unique tour whose per-vertex exit orders are the omegas.

    The tour starts at vertex k with the arc of pair (k, omega_k(n)); its
    existence is the tree condition on the last exits (the validity test).
    Raises ValueError on invalid input; the guard-free core is
    :func:`_sigma_inverse`.  The output is valid by construction and is
    checked only in tests (criterion 4, ``tests/test_validate_once.py``).
    """
    _require(b.validate())
    return _sigma_inverse(b)


def _sigma_inverse(b: Bidding) -> Prebidding:
    """:func:`sigma_inverse` without its input guard, for the ``psi``
    roundtrip, whose biddings come valid from :func:`_sigma`."""
    k, n = b.k, b.n
    exits = {t: tuple((t, w(m)) for m in range(1, n + 1)) for t, w in enumerate(b.omegas, start=1)}
    exits[k] = exits[k][-1:] + exits[k][:-1]
    seq = best_compose(k, exits, _successor(k, b.subsets))
    return Prebidding(k=k, order=seq[1:] + seq[:1], subsets=b.subsets)


def psi(ln: LabelledNebula) -> Bidding:
    """The bidding of a labelled rooted nebula: :func:`sigma` of
    :func:`vartheta`, with only the nebula checked."""
    return _sigma(vartheta(ln))


def psi_inverse(b: Bidding) -> LabelledNebula:
    """The labelled rooted nebula of a valid bidding: :func:`vartheta_inverse`
    of :func:`sigma_inverse`, with only the bidding checked; it wraps the
    cores :func:`_vartheta_inverse` and :func:`_sigma_inverse`."""
    return _vartheta_inverse(sigma_inverse(b))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_valid_prebiddings(
    n: int, k: int, p: Optional[Sequence[int]] = None, cap: Optional[int] = None
) -> Iterator[Prebidding]:
    """All valid prebiddings, by Eulerian search over the successor digraph.
    The cap bounds the subset tuples searched, as in :func:`m_tuples`."""
    _check_size(n, k, p, n_min=1, k_min=2, p_min=0)
    exits = {t: tuple((t, i) for i in range(1, n + 1)) for t in range(1, k + 1)}
    for mt in m_tuples(n, k, p, cap):
        # the search revisits arcs as it backtracks, so each head is read off
        # a table built once per subset tuple
        heads = {
            (t, i): alpha(t, s, k) for t in exits for i, s in enumerate(mt.subsets, start=1)
        }
        for tour in enumerate_eulerian_tours(k, exits, lambda _, arc: heads[arc]):
            yield Prebidding(k=k, order=tour[1:] + tour[:1], subsets=mt.subsets)

