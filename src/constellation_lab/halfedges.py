"""Half-edge maps with optional buds.

A half-edge (dart) has an incident vertex, a clockwise-next dart around
that vertex, a type in [k], and an optional twin.  A dart without a twin
is a *bud* (a dangling half-edge).  Vertices are colored black or white.

The single traversal primitive is the *clockwise tour*: walking around a
face with the edges on the right of the walker, crossing buds in place.
On darts it is the permutation ``tour_steps``:

    step(x) = next[x]        if x is a bud,
    step(x) = next[twin[x]]  otherwise.

The tour reaches every dart exactly once per face, and the corner crossed
just before reaching dart x is the corner preceding x in clockwise order
around its vertex.  Faces, tours and vertex rotations are all orbits:
faces of ``tour_steps`` and rotations of ``next``, read by
:func:`~constellation_lab.permutations.orbits`, and the tour of one dart,
which :meth:`HalfEdgeMap.tour` steps without building the table.

A map is immutable, so the views that several readers share are held on
it, computed on first use: :attr:`HalfEdgeMap.face_tour`, the tour from
dart 0 (the whole face of a one-face map), and
:attr:`HalfEdgeMap.buds_by_type`.  The nebula guard computes both, and the
closure and the corner reading of the map it passed read them again
without walking the map.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .permutations import orbits

BLACK = "black"
WHITE = "white"

Slot = tuple[int, int]  # (black vertex i, type t), see typed_map


@dataclass(frozen=True)
class HalfEdgeMap:
    """An embedded graph (possibly with buds) given by darts and rotations.

    Darts and vertices are integers 0..H-1 / 0..V-1.  ``nxt[x]`` is the
    clockwise-next dart around ``vertex[x]``; ``twin[x]`` is None for buds.
    """

    k: int
    vertex: tuple[int, ...]
    nxt: tuple[int, ...]
    twin: tuple[Optional[int], ...]
    type: tuple[int, ...]
    vertex_color: tuple[str, ...]
    root: Optional[int] = None  # a distinguished vertex

    @property
    def num_darts(self) -> int:
        return len(self.vertex)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_color)

    @property
    def buds(self) -> tuple[int, ...]:
        return tuple([x for x, t in enumerate(self.twin) if t is None])

    @cached_property
    def buds_by_type(self) -> Mapping[str, tuple[tuple[int, ...], ...]]:
        """The buds at the vertices of each color, one tuple per type 1..k,
        in dart order, from one pass over the darts; held on the map."""
        black: list[list[int]] = [[] for _ in range(self.k)]
        white: list[list[int]] = [[] for _ in range(self.k)]
        rows_of = {BLACK: black, WHITE: white}
        vertex, vertex_color, type_ = self.vertex, self.vertex_color, self.type
        for x in [x for x, t in enumerate(self.twin) if t is None]:
            if (rows := rows_of.get(vertex_color[vertex[x]])) is not None:
                rows[type_[x] - 1].append(x)
        return MappingProxyType({BLACK: tuple(map(tuple, black)), WHITE: tuple(map(tuple, white))})

    @property
    def tour_steps(self) -> list[int]:
        """Clockwise-tour successor of every dart (see module docstring)."""
        nxt = self.nxt
        return [nxt[x if t is None else t] for x, t in enumerate(self.twin)]

    def rotations(self) -> tuple[tuple[int, ...], ...]:
        """Clockwise dart cycle around each vertex, min dart first, indexed by
        vertex.  A vertex whose darts form several cycles gets the one with
        the greatest least dart, so the cycles cover every dart exactly when
        no vertex has two."""
        out: list[tuple[int, ...]] = [()] * self.num_vertices
        vertex = self.vertex
        for cyc in orbits(self.nxt, range(self.num_darts)):
            out[vertex[cyc[0]]] = tuple(cyc)
        return tuple(out)

    def faces(self) -> list[tuple[int, ...]]:
        """Orbits of the tour step, i.e. the faces, each as a dart cycle."""
        return [tuple(cyc) for cyc in orbits(self.tour_steps, range(self.num_darts))]

    def tour(self, start: int) -> list[int]:
        """The clockwise tour from ``start``, up to its first repeated dart:
        the orbit of ``start`` under ``tour_steps``, stepped without the table."""
        nxt, twin = self.nxt, self.twin
        seen = [False] * len(nxt)
        out = []
        x = start
        while not seen[x]:
            seen[x] = True
            out.append(x)
            t = twin[x]
            x = nxt[x if t is None else t]
        return out

    @cached_property
    def face_tour(self) -> tuple[int, ...]:
        """The clockwise tour from dart 0, held on the map: the one face of a
        one-face map, whole.  Empty when the map has no darts."""
        return tuple(self.tour(0)) if self.vertex else ()

    def validate(self) -> Optional[str]:
        """Return the first violated structural invariant, or None if valid."""
        vertex, nxt, twin, type_, k = self.vertex, self.nxt, self.twin, self.type, self.k
        H = len(vertex)
        V = len(self.vertex_color)
        if H and (min(vertex) < 0 or max(vertex) >= V):
            return "a dart's vertex is out of range"
        if self.root is not None and not 0 <= self.root < V:
            return "root is not a vertex"
        for x in range(H):
            y = nxt[x]
            if not 0 <= y < H:
                return f"next[{x}] out of range"
            if vertex[y] != vertex[x]:
                return f"next[{x}] leaves vertex {vertex[x]}"
            tx = type_[x]
            if not 1 <= tx <= k:
                return f"type[{x}] not in [k]"
            t = twin[x]
            if t is not None:
                if not 0 <= t < H:
                    return f"twin[{x}] is not a dart"
                if twin[t] != x:
                    return f"twin not an involution at {x}"
                if t == x:
                    return f"dart {x} is its own twin"
                if type_[t] != tx:
                    return f"twin pair {x},{t} types differ"
        if sorted(nxt) != list(range(H)):
            return "next is not a permutation of the darts"
        for v, color in enumerate(self.vertex_color):
            if color not in (BLACK, WHITE):
                return f"vertex {v} has invalid color"
        return None

    def to_json(self) -> dict:
        data = {
            "k": self.k,
            "half_edges": [
                {
                    "vertex": self.vertex[x],
                    "next": self.nxt[x],
                    "twin": self.twin[x],
                    "type": self.type[x],
                    "color": self.vertex_color[self.vertex[x]],
                }
                for x in range(self.num_darts)
            ],
        }
        if self.root is not None:
            data["root"] = self.root
        return data

    @classmethod
    def from_json(cls, data: dict) -> "HalfEdgeMap":
        def read(hes):
            vertex = tuple(_json_int(he["vertex"]) for he in hes)
            colors: dict[int, str] = {}
            for v, he in zip(vertex, hes):
                if he["color"] not in (BLACK, WHITE):
                    raise ValueError(f"color {he['color']!r} is not {BLACK!r} or {WHITE!r}")
                if colors.setdefault(v, he["color"]) != he["color"]:
                    raise ValueError(f"the half-edges at vertex {v} disagree on its color")
            # the V distinct ids are 0..V-1 exactly when each is below V
            for v in colors:
                if not 0 <= v < len(colors):
                    raise ValueError(f"vertex ids must be 0..{len(colors) - 1}, got {v}")
            return (
                vertex,
                tuple(_json_int(he["next"]) for he in hes),
                tuple(None if he["twin"] is None else _json_int(he["twin"]) for he in hes),
                tuple(_json_int(he["type"]) for he in hes),
                tuple(colors[v] for v in range(len(colors))),
            )

        k = _json_field(data, "k", _json_int)
        vertex, nxt, twin, type_, colors = _json_field(data, "half_edges", read)
        return cls(
            k=k,
            vertex=vertex,
            nxt=nxt,
            twin=twin,
            type=type_,
            vertex_color=colors,
            root=_json_field(data, "root", _json_int) if "root" in data else None,
        )


def _json_int(value) -> int:
    """value itself if it is an integer (JSON true/false are not)."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_field(data: dict, key: str, convert=lambda value: value):
    """convert(data[key]); a missing or malformed key raises a ValueError naming it."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}")
    try:
        return convert(data[key])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"malformed key {key!r} ({type(exc).__name__}: {exc})") from None


def typed_map(
    k: int,
    n: int,
    white_next: Mapping[Slot, Slot],
    buds: Iterable[Slot],
    root: Optional[int],
) -> HalfEdgeMap:
    """The map of n black vertices of degree k and their white partners.

    Slot (i, t), for i in 1..n and t in 1..k, holds two darts of type t:
    the black dart (i-1)k + t-1 at black vertex i-1, clockwise in
    increasing type, and its partner, the white dart nk more.  The two are
    twins unless the slot is in ``buds``, where both are buds.  The white
    dart of slot s is followed clockwise by that of ``white_next[s]``, and
    the white vertices are numbered n, n+1, ... in increasing order of
    their least dart.  ``root`` is a black vertex i, or None.
    """
    nk = n * k
    nxt = [j + (t + 1) % k for j in range(0, nk, k) for t in range(k)] + [0] * nk
    twin: list[Optional[int]] = [*range(nk, 2 * nk), *range(nk)]
    # the dart of slot (i, t) is (i - 1) k + t - 1, i.e. i k + t - (k + 1)
    base = k + 1
    for s, s2 in white_next.items():
        (i, t), (i2, t2) = s, s2
        if not (0 < i <= n and 0 < t <= k and 0 < i2 <= n and 0 < t2 <= k):
            _slot_error(n, k, s, s2)
        nxt[nk + i * k + t - base] = nk + i2 * k + t2 - base
    for s in buds:
        i, t = s
        if not (0 < i <= n and 0 < t <= k):
            _slot_error(n, k, s)
        x = i * k + t - base
        twin[x] = twin[nk + x] = None
    vertex = [x // k for x in range(nk)] + [0] * nk
    whites = orbits(nxt, range(nk, 2 * nk))
    for v, orbit in enumerate(whites, start=n):
        for x in orbit:
            vertex[x] = v
    return HalfEdgeMap(
        k=k,
        vertex=tuple(vertex),
        nxt=tuple(nxt),
        twin=tuple(twin),
        type=tuple(range(1, k + 1)) * (2 * n),
        vertex_color=(BLACK,) * n + (WHITE,) * len(whites),
        root=None if root is None else root - 1,
    )


def _slot_error(n: int, k: int, *slots: Slot) -> None:
    """Raise the ValueError that names the first of ``slots`` outside [n] x [k]."""
    bad = next(s for s in slots if not (0 < s[0] <= n and 0 < s[1] <= k))
    raise ValueError(f"slot {bad} is not in [{n}] x [{k}]")


def with_twins_joined(m: HalfEdgeMap, pairs: list[tuple[int, int]]) -> HalfEdgeMap:
    """Copy of m with each given bud pair glued into an edge."""
    twin = list(m.twin)
    for a, b in pairs:
        if twin[a] is not None or twin[b] is not None:
            raise ValueError("can only join buds")
        if m.type[a] != m.type[b]:
            raise ValueError(f"bud types differ: {m.type[a]} vs {m.type[b]}")
        twin[a] = b
        twin[b] = a
    return HalfEdgeMap(m.k, m.vertex, m.nxt, tuple(twin), m.type, m.vertex_color, m.root)
