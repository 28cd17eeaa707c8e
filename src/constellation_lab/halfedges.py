"""Half-edge maps with optional buds.

A half-edge (dart) has an incident vertex, a clockwise-next dart around
that vertex, a type in [k], and an optional twin.  A dart without a twin
is a *bud* (a dangling half-edge).  Vertices are colored black or white.

The single traversal primitive is the *clockwise tour*: walking around a
face with the edges on the right of the walker, crossing buds in place.
On darts it is the permutation

    step(x) = next[x]        if x is a bud,
    step(x) = next[twin[x]]  otherwise.

The tour reaches every dart exactly once per face, and the corner crossed
just before reaching dart x is the corner preceding x in clockwise order
around its vertex.  Faces of the map are the orbits of ``step``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

BLACK = "black"
WHITE = "white"


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
    def num_edges(self) -> int:
        return sum(1 for t in self.twin if t is not None) // 2

    @property
    def buds(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.num_darts) if self.twin[x] is None)

    def is_bud(self, x: int) -> bool:
        return self.twin[x] is None

    def step(self, x: int) -> int:
        """Clockwise-tour successor of dart x (see module docstring)."""
        if self.twin[x] is None:
            return self.nxt[x]
        return self.nxt[self.twin[x]]

    def rotations(self) -> dict[int, tuple[int, ...]]:
        """Clockwise dart cycle around each vertex, min dart first."""
        out: dict[int, list[int]] = {v: [] for v in range(self.num_vertices)}
        seen = [False] * self.num_darts
        for x in range(self.num_darts):
            if seen[x]:
                continue
            cyc = []
            y = x
            while not seen[y]:
                seen[y] = True
                cyc.append(y)
                y = self.nxt[y]
            v = self.vertex[x]
            out[v] = cyc
        return {v: tuple(c) for v, c in out.items()}

    def darts_at(self, v: int) -> list[int]:
        return [x for x in range(self.num_darts) if self.vertex[x] == v]

    def faces(self) -> list[tuple[int, ...]]:
        """Orbits of the tour step, i.e. the faces, each as a dart cycle."""
        seen = [False] * self.num_darts
        out = []
        for x in range(self.num_darts):
            if seen[x]:
                continue
            cyc = []
            y = x
            while not seen[y]:
                seen[y] = True
                cyc.append(y)
                y = self.step(y)
            out.append(tuple(cyc))
        return out

    def tour(self, start: int) -> list[int]:
        """The clockwise tour as the dart sequence reached from ``start``."""
        seq = [start]
        y = self.step(start)
        while y != start:
            seq.append(y)
            y = self.step(y)
        return seq

    def genus(self) -> int:
        """Genus via Euler's relation (buds do not count as edges)."""
        chi = self.num_vertices - self.num_edges + len(self.faces())
        if chi % 2 != 0 or chi > 2:
            raise ValueError(f"inconsistent Euler characteristic {chi}")
        return (2 - chi) // 2

    def validate(self) -> Optional[str]:
        """Return the first violated structural invariant, or None if valid."""
        H = self.num_darts
        V = self.num_vertices
        if H and (min(self.vertex) < 0 or max(self.vertex) >= V):
            return "a dart's vertex is out of range"
        if self.root is not None and not 0 <= self.root < V:
            return "root is not a vertex"
        for x in range(H):
            if not (0 <= self.nxt[x] < H):
                return f"next[{x}] out of range"
            if self.vertex[self.nxt[x]] != self.vertex[x]:
                return f"next[{x}] leaves vertex {self.vertex[x]}"
            if not (1 <= self.type[x] <= self.k):
                return f"type[{x}] not in [k]"
            t = self.twin[x]
            if t is not None:
                if not 0 <= t < H:
                    return f"twin[{x}] is not a dart"
                if self.twin[t] != x:
                    return f"twin not an involution at {x}"
                if t == x:
                    return f"dart {x} is its own twin"
                if self.type[t] != self.type[x]:
                    return f"twin pair {x},{t} types differ"
        if sorted(self.nxt) != list(range(H)):
            return "next is not a permutation of the darts"
        for v in range(self.num_vertices):
            if self.vertex_color[v] not in (BLACK, WHITE):
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
            colors = [WHITE] * (1 + max(vertex) if hes else 0)
            for v, he in zip(vertex, hes):
                colors[v] = he["color"]
            return (
                vertex,
                tuple(_json_int(he["next"]) for he in hes),
                tuple(None if he["twin"] is None else _json_int(he["twin"]) for he in hes),
                tuple(_json_int(he["type"]) for he in hes),
                tuple(colors),
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


def with_twins_cut(m: HalfEdgeMap, darts: set[int]) -> HalfEdgeMap:
    """Copy of m with the edges through the given darts cut into bud pairs."""
    cut = set()
    for x in darts:
        t = m.twin[x]
        if t is None:
            raise ValueError(f"dart {x} is already a bud")
        cut.add(x)
        cut.add(t)
    twin = tuple(None if x in cut else m.twin[x] for x in range(m.num_darts))
    return HalfEdgeMap(m.k, m.vertex, m.nxt, twin, m.type, m.vertex_color, m.root)


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
