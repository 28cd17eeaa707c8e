"""Permutations of [n] = {1, ..., n}, compositions and cycle bookkeeping.

Everything is 1-based.  A permutation is stored in one-line notation:
``image[i - 1]`` is the image of ``i``.  All values are immutable and
hashable, so they can be shared freely and used as dict keys.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of [n] in one-line notation (1-based)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {self.image!r}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        return self.image[x - 1]

    def __str__(self) -> str:
        return cycle_string(self)


@dataclass(frozen=True, order=True)
class Composition:
    """A sequence of positive integers; a partition if weakly decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError(f"composition parts must be positive: {self.parts!r}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def long_cycle(n: int) -> Permutation:
    """The permutation (1,2,...,n) mapping i to i+1 cyclically."""
    return Permutation(tuple(range(2, n + 1)) + (1,))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition p∘q, applying q first: (p∘q)(x) = p(q(x))."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.image[q.image[x] - 1] for x in range(p.n)))


def compose_all(perms: Sequence[Permutation]) -> Permutation:
    """Left-to-right product p1∘p2∘...∘pm (rightmost applied first)."""
    if not perms:
        raise ValueError("empty product")
    result = perms[-1]
    for p in reversed(perms[:-1]):
        result = compose(p, result)
    return result


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for x, y in enumerate(p.image, start=1):
        inv[y - 1] = x
    return Permutation(tuple(inv))


def orbits(succ: Sequence[int], domain: Iterable[int]) -> list[list[int]]:
    """The orbits of ``x -> succ[x]`` that meet ``domain``, in the order met.

    Each orbit starts at its first point in ``domain`` and stops before its
    first point already listed, so the walk ends on any successor list; on a
    permutation the orbits are its cycles.  Points are indices into ``succ``.
    """
    seen = [False] * len(succ)
    out: list[list[int]] = []
    for start in domain:
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = succ[x]
        out.append(orbit)
    return out


def cycles(p: Permutation) -> list[list[int]]:
    """Cycle decomposition; each cycle starts at its minimum, cycles sorted by minimum."""
    return orbits((0,) + p.image, range(1, p.n + 1))


def cycle_type(p: Permutation) -> Composition:
    """Multiset of cycle lengths, weakly decreasing (a partition of n)."""
    return Composition(tuple(sorted((len(c) for c in cycles(p)), reverse=True)))


def cycle_string(p: Permutation) -> str:
    """Human-readable cycle notation, e.g. ``(1,3,2,5)(4)``."""
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycles(p))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of [n] in lexicographic one-line order."""
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation(image)


def compositions_of(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, by number of parts then lexicographically."""
    for length in range(1, n + 1):
        yield from compositions_of_length(n, length)


def compositions_of_length(n: int, length: int) -> Iterator[Composition]:
    """All compositions of n with the given number of parts, lexicographically."""
    if length < 1 or length > n:
        return
    for cuts in itertools.combinations(range(1, n), length - 1):
        bounds = (0,) + cuts + (n,)
        yield Composition(tuple(b - a for a, b in zip(bounds, bounds[1:])))

