"""Exhaustive enumeration and exact counting for long-cycle factorizations.

All counts are exact Python integers; verification reports carry both
sides of each identity.  Enumeration streams are deterministic (ordered
lexicographically by the free data) and guarded by a visit cap.  Every
exhaustive count is a sum over one memoized cycle-type census.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import getitem
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .permutations import (
    Composition,
    Permutation,
    all_permutations,
    compose,
    compose_all,
    cycle_type,
    cycles,
    inverse,
    long_cycle,
)

DEFAULT_CAP = 10**8


class CapExceededError(RuntimeError):
    """An enumeration would visit more tuples than the configured cap."""


def _check_cap(size: int, cap: Optional[int]) -> None:
    cap = DEFAULT_CAP if cap is None else cap
    if size > cap:
        raise CapExceededError(f"enumeration of {size} tuples exceeds cap {cap}")


def _require(problem: Optional[str]) -> None:
    """The input guard of every map: raise ValueError(problem) unless it is None."""
    if problem is not None:
        raise ValueError(problem)


def _check_size(
    n: int, k: int, p: Optional[Sequence[int]] = None, *, n_min: int, k_min: int, p_min: int = 0
) -> None:
    """The size contract of every (n, k, p) entry point: raise ValueError
    unless k >= k_min, n >= n_min and, when p is given, p has k entries,
    each at least p_min.  One message per class, checked in that order."""
    if k < k_min:
        raise ValueError(f"k must be at least {k_min}, got {k}")
    if n < n_min:
        raise ValueError(f"n must be at least {n_min}, got {n}")
    if p is not None:
        if len(p) != k:
            raise ValueError(f"p must have length {k}, got {len(p)}")
        if any(x < p_min for x in p):
            raise ValueError(f"entries of p must be at least {p_min}, got {tuple(p)}")


@dataclass(frozen=True)
class ColoredFactorization:
    """A factorization of (1,2,...,n) with surjectively colored cycles.

    ``colorings[t-1][i-1]`` is the color of element i under the t-th
    coloring; colorings are constant on the cycles of the t-th factor and
    use every color in [p_t].
    """

    perms: tuple[Permutation, ...]
    colorings: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.perms)

    @property
    def n(self) -> int:
        return self.perms[0].n

    def validate(self) -> Optional[str]:
        n = self.n
        if any(p.n != n for p in self.perms):
            return "size mismatch"
        images = [p.image for p in self.perms]
        # the product applies the last factor first; x must go to x + 1
        for x in range(1, n + 1):
            y = x
            for img in reversed(images):
                y = img[y - 1]
            if y != x % n + 1:
                return "product is not the long cycle"
        for t, (img, col) in enumerate(zip(images, self.colorings), start=1):
            if len(col) != n:
                return f"coloring {t} has wrong length"
            # constant on every cycle of the factor exactly when constant along it
            if any(col[x] != col[y - 1] for x, y in enumerate(img)):
                for cyc in cycles(self.perms[t - 1]):
                    if len({col[x - 1] for x in cyc}) != 1:
                        return f"coloring {t} not constant on cycle {cyc}"
            used = set(col)
            if used != set(range(1, len(used) + 1)):
                return f"coloring {t} is not surjective"
        return None


@dataclass(frozen=True)
class MTuple:
    """An n-tuple of strict subsets of [k]."""

    k: int
    subsets: tuple[frozenset[int], ...]

    def to_json(self) -> list[list[int]]:
        return [sorted(s) for s in self.subsets]


@dataclass(frozen=True)
class CheckReport:
    """Both sides of a verified identity, plus the verdict."""

    name: str
    lhs: object
    rhs: object
    equal: bool
    params: tuple[tuple[str, object], ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
            "params": {k: str(v) for k, v in self.params},
        }


# ---------------------------------------------------------------------------
# Factorization streams
# ---------------------------------------------------------------------------


def enumerate_factorizations(
    n: int, k: int, cap: Optional[int] = None
) -> Iterator[tuple[Permutation, ...]]:
    """All k-tuples with product (1,2,...,n), exactly n!^(k-1) of them.

    The factors pi_2..pi_k range over S_n in lexicographic one-line order
    and pi_1 is solved from the product condition.
    """
    _check_size(n, k, n_min=1, k_min=2)
    _check_cap(factorial(n) ** (k - 1), cap)
    target = long_cycle(n)
    for rest in itertools.product(all_permutations(n), repeat=k - 1):
        pi1 = compose(target, inverse(compose_all(list(rest))))
        yield (pi1,) + rest


def _surjective_colorings(num_cycles: int, p: int) -> Iterator[tuple[int, ...]]:
    for assign in itertools.product(range(1, p + 1), repeat=num_cycles):
        if set(assign) == set(range(1, p + 1)):
            yield assign


def enumerate_colored_factorizations(
    n: int, k: int, p: Sequence[int], cap: Optional[int] = None
) -> Iterator[ColoredFactorization]:
    """All (p_1,...,p_k)-colored factorizations of (1,2,...,n)."""
    _check_size(n, k, p, n_min=1, k_min=2, p_min=1)
    for perms in enumerate_factorizations(n, k, cap):
        cycs = [cycles(q) for q in perms]
        per_type = []
        for t in range(k):
            options = []
            for assign in _surjective_colorings(len(cycs[t]), p[t]):
                col = [0] * n
                for cyc, color in zip(cycs[t], assign):
                    for x in cyc:
                        col[x - 1] = color
                options.append(tuple(col))
            per_type.append(options)
        for combo in itertools.product(*per_type):
            yield ColoredFactorization(perms=perms, colorings=tuple(combo))


def surjection_count(m: int, p: int) -> int:
    """Number of surjections from an m-set onto [p], by inclusion-exclusion."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return sum((-1) ** j * comb(p, j) * (p - j) ** m for j in range(p + 1))


def cycle_type_census(
    n: int, k: int, cap: Optional[int] = None
) -> Mapping[tuple[tuple[int, ...], ...], int]:
    """How many factorizations of (1,...,n) into k factors have each cycle type.

    A key holds, per factor, its cycle lengths in decreasing order.  Every
    exhaustive count of this module is a sum over this census.  It walks the
    domain of :func:`enumerate_factorizations` in the same order, as bare
    image tuples, and reads each type from a table over S_n.  It is memoized
    per (n, k) for the life of the process, so a sweep walks its domain once;
    the size and the cap are checked on every call, before the memo, and the
    mapping is read-only because it is shared.
    """
    _check_size(n, k, n_min=1, k_min=2)
    _check_cap(factorial(n) ** (k - 1), cap)
    return _census(n, k)


@lru_cache(maxsize=None)
def _census(n: int, k: int) -> Mapping[tuple[tuple[int, ...], ...], int]:
    # S_n as 0-based image tuples in lexicographic order, each with its type
    ctype = {tuple(x - 1 for x in g.image): cycle_type(g).parts for g in all_permutations(n)}
    # first[q]: the type of pi_1 = (1,...,n) q^-1, which maps q(i) to i + 1
    first = {}
    for q in ctype:
        pi1 = [0] * n
        for i, y in enumerate(q):
            pi1[y] = (i + 1) % n
        first[q] = ctype[tuple(pi1)]
    census: dict[tuple[tuple[int, ...], ...], int] = {}
    # the walk of enumerate_factorizations: q = pi_2...pi_k, rightmost first
    for rest in itertools.product(ctype, repeat=k - 1):
        q = rest[-1]
        for g in reversed(rest[:-1]):
            q = tuple(map(g.__getitem__, q))
        key = (first[q],) + tuple(map(ctype.__getitem__, rest))
        census[key] = census.get(key, 0) + 1
    return MappingProxyType(census)


@lru_cache(maxsize=None)
def _cycle_count_census(n: int, k: int) -> Mapping[tuple[int, ...], int]:
    """The census summed by how many cycles each factor has: the view that
    every count reading only cycle numbers sums over.  Memoized per (n, k)
    behind :func:`cycle_type_census`, which its callers ask first."""
    view: dict[tuple[int, ...], int] = {}
    for lams, cnt in _census(n, k).items():
        key = tuple(map(len, lams))
        view[key] = view.get(key, 0) + cnt
    return MappingProxyType(view)


def _cycle_count_sum(n: int, rows: Sequence[Sequence[int]]) -> int:
    """Sum over the factorizations into k = len(rows) factors of the product
    of ``rows[t][m]``, the weight of factor t + 1 having m cycles, read from
    :func:`_cycle_count_census`.  Its callers ask :func:`cycle_type_census`
    first, for the size and the cap."""
    return sum(
        cnt * prod(map(getitem, rows, ms))
        for ms, cnt in _cycle_count_census(n, len(rows)).items()
    )


@lru_cache(maxsize=None)
def _surjection_row(n: int, p: int) -> tuple[int, ...]:
    """surjection_count(m, p) for m = 0..n."""
    return tuple(surjection_count(m, p) for m in range(n + 1))


def count_colored(n: int, p: Sequence[int], cap: Optional[int] = None) -> int:
    """C^n_p: colored factorizations, surjection products summed over the
    census by the cycle number of each factor."""
    _check_size(n, len(p), p, n_min=1, k_min=2, p_min=1)
    if any(pt > n for pt in p):
        return 0
    cycle_type_census(n, len(p), cap)
    # rows[t][m]: surjections from the m cycles of factor t + 1 onto its colors
    return _cycle_count_sum(n, [_surjection_row(n, pt) for pt in p])


@lru_cache(maxsize=None)
def _composition_assignments(sizes: tuple[int, ...], quotas: tuple[int, ...]) -> int:
    """Ways to assign blocks of the given sizes to colors meeting exact quotas.

    The sizes and the quotas must have the same total, which the caller
    checks: then the blocks meet every quota once none is left."""
    if not sizes:
        return 1
    first, rest = sizes[0], sizes[1:]
    total = 0
    for i, q in enumerate(quotas):
        if q >= first:
            new_q = quotas[:i] + (q - first,) + quotas[i + 1 :]
            total += _composition_assignments(rest, new_q)
    return total


def color_composition_counts(
    axes: Sequence[Sequence[Composition]], cap: Optional[int] = None
) -> Mapping[tuple[tuple[int, ...], ...], int]:
    """c(gamma^(1),...,gamma^(k)) for every tuple with gamma^(t) in axes[t - 1],
    keyed by the tuple of their parts; a tuple whose count is 0 is absent.

    The census is contracted one factor at a time: axis by axis, each key's
    cycle type of that factor is replaced by every composition of the axis,
    weighted by the ways to color its cycles with those color sizes, and
    equal keys are merged.  So every tuple is counted from one pass per axis.
    """
    sizes = {g.size for axis in axes for g in axis}
    if len(sizes) > 1:
        raise ValueError("compositions must all have the same size")
    if not axes or not all(axes):
        # no tuple to count, and no size to read the census at; k still
        # has to be at least 2
        _check_size(0, len(axes), n_min=0, k_min=2)
        return {}
    (n,) = sizes
    counts = cycle_type_census(n, len(axes), cap)
    # a key holds the cycle types of the factors still to contract, then the
    # compositions of those contracted, so each step turns it by one place
    for axis in axes:
        weights: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        contracted: dict[tuple[tuple[int, ...], ...], int] = {}
        for key, cnt in counts.items():
            lam = key[0]
            if lam not in weights:
                # the cycles of lam are assigned to colors of total n
                if sum(lam) != n:
                    raise AssertionError(f"cycle type {lam} of the census does not sum to {n}")
                weights[lam] = [
                    (g.parts, w) for g in axis if (w := _composition_assignments(lam, g.parts))
                ]
            rest = key[1:]
            for parts, w in weights[lam]:
                new = rest + (parts,)
                contracted[new] = contracted.get(new, 0) + cnt * w
        counts = contracted
    return counts


def count_by_color_compositions(
    gammas: Sequence[Composition], cap: Optional[int] = None
) -> int:
    """c(gamma^(1),...,gamma^(k)): colored factorizations with exact color sizes."""
    counts = color_composition_counts([[g] for g in gammas], cap)
    return counts.get(tuple(g.parts for g in gammas), 0)


def count_kappa(lams: Sequence[Composition], cap: Optional[int] = None) -> int:
    """kappa: factorizations with prescribed cycle types."""
    n = lams[0].size if lams else 0
    if any(l.size != n for l in lams):
        raise ValueError("partitions must all have the same size")
    key = tuple(tuple(sorted(l.parts, reverse=True)) for l in lams)
    return cycle_type_census(n, len(lams), cap).get(key, 0)


# ---------------------------------------------------------------------------
# M-coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def strict_subsets(k: int) -> tuple[frozenset[int], ...]:
    """The 2^k - 1 strict subsets of [k], ordered by bitmask; built once per
    k for the life of the process."""
    return tuple(
        frozenset(t for t in range(1, k + 1) if mask & (1 << (t - 1))) for mask in range(2**k - 1)
    )


def _mask_tuples(
    n: int, k: int, p: Optional[Sequence[int]], cap: Optional[int], nondecreasing: bool = False
) -> Iterator[Sequence[int]]:
    """The n-tuples of strict subsets of [k] as lists of masks, the indices
    of :func:`strict_subsets`, in lexicographic order: all of them, or with
    p given those of type p, and with ``nondecreasing`` only the sorted ones.

    With p given the search is depth-first over positions and keeps the
    count each type still needs: a position skips every mask below ``low``,
    every subset holding a type that needs no more, and every subset missing
    a type that needs every position left.  The arguments and the cap, which
    bounds the (2^k - 1)^n tuples, are checked at the call, before the first
    tuple is asked for.  The search reuses the list it yields.
    """
    _check_size(n, k, p, n_min=0, k_min=1, p_min=0)
    _check_cap((2**k - 1) ** n, cap)
    subsets = strict_subsets(k)
    if p is None:
        return itertools.product(range(len(subsets)), repeat=n)
    need = list(p)
    acc: list[int] = []

    def rec(left: int, low: int) -> Iterator[list[int]]:
        if left == 0:
            yield acc
            return
        done = forced = 0
        for t, x in enumerate(need):
            if x == 0:
                done |= 1 << t
            elif x == left:
                forced |= 1 << t
        # subsets are ordered by bitmask, so the index of s is its mask
        for mask in range(low, len(subsets)):
            if mask & done or forced & ~mask:
                continue
            for t in subsets[mask]:
                need[t - 1] -= 1
            acc.append(mask)
            yield from rec(left - 1, mask if nondecreasing else 0)
            acc.pop()
            for t in subsets[mask]:
                need[t - 1] += 1

    return iter(()) if any(x > n for x in need) else rec(n, 0)


def m_tuples(
    n: int, k: int, p: Optional[Sequence[int]] = None, cap: Optional[int] = None
) -> Iterator[MTuple]:
    """n-tuples of strict subsets of [k]; with p given, only those of type p.

    Tuples come in lexicographic order of :func:`strict_subsets`, from the
    pruned search of :func:`_mask_tuples`.
    """
    tuples = _mask_tuples(n, k, p, cap)
    subsets = strict_subsets(k)
    for masks in tuples:
        yield MTuple(k=k, subsets=tuple([subsets[mask] for mask in masks]))


def m_coefficient(n: int, p: Sequence[int]) -> int:
    """M^n_p = [x^p] (prod_t (1 + x_t) - prod_t x_t)^n, by its closed form.

    M^n_p counts the n-tuples of strict subsets of [k], k = len(p), of type
    p (see :func:`m_tuples`).  Expanding the n-th power binomially gives
    ``sum_j (-1)^j C(n, j) prod_t C(n - j, p_t - j)``, O(nk) integer
    operations.  Tuple enumeration and polynomial expansion are oracles for
    it in the tests.
    """
    p = tuple(p)
    # total in n and in the entries of p: only k = len(p) is checked
    _check_size(0, len(p), n_min=0, k_min=1)
    if n < 0 or any(x < 0 for x in p):
        return 0
    # math.comb rejects negative arguments, and every term past min(n, p) is 0
    return sum(
        (-1) ** j * comb(n, j) * prod(comb(n - j, x - j) for x in p)
        for j in range(min(n, *p) + 1)
    )


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _jackson_rhs(n: int, p: Sequence[int]) -> int:
    """The right side of Jackson's formula, n!^(k-1) M^(n-1)_(p-1), k = len(p)."""
    return factorial(n) ** (len(p) - 1) * m_coefficient(n - 1, tuple(x - 1 for x in p))


@lru_cache(maxsize=None)
def _jackson_terms(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every p in [n]^k whose :func:`_jackson_rhs` is nonzero, with that
    value, in lexicographic order; memoized per (n, k) behind the size
    checks of its callers."""
    return tuple(
        (p, term)
        for p in itertools.product(range(1, n + 1), repeat=k)
        if (term := _jackson_rhs(n, p))
    )


def _type_terms(n: int, k: int, p: Optional[Sequence[int]]):
    """``(p, _jackson_rhs(n, p))``: for the one type p, or with p None for
    every type of :func:`_jackson_terms`."""
    return _jackson_terms(n, k) if p is None else ((tuple(p), _jackson_rhs(n, p)),)


# Closed-form sizes of the roundtrip domains, which the CLI compares with the
# number of objects each domain yields; callers check n >= 1 and k >= 2.


def _colored_total(n: int, k: int, p: Optional[Sequence[int]]) -> int:
    """Colored factorizations of type p, or of every type: C^n_p summed."""
    return sum(term for _, term in _type_terms(n, k, p))


def _swap_moves(n: int, k: int, p: Optional[Sequence[int]]) -> int:
    """Moves (object, t, i, j), i != j, of the tree-rooted objects of type p
    (or of every type) whose type-t vertex labelled i has hyperdegree >= 2.

    That hyperdegree is the part gamma_i of the composition of color sizes,
    and the C^n_p objects spread evenly over the composition tuples with
    lengths p (Morales-Vassilieva).  C(n-2, p_t-2) of the C(n-1, p_t-1)
    compositions have gamma_i = 1, so (n - p_t)/(n - 1) of the objects have
    gamma_i >= 2, for each of the p_t labels i and p_t - 1 targets j."""
    if n < 2:
        return 0
    return sum(
        term * x * (x - 1) * (n - x) // (n - 1) for q, term in _type_terms(n, k, p) for x in q
    )


def _tree_pointed_total(n: int, k: int) -> int:
    """Tree-pointed constellations of size n, in canonical form.

    C^n_p / prod p_t! rooted constellations of type p carry an arborescence
    toward the root vertex, and the arborescences toward each vertex are
    as many (they count the Eulerian tours of one digraph), so each adds
    one object per vertex: sum_p |p| C^n_p / prod p_t!.  This is the
    pointing correspondence's sum_q sum_t C^n_(q+e_t) / prod q_t!."""
    return sum(sum(p) * (term // prod(map(factorial, p))) for p, term in _jackson_terms(n, k))


def _bidding_total(n: int, k: int) -> int:
    """Valid prebiddings (and biddings) of size n: n!^k sum_p #(|R_1| = k-1)
    over every type, that is n!^k k (2^k - 1)^(n-1): R_1 is one of the k
    subsets of size k-1 and the other n - 1 subsets are any strict ones."""
    return factorial(n) ** k * k * (2**k - 1) ** (n - 1)


def verify_jackson(n: int, p: Sequence[int], cap: Optional[int] = None) -> CheckReport:
    """Colored-factorization count against n!^(k-1) * M^(n-1)_(p-1)."""
    p = tuple(p)
    k = len(p)
    lhs = count_colored(n, p, cap)
    rhs = _jackson_rhs(n, p)
    return CheckReport(
        name="jackson",
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        params=(("n", n), ("k", k), ("p", p)),
    )


def verify_gf_identity(
    n: int, k: int, xs: Sequence[int], cap: Optional[int] = None
) -> CheckReport:
    """Exact evaluation of the cycle-count generating identity at integers.

    Left side sums x_t^(cycles of factor t) over the census by cycle numbers; right
    side sums binomials times n!^(k-1) M^(n-1) over color-count vectors, whose
    nonzero terms do not depend on x and are read from :func:`_jackson_terms`.
    """
    xs = tuple(xs)
    if len(xs) != k or any(x < 0 for x in xs):
        raise ValueError("need k nonnegative integers")
    cycle_type_census(n, k, cap)
    lhs = _cycle_count_sum(n, [[x**m for m in range(n + 1)] for x in xs])
    rhs = sum(term * prod(map(comb, xs, p)) for p, term in _jackson_terms(n, k))
    return CheckReport(
        name="gf-identity",
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        params=(("n", n), ("k", k), ("x", xs)),
    )


def verify_mv_formula(
    gammas: Sequence[Composition], cap: Optional[int] = None
) -> CheckReport:
    """Refined count against the closed form with binomial denominators."""
    lhs = Fraction(count_by_color_compositions(gammas, cap))
    n = gammas[0].size
    k = len(gammas)
    num = _jackson_rhs(n, [g.length for g in gammas])
    den = prod(comb(n - 1, g.length - 1) for g in gammas)
    rhs = Fraction(num, den)
    return CheckReport(
        name="mv-formula",
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        params=(("n", n), ("k", k), ("gammas", tuple(str(g) for g in gammas))),
    )
