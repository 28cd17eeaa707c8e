"""Expected values the benchmark checks against, computed without the library.

Everything here is exact integer or fraction arithmetic from closed forms,
plus the small amount of permutation and bidding code the benchmark needs to
generate its own inputs.  Nothing imports ``constellation_lab``: a check that
trusted the library's own self-checks would stop checking anything once those
self-checks move into the tests.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, prod
from typing import Sequence


def binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def m_coeff(n: int, p: Sequence[int]) -> int:
    """M^n_p = [x^p] (prod(1+x_t) - prod x_t)^n, by the binomial expansion
    sum_j (-1)^j C(n,j) prod_t C(n-j, p_t-j)."""
    if n < 0 or any(x < 0 for x in p):
        return 0
    return sum(
        (-1) ** j * comb(n, j) * prod(binom(n - j, x - j) for x in p)
        for j in range(n + 1)
    )


def colored_count(n: int, p: Sequence[int]) -> int:
    """C^n_p = n!^(k-1) M^(n-1)_(p-1) (Jackson); zero unless every p_t >= 1."""
    if any(x < 1 for x in p):
        return 0
    return factorial(n) ** (len(p) - 1) * m_coeff(n - 1, [x - 1 for x in p])


def gf_value(n: int, xs: Sequence[int]) -> int:
    """sum over factorizations of prod x_t^(cycles of factor t), via
    x^l = sum_p C(x,p) surj(l,p): sum_p C^n_p prod C(x_t, p_t)."""
    k = len(xs)
    return sum(
        colored_count(n, p) * prod(binom(x, pt) for x, pt in zip(xs, p))
        for p in itertools.product(range(1, n + 1), repeat=k)
    )


def refined_count(n: int, lengths: Sequence[int]) -> Fraction:
    """c(gamma^(1..k)) for compositions of n with these lengths:
    n!^(k-1) M^(n-1)_(l-1) / prod C(n-1, l_t-1)."""
    num = factorial(n) ** (len(lengths) - 1) * m_coeff(n - 1, [l - 1 for l in lengths])
    return Fraction(num, prod(binom(n - 1, l - 1) for l in lengths))


def symmetry_profiles(n: int, k: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Length profile -> (number of composition tuples, count of each), for
    the profiles whose count is nonzero."""
    out = {}
    for lengths in itertools.product(range(1, n + 1), repeat=k):
        value = refined_count(n, lengths)
        if value:
            classes = prod(binom(n - 1, l - 1) for l in lengths)
            out[lengths] = (classes, int(value))
    return out


def swap_domain(n: int, p: Sequence[int]) -> int:
    """(object, t, i, j) with i != j and vertex (t, i) of hyperdegree >= 2.

    Vertex (t, i) has hyperdegree gamma^(t)_i; the objects of type p are
    spread evenly over the composition tuples with these lengths, and
    C(n-2, p_t-2) of the C(n-1, p_t-1) compositions have gamma_i = 1.
    """
    c = colored_count(n, p)
    total = Fraction(0)
    for pt in p:
        if pt >= 2:
            total += pt * (pt - 1) * c * Fraction(
                binom(n - 1, pt - 1) - binom(n - 2, pt - 2), binom(n - 1, pt - 1)
            )
    return int(total)


def pointing_count(n: int, p: Sequence[int]) -> int:
    """Both sides of the pointing correspondence: sum_t C^n_(p + e_t)."""
    return sum(colored_count(n, [x + (s == t) for s, x in enumerate(p)]) for t in range(len(p)))


def tree_pointed_domain(n: int, k: int) -> int:
    """Tree-pointed constellations of size n, over every reduced type."""
    total = Fraction(0)
    for q in itertools.product(range(0, n + 1), repeat=k):
        total += Fraction(pointing_count(n, q), prod(factorial(x) for x in q))
    return int(total)


def r1_hits(n: int, p: Sequence[int]) -> int:
    """Subset tuples of type p whose first subset has k-1 elements."""
    k = len(p)
    return sum(m_coeff(n - 1, [x - 1 + (s == t) for s, x in enumerate(p)]) for t in range(k))


def bidding_domain(n: int, k: int) -> int:
    """Valid (pre)biddings of size n: n!^k sum_p #(R_1 of size k-1)."""
    return factorial(n) ** k * sum(
        r1_hits(n, p) for p in itertools.product(range(0, n + 1), repeat=k)
    )


def tree_probability(n: int, p: Sequence[int]) -> tuple[int, int]:
    """P(tree) = P(|R_1| = k-1) as an unreduced (hits, total) pair."""
    return r1_hits(n, p), m_coeff(n, p)


def fraction_text(num: int, den: int) -> str:
    """A reduced ``num/den``, as the library prints exact probabilities."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def exchange_counts(n: int, p: Sequence[int], a: int, b: int, c: int) -> tuple[str, int, int]:
    """For k=3: P({a,b} in R_i) and the event sizes |E1|, |E2| over
    (tuple, i, j), counted by which subsets sit at positions i and j."""
    subsets = [frozenset(s) for r in range(3) for s in itertools.combinations((1, 2, 3), r)]

    def minus(*sets):
        q = list(p)
        for s in sets:
            for t in s:
                q[t - 1] -= 1
        return q

    ab = frozenset({a, b})
    same = n * m_coeff(n - 1, minus(ab))
    e1 = same + n * (n - 1) * sum(
        m_coeff(n - 2, minus(s, t))
        for s in subsets if a in s and c not in s
        for t in subsets if b in t
    )
    e2 = same + n * (n - 1) * sum(
        m_coeff(n - 2, minus(ab, t)) for t in subsets if t != frozenset({a, c})
    )
    return fraction_text(m_coeff(n - 1, minus(ab)), m_coeff(n, p)), e1, e2


def within_five_sigma(hits: int, trials: int, num: int, den: int) -> bool:
    """(hits - N P)^2 <= 25 N P (1 - P) for P = num/den, in integers."""
    return (hits * den - trials * num) ** 2 <= 25 * trials * num * (den - num)


# ---------------------------------------------------------------------------
# Input generation: permutations in one-line notation, 1-based
# ---------------------------------------------------------------------------


def random_permutation(rng, n: int) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return tuple(image)


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p o q, applying q first."""
    return tuple(p[q[x] - 1] for x in range(len(q)))


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for x, y in enumerate(p, start=1):
        inv[y - 1] = x
    return tuple(inv)


def cycles(p: Sequence[int]) -> list[list[int]]:
    seen = [False] * (len(p) + 1)
    out = []
    for start in range(1, len(p) + 1):
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x - 1]
        if cyc:
            out.append(cyc)
    return out


def random_colored_factorization(rng, n: int, k: int):
    """k permutations with product (1,...,n) (first factor applied last),
    each with a random surjective coloring of its cycles."""
    rest = [random_permutation(rng, n) for _ in range(k - 1)]
    product = tuple(range(1, n + 1))
    for r in reversed(rest):
        product = compose(r, product)
    long_cycle = tuple(range(2, n + 1)) + (1,)
    perms = [compose(long_cycle, inverse(product))] + rest
    colorings = []
    for perm in perms:
        cycs = cycles(perm)
        colors = rng.randint(1, len(cycs))
        assign = list(range(1, colors + 1))
        assign += [rng.randint(1, colors) for _ in range(len(cycs) - colors)]
        rng.shuffle(assign)
        col = [0] * n
        for cyc, color in zip(cycs, assign):
            for x in cyc:
                col[x - 1] = color
        colorings.append(tuple(col))
    return tuple(perms), tuple(colorings)


def alpha(t: int, subset: frozenset[int], k: int) -> int:
    """Successor type: t-1 if t is in R, else t+r for the maximal cyclic
    run t+1..t+r inside R (types taken mod k in [1..k])."""
    if t in subset:
        return (t - 2) % k + 1
    r = 0
    while (t + r) % k + 1 in subset:
        r += 1
    return (t + r - 1) % k + 1


def is_tree(k: int, edges: Sequence[tuple[int, int]]) -> bool:
    if len(edges) != k - 1 or any(u == v for u, v in edges):
        return False
    parent = list(range(k + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def random_valid_bidding(rng, n: int, k: int):
    """Uniform strict subsets and omegas, kept when the last-appearance graph
    (edges {t, alpha(t, R_(omega_t(n)))}, t < k) is a tree."""
    strict = [
        frozenset(t for t in range(1, k + 1) if mask >> (t - 1) & 1)
        for mask in range(2**k - 1)
    ]
    while True:
        subsets = tuple(rng.choice(strict) for _ in range(n))
        omegas = tuple(random_permutation(rng, n) for _ in range(k))
        edges = [(t, alpha(t, subsets[omegas[t - 1][n - 1] - 1], k)) for t in range(1, k)]
        if is_tree(k, edges):
            return omegas, subsets
