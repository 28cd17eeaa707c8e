"""Brute-force oracles that only tests use: each enumerates the whole space
that a library function counts by a faster route."""
import itertools
from fractions import Fraction
from math import prod

from constellation_lab.biddings import TypedGraph, alpha

from constellation_lab.constellations import canonical_rooted, from_permutations, transitive_tuples
from constellation_lab.counting import m_tuples
from constellation_lab.permutations import cycles
from constellation_lab.puzzle import UndefinedProbabilityError


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
