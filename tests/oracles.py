"""Brute-force oracles that only tests use: each enumerates the whole space
that a library function counts by a faster route."""
import itertools
from fractions import Fraction

from constellation_lab.constellations import canonical_rooted, from_permutations, transitive_tuples
from constellation_lab.counting import m_tuples
from constellation_lab.permutations import cycles
from constellation_lab.puzzle import UndefinedProbabilityError


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
