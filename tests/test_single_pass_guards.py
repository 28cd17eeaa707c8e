"""The single-pass guards give the verdicts of the guards they replaced.

``HalfEdgeMap.validate``, ``nebulas._rotation_problem`` and
``constellations.validate`` each test an object's tables in one pass and
compute a set or a sort only to word a failure.  Their earlier bodies live in
``tests/oracles.py``.  Every opened nebula and every rooted constellation at
(3,2), (2,3) and (3,3) is perturbed one table entry at a time, each entry
set to a seeded value drawn from a range that holds both valid and invalid
entries, and each guard must return exactly the oracle's verdict, ``None``
included.  A single changed entry of ``next`` never leaves a permutation,
so ``next`` is also perturbed by swapping two entries at one vertex, which
splits or joins the rotation cycles there.
"""
import random
import re
from dataclasses import replace

import pytest
from oracles import (
    constellation_problem_by_sets,
    halfedge_map_problem_by_entries,
    rotation_problem_by_sorting,
)

from constellation_lab.constellations import enumerate_rooted_constellations, validate
from constellation_lab.halfedges import BLACK, WHITE
from constellation_lab.nebulas import _rotation_problem, dual_opening, enumerate_tree_pointed

SIZES = [(3, 2), (2, 3), (3, 3)]


def _set(row, i, value):
    return row[:i] + (value,) + row[i + 1 :]


def perturbed_maps(m, rng):
    """m with one entry of one table replaced by a seeded value, for every
    entry, and with two ``next`` entries at one vertex swapped."""
    H, V = m.num_darts, m.num_vertices
    for x in range(H):
        yield replace(m, vertex=_set(m.vertex, x, rng.randrange(-1, V + 1)))
        yield replace(m, nxt=_set(m.nxt, x, rng.randrange(-1, H + 1)))
        yield replace(m, twin=_set(m.twin, x, rng.choice([None, *range(-1, H + 1)])))
        yield replace(m, type=_set(m.type, x, rng.randrange(0, m.k + 2)))
        y = rng.choice([y for y in range(H) if m.vertex[y] == m.vertex[x]])
        nxt = list(m.nxt)
        nxt[x], nxt[y] = nxt[y], nxt[x]
        yield replace(m, nxt=tuple(nxt))
    for v in range(V):
        yield replace(m, vertex_color=_set(m.vertex_color, v, rng.choice([BLACK, WHITE, "red"])))
    yield replace(m, root=rng.choice([None, *range(-1, V + 1)]))


def perturbed_constellations(c, rng):
    """c, labelled, with one entry of one table replaced by a seeded value,
    for every entry."""
    nv, n, k = c.num_vertices, c.n, c.k
    for h in range(n):
        for t in range(k):
            he = _set(c.hyperedges[h], t, rng.randrange(0, nv + 2))
            yield replace(c, hyperedges=_set(c.hyperedges, h, he))
    for v in range(nv):
        for i in range(len(c.rotation[v])):
            rot = _set(c.rotation[v], i, rng.randrange(0, n + 2))
            yield replace(c, rotation=_set(c.rotation, v, rot))
        yield replace(c, vertex_type=_set(c.vertex_type, v, rng.randrange(0, k + 2)))
        yield replace(c, labels=_set(c.labels, v, rng.randrange(0, nv + 1)))


def kind(problem):
    """A verdict with its numbers blanked, so verdicts group by message."""
    return None if problem is None else re.sub(r"-?\d+", "#", problem)


def labelled(c):
    """c with each vertex labelled by its rank among the vertices of its type."""
    seen = [0] * c.k
    labels = []
    for t in c.vertex_type:
        seen[t - 1] += 1
        labels.append(seen[t - 1])
    return replace(c, labels=tuple(labels))


@pytest.mark.parametrize("n, k", SIZES)
def test_map_guards_match_their_oracles_entry_by_entry(n, k):
    rng = random.Random(f"map guards {n} {k}")
    verdicts = set()
    for tp in enumerate_tree_pointed(n, k):
        m = dual_opening(tp).hmap
        assert m.validate() is None and _rotation_problem(m) is None
        for bad in perturbed_maps(m, rng):
            problem = bad.validate()
            assert problem == halfedge_map_problem_by_entries(bad), bad
            if problem is None:
                problem = _rotation_problem(bad)
                assert problem == rotation_problem_by_sorting(bad), bad
            verdicts.add(kind(problem))
    # valid maps and the rotation guard's failures are among the verdicts
    assert {
        None,
        "next[#] leaves vertex #",
        "twin not an involution at #",
        "black vertex # has degree #",
        "black vertex # misses a type",
        "types do not decrease clockwise at white vertex #",
        "edge at dart # joins two black vertices",
        "the darts at vertex # form more than one rotation cycle",
    } <= verdicts


@pytest.mark.parametrize("n, k", SIZES)
def test_constellation_guard_matches_its_oracle_entry_by_entry(n, k):
    rng = random.Random(f"constellation guard {n} {k}")
    verdicts = set()
    for c in enumerate_rooted_constellations(n, k):
        c = labelled(c)
        assert validate(c) is None
        for bad in perturbed_constellations(c, rng):
            problem = validate(bad)
            assert problem == constellation_problem_by_sets(bad), bad
            verdicts.add(kind(problem))
    assert verdicts == {
        None,
        "hyperedge # references unknown vertex #",
        "hyperedge # slot # holds a vertex of type #",
        "rotation at vertex # repeats a hyperedge",
        "rotation incomplete at vertex #",
        "labels of type # are not a bijection onto [#]",
    }
