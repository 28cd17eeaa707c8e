import itertools
import random
from dataclasses import replace

import pytest
from oracles import (
    arborescences_by_product,
    bfs_hyperedge_relabelling,
    bfs_hyperedge_relabelling_naive,
    canonical_rooted,
    dual_by_face_orbits,
    from_cycles,
    genus,
    identity,
    product_of,
    relabel_arborescence,
    relabel_hyperedges,
    rooted_constellations_by_filter,
    rooted_constellations_naive,
    to_permutations,
    white_face_count,
)

from constellation_lab.cli import main
from constellation_lab.counting import CapExceededError
from constellation_lab.nebulas import _pointing_census
from constellation_lab.constellations import (
    Arborescence,
    Constellation,
    _from_rotations,
    _rooted_by_type,
    _rooted_constellations,
    arborescences_toward,
    constellation_from_dual,
    constellation_to_dot,
    dual,
    enumerate_rooted_constellations,
    from_permutations,
    halfedge_to_dot,
    is_transitive,
    transitive_tuples,
    validate,
    validate_arborescence,
)
from constellation_lab.permutations import (
    Permutation,
    all_permutations,
    cycles,
    long_cycle,
)


def fig2_left():
    return (
        from_cycles(5, [[1, 2, 5], [3, 4]]),
        from_cycles(5, [[1, 3]]),
        from_cycles(5, [[1, 4]]),
    )


def fig2_right():
    return (
        from_cycles(5, [[1, 3, 5], [2, 4]]),
        from_cycles(5, [[1, 4], [2, 3]]),
        from_cycles(5, [[2, 4]]),
    )


def test_from_permutations_fig2_left():
    c = from_permutations(fig2_left())
    assert c.n == 5 and c.num_vertices == 10
    assert validate(c) is None


def test_single_hyperedge_k2():
    c = from_permutations((identity(1), identity(1)))
    assert c.n == 1 and c.num_vertices == 2
    assert all(len(r) == 1 for r in c.rotation)
    assert to_permutations(c) == (identity(1), identity(1))
    assert white_face_count(c) == 1
    assert genus(c) == 0


def test_to_permutations_fig2_right():
    perms = fig2_right()
    c = from_permutations(perms)
    assert to_permutations(c) == perms


def test_representation_roundtrip_exhaustive():
    # all transitive tuples at n <= 4, k = 3 (and k = 2 at n <= 4)
    for n, k in [(3, 3), (4, 3), (4, 2)]:
        for perms in transitive_tuples(n, k):
            assert to_permutations(from_permutations(perms)) == perms


def test_from_permutations_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        from_permutations((identity(2), identity(2)))


def test_representation_roundtrip_random_triples_n5():
    # free pi_2, pi_3 with pi_1 solved from the long cycle are transitive
    import random

    from constellation_lab.permutations import compose, compose_all, inverse

    rng = random.Random(123)
    for _ in range(40):
        p2 = Permutation(tuple(rng.sample(range(1, 6), 5)))
        p3 = Permutation(tuple(rng.sample(range(1, 6), 5)))
        p1 = compose(long_cycle(5), inverse(compose(p2, p3)))
        perms = (p1, p2, p3)
        assert to_permutations(from_permutations(perms)) == perms


def test_white_face_counts_fig2():
    assert white_face_count(from_permutations(fig2_left())) == 2
    assert white_face_count(from_permutations(fig2_right())) == 1


def test_genus_fig2():
    assert genus(from_permutations(fig2_left())) == 0
    assert genus(from_permutations(fig2_right())) == 1


# every transitive tuple is visited at these sizes
RELABEL_GRID = [(n, k) for k, n_max in ((2, 4), (3, 3), (4, 2)) for n in range(1, n_max + 1)]


def test_white_faces_match_product_cycles():
    for n, k in RELABEL_GRID:
        for perms in transitive_tuples(n, k):
            c = from_permutations(perms)
            assert white_face_count(c) == len(cycles(product_of(c)))


def test_euler_relation_shape():
    for perms in transitive_tuples(3, 2):
        c = from_permutations(perms)
        e = c.n * c.k
        f = c.n + white_face_count(c)
        chi = c.num_vertices - e + f
        assert chi % 2 == 0 and chi <= 2


def test_dual_single_hyperedge_k3():
    c = from_permutations((identity(1),) * 3)
    d = dual(c, ())
    assert d.validate() is None
    blacks = [v for v in range(d.num_vertices) if d.vertex_color[v] == "black"]
    assert len(blacks) == 1
    assert d.vertex.count(blacks[0]) == 3


def test_dual_rejects_a_cut_edge_outside_the_constellation():
    c = from_permutations((identity(1),) * 3)
    for e in [(2, 1), (1, 0), (0, 3), (1, 4)]:
        with pytest.raises(ValueError, match=r"slot .* is not in \[1\] x \[3\]"):
            dual(c, [e])


def test_dual_preserves_genus_and_inverts():
    rng = random.Random(5)
    for n, k in RELABEL_GRID:
        for perms in transitive_tuples(n, k):
            rooted = from_permutations(perms, root=rng.randint(1, n))
            for c in (rooted, replace(rooted, root=None)):
                d = dual(c, ())
                assert d.validate() is None
                # Euler's relation with the white faces read off the product
                white = len(cycles(product_of(c)))
                assert 2 - 2 * genus(c) == c.num_vertices - n * k + n + white
                c2, _, _ = constellation_from_dual(d)
                assert c2 == c
                assert validate(c2) is None


def test_dual_matches_the_face_orbit_construction():
    # field for field, so the white vertex numbering is pinned too
    rng = random.Random(11)
    cs = []
    for n, k in RELABEL_GRID:
        for perms in transitive_tuples(n, k):
            rooted = from_permutations(perms, root=rng.randint(1, n))
            cs += [rooted, replace(rooted, root=None)]
    for n, k in [(8, 3), (10, 4), (12, 3), (9, 4)]:
        drawn = 0
        while drawn < 15:
            perms = [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(k)]
            if is_transitive(perms):
                cs.append(from_permutations(perms, root=rng.randint(1, n)))
                drawn += 1
    for c in cs:
        got, want = dual(c, ()), dual_by_face_orbits(c)
        for field in ("vertex", "nxt", "twin", "type", "vertex_color", "root"):
            assert getattr(got, field) == getattr(want, field), field


def relabel_by_permutations(c, s):
    """Reference relabelling: conjugate the representation by s, rebuild the
    constellation, and find each vertex again by its type and hyperedge set."""
    images = []
    for p in to_permutations(c):
        img = [0] * c.n
        for x in range(1, c.n + 1):
            img[s[x] - 1] = s[p(x)]
        images.append(Permutation(tuple(img)))
    new_c = from_permutations(images, root=None if c.root is None else s[c.root])
    lookup = {
        (new_c.vertex_type[v - 1], frozenset(new_c.rotation[v - 1])): v
        for v in range(1, new_c.num_vertices + 1)
    }
    vmap = {
        v: lookup[(c.vertex_type[v - 1], frozenset(s[h] for h in c.rotation[v - 1]))]
        for v in range(1, c.num_vertices + 1)
    }

    def moved(values):
        if values is None:
            return None
        out = [0] * c.num_vertices
        for v in range(1, c.num_vertices + 1):
            out[vmap[v] - 1] = values[v - 1]
        return tuple(out)

    return replace(new_c, labels=moved(c.labels), colors=moved(c.colors)), vmap


def random_decorations(rng, c):
    """Per type, bijective labels and surjective colors, both seeded."""
    labels = [0] * c.num_vertices
    colors = [0] * c.num_vertices
    for t in range(1, c.k + 1):
        vs = c.vertices_of_type(t)
        ids = list(range(1, len(vs) + 1))
        rng.shuffle(ids)
        m = rng.randint(1, len(vs))
        cols = list(range(1, m + 1)) + [rng.randint(1, m) for _ in range(len(vs) - m)]
        rng.shuffle(cols)
        for v, i, col in zip(vs, ids, cols):
            labels[v - 1] = i
            colors[v - 1] = col
    return replace(c, labels=tuple(labels), colors=tuple(colors))


def test_relabel_hyperedges_matches_the_permutation_route():
    rng = random.Random(11)
    for n, k in RELABEL_GRID:
        for perms in transitive_tuples(n, k):
            c = random_decorations(rng, from_permutations(perms, root=rng.randint(1, n)))
            assert validate(c) is None
            images = list(range(1, n + 1))
            rng.shuffle(images)
            s = dict(zip(range(1, n + 1), images))
            got = relabel_hyperedges(c, s)
            assert got == relabel_by_permutations(c, s)
            assert validate(got[0]) is None
            bare = replace(c, root=None, labels=None, colors=None)
            assert relabel_hyperedges(bare, s) == relabel_by_permutations(bare, s)


@pytest.mark.parametrize("s", [{1: 1, 2: 1, 3: 2}, {1: 1, 2: 2, 3: 4}, {1: 2, 2: 3}])
def test_relabel_hyperedges_rejects_a_non_bijection(s):
    c = from_permutations((long_cycle(3), identity(3)), root=1)
    with pytest.raises(ValueError):
        relabel_hyperedges(c, s)


def test_validate_reports_violations():
    c = from_permutations(fig2_left())
    assert validate(c) is None
    broken = Constellation(
        k=c.k,
        n=c.n,
        hyperedges=c.hyperedges,
        vertex_type=c.vertex_type,
        rotation=(c.rotation[0][:-1],) + c.rotation[1:],
        root=None,
    )
    assert "rotation" in validate(broken)


def test_validate_disconnected():
    # two separate hyperedges: rotations are fine but the action is not transitive
    broken = Constellation(
        k=2,
        n=2,
        hyperedges=((1, 3), (2, 4)),
        vertex_type=(1, 1, 2, 2),
        rotation=((1,), (2,), (1,), (2,)),
    )
    assert validate(broken) == "not transitive"


@pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_validate_connectivity_agrees_with_transitivity(n, k):
    # every k-tuple, transitive or not, read as rotations without the
    # transitivity check of from_permutations
    for perms in itertools.product(all_permutations(n), repeat=k):
        verts = [(t, cyc[::-1]) for t, p in enumerate(perms, start=1) for cyc in cycles(p)]
        c, _ = _from_rotations(k, n, verts, None)
        transitive = is_transitive(perms)
        assert validate(c) == (None if transitive else "not transitive"), perms


@pytest.mark.parametrize(
    "parent, problem",
    [
        # 1 -> 3 -> 1: a 2-cycle through vertex 1; vertex 2 points at the root
        (((1, 1), (3, 1), (1, 2), None), "parent edges cycle at vertex 1"),
        # 1 -> 3 -> 2 -> 3: vertex 1 reaches the 2-cycle through vertex 3
        (((1, 1), (2, 1), (2, 2), None), "parent edges cycle at vertex 1"),
        # 1 -> 3 -> 2 -> 4: a spanning tree toward the root 4
        (((1, 1), (3, 1), (2, 2), None), None),
    ],
)
def test_validate_arborescence_finds_parent_edge_cycles(parent, problem):
    # k=2, n=3: type-1 vertices 1 on h1 and 2 on h2, h3; type-2 vertices
    # 3 on h1, h2 and 4 on h3
    c, _ = _from_rotations(2, 3, [(1, (1,)), (1, (2, 3)), (2, (1, 2)), (2, (3,))], None)
    assert validate(c) is None
    a = Arborescence(root_vertex=4, parent_edge=parent)
    assert validate_arborescence(c, a) == problem


def test_validate_arborescence_names_the_vertex_own_type():
    # one hyperedge: vertex 1 of type 1 is the only vertex of its type, so
    # the type of any other vertex differs from its own
    c, _ = _from_rotations(2, 1, [(1, (1,)), (2, (1,))], None)
    assert validate_arborescence(c, Arborescence(2, ((1, 1), None))) is None
    a = Arborescence(root_vertex=2, parent_edge=((1, 2), None))
    assert validate_arborescence(c, a) == "parent edge of vertex 1 has type 2, vertex has type 1"


def test_halfedge_map_root_is_one_of_its_vertices():
    m = dual(from_permutations(fig2_left()), ())
    last = m.num_vertices - 1
    assert replace(m, root=last).validate() is None
    for root in (last + 1, -1):
        assert replace(m, root=root).validate() == "root is not a vertex"


def test_is_transitive():
    assert is_transitive((long_cycle(4), identity(4)))
    assert not is_transitive((identity(3), identity(3)))


def test_json_roundtrip():
    c = from_permutations(fig2_left(), root=2)
    assert Constellation.from_json(c.to_json()) == c


def test_canonical_rooted_is_idempotent_and_label_free():
    rng = random.Random(5)
    for perms in itertools.islice(transitive_tuples(3, 2), 40):
        c = from_permutations(perms, root=1)
        canon, no_arb = canonical_rooted(c)
        assert canon.root == 1 and no_arb is None
        again, _ = canonical_rooted(canon)
        assert again == canon
        # vertex labels ride along and do not change the labelling
        labels = tuple(
            c.vertices_of_type(t)[::-1].index(v) + 1 for v, t in enumerate(c.vertex_type, start=1)
        )
        labelled, _ = canonical_rooted(replace(c, labels=labels))
        assert validate(labelled) is None and replace(labelled, labels=None) == canon
        # an arborescence is carried along and does not change the labelling;
        # nor do the hyperedge labels it was given under
        images = list(range(1, c.n + 1))
        rng.shuffle(images)
        s = dict(zip(range(1, c.n + 1), images))
        shuffled, vmap = relabel_hyperedges(c, s)
        for v0 in range(1, c.num_vertices + 1):
            for a in arborescences_toward(c, v0):
                got_c, got_a = canonical_rooted(c, a)
                assert got_c == canon
                assert validate_arborescence(got_c, got_a) is None
                assert canonical_rooted(got_c, got_a) == (got_c, got_a)
                moved = relabel_arborescence(a, s, vmap)
                assert canonical_rooted(shuffled, moved) == (got_c, got_a)


def random_transitive_tuple(rng, n, k):
    while True:
        perms = tuple(Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(k))
        if is_transitive(perms):
            return perms


def test_bfs_relabelling_matches_the_rescanning_walk():
    # every hyperedge-labelled constellation of the grid, rooted at every
    # hyperedge, then random ones past it
    rng = random.Random(20)
    tuples = [perms for n, k in RELABEL_GRID for perms in transitive_tuples(n, k)]
    tuples += [
        random_transitive_tuple(rng, n, k) for n in range(5, 13) for k in (2, 3, 4) for _ in range(3)
    ]
    for perms in tuples:
        for root in range(1, perms[0].n + 1):
            c = from_permutations(perms, root=root)
            got = bfs_hyperedge_relabelling(c)
            expected = bfs_hyperedge_relabelling_naive(c)
            assert list(got.items()) == list(expected.items()), (perms, root)


def test_arborescence_enumeration_smoke():
    c = from_permutations((long_cycle(2), identity(2)), root=1)
    v0 = c.root_vertex
    arbs = list(arborescences_toward(c, v0))
    assert arbs and all(a.root_vertex == v0 for a in arbs)


def test_rooted_constellation_count_matches_quotient():
    # rooted objects = labelled objects * n / n!
    for n, k in [(2, 2), (3, 2)]:
        labelled = sum(1 for _ in transitive_tuples(n, k))
        rooted = len(enumerate_rooted_constellations(n, k))
        import math

        assert rooted * math.factorial(n - 1) == labelled


# the criterion grid of the rooted domain: k = 2 to n = 5, k = 3 to n = 4, k = 4 to n = 3
ROOTED_GRID = [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)] + [
    (n, 4) for n in range(1, 4)
]


@pytest.mark.parametrize("n, k", ROOTED_GRID)
def test_rooted_constellations_match_a_fresh_walk_per_type(n, k):
    # the generated domain is both walks over all n!^k tuples, object for
    # object and in order, and so is each of its type groups
    naive = rooted_constellations_naive(n, k)
    assert enumerate_rooted_constellations(n, k) == naive == rooted_constellations_by_filter(n, k)
    assert sorted(_rooted_by_type(n, k)) == sorted({c.type_vector() for c in naive})
    for tv in itertools.product(range(n + 2), repeat=k):
        expected = [c for c in naive if c.type_vector() == tv]
        assert enumerate_rooted_constellations(n, k, tv) == expected, tv
        # a list type vector filters like the tuple (it once matched nothing)
        assert enumerate_rooted_constellations(n, k, list(tv)) == expected, tv


def test_rooted_constellations_are_walked_once_per_size(capsys):
    _rooted_constellations.cache_clear()
    _pointing_census.cache_clear()
    try:
        assert main(["pointing-check", "--n", "3", "--k", "2"]) == 0
        info = _rooted_constellations.cache_info()
        # one walk of the domain, then one pointing census read for every type
        assert info.misses == 1 and _pointing_census.cache_info().hits > 0
        # the memos are keyed by (n, k); a smaller cap is still refused
        assert main(["--cap", "35", "pointing-check", "--n", "3", "--k", "2"]) == 3
        assert "exceeds cap 35" in capsys.readouterr().err
        assert _rooted_constellations.cache_info().currsize == 1
    finally:
        _rooted_constellations.cache_clear()
        _pointing_census.cache_clear()


def test_rooted_constellations_check_the_cap_before_the_walk(monkeypatch):
    def no_walk(n, k):
        raise AssertionError("the walk started")

    monkeypatch.setattr("constellation_lab.constellations._rooted_walk", no_walk)
    _rooted_constellations.cache_clear()
    _rooted_by_type.cache_clear()
    try:
        for p in (None, (2, 2)):
            with pytest.raises(CapExceededError, match="enumeration of 36 tuples exceeds cap 35"):
                enumerate_rooted_constellations(3, 2, p, cap=35)
            # within the cap the patched walk is reached, so the check above
            # is what stopped it
            with pytest.raises(AssertionError, match="the walk started"):
                enumerate_rooted_constellations(3, 2, p, cap=36)
    finally:
        _rooted_constellations.cache_clear()
        _rooted_by_type.cache_clear()


@pytest.mark.parametrize("n, k", ROOTED_GRID)
def test_arborescences_equal_the_product_filter_in_order(n, k):
    for c in _rooted_constellations(n, k):
        for v0 in range(1, c.num_vertices + 1):
            assert list(arborescences_toward(c, v0)) == list(arborescences_by_product(c, v0))


def test_rooted_constellations_returns_a_fresh_list():
    first = enumerate_rooted_constellations(3, 2)
    expected = list(first)
    first.clear()
    assert enumerate_rooted_constellations(3, 2) == expected
    typed = enumerate_rooted_constellations(3, 2, (2, 2))
    expected_typed = list(typed)
    typed.append(None)
    assert enumerate_rooted_constellations(3, 2, (2, 2)) == expected_typed


def test_dot_output_is_stable():
    c = from_permutations(fig2_left(), root=1)
    assert constellation_to_dot(c) == constellation_to_dot(c)
    assert constellation_to_dot(c).startswith("graph constellation {")
    assert halfedge_to_dot(dual(c, ())).startswith("graph halfedgemap {")
    # each vertex line names its own label and fill color: labels count down
    # within a type, and each vertex is colored by its label
    labels = tuple(
        c.vertices_of_type(t)[::-1].index(v) + 1 for v, t in enumerate(c.vertex_type, start=1)
    )
    decorated = replace(c, labels=labels, colors=labels)
    assert validate(decorated) is None
    lines = constellation_to_dot(decorated).splitlines()
    for v, (t, lab) in enumerate(zip(c.vertex_type, labels), start=1):
        (line,) = [x for x in lines if x.startswith(f"  v{v} [")]
        assert f'label="t{t} #{lab}"' in line and line.endswith(f" fillcolor={lab}];"), line


def test_vertex_colors_validated_and_serialized():
    from dataclasses import replace

    c = from_permutations(fig2_left(), root=1)
    # surjective coloring per type: color every vertex 1, one type-2 vertex 2
    colors = [1] * c.num_vertices
    colors[c.vertices_of_type(2)[1] - 1] = 2
    colored = replace(c, colors=tuple(colors))
    assert validate(colored) is None
    assert Constellation.from_json(colored.to_json()) == colored
    assert "fillcolor" in constellation_to_dot(colored)
    gap = [1] * c.num_vertices
    gap[c.vertices_of_type(2)[1] - 1] = 3  # color 2 skipped
    assert "surjective" in validate(replace(c, colors=tuple(gap)))
