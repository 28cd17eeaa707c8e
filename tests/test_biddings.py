import itertools
from dataclasses import replace
from math import factorial

import pytest
from hypothesis import given, strategies as st
from oracles import (
    canonical_labelling,
    enumerate_valid_biddings,
    labellings,
    nebula_key,
    nebula_type_vector,
    subset_type,
)

from constellation_lab.biddings import (
    Bidding,
    LabelledNebula,
    Prebidding,
    TypedGraph,
    alpha,
    alpha_graph,
    enumerate_valid_prebiddings,
    is_valid_bidding,
    psi,
    psi_inverse,
    sigma,
    sigma_inverse,
    vartheta,
    vartheta_inverse,
)
from constellation_lab.counting import m_tuples
from constellation_lab.nebulas import dual_opening, enumerate_tree_pointed
from constellation_lab.permutations import Permutation

FIG7_BIDDING = Bidding(
    omegas=(Permutation((1, 4, 3, 2)), Permutation((3, 2, 1, 4)), Permutation((4, 1, 3, 2))),
    subsets=(
        frozenset({2}),
        frozenset({2, 3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    ),
)


def test_alpha_examples():
    assert alpha(1, {1}, 3) == 3
    assert alpha(1, set(), 3) == 1
    assert alpha(1, {2, 3}, 3) == 3
    with pytest.raises(ValueError):
        alpha(1, {1, 2, 3}, 3)


@given(st.integers(2, 5), st.data())
def test_alpha_in_range(k, data):
    t = data.draw(st.integers(1, k))
    subset = data.draw(st.sets(st.integers(1, k), max_size=k - 1))
    assert 1 <= alpha(t, subset, k) <= k


def test_alpha_graph_k2_tree_iff_singleton():
    for subset in [frozenset(), frozenset({1}), frozenset({2})]:
        g = alpha_graph((1,), (subset,), 2)
        assert g.is_tree() == (len(subset) == 1)


def test_alpha_graph_fig7_edges():
    subsets = FIG7_BIDDING.subsets
    g = alpha_graph((2, 4), subsets, 3)
    assert g.edges == ((1, 2), (1, 3))
    assert g.is_tree()


def test_alpha_graph_empty_subset_gives_loop():
    g = alpha_graph((1, 1), (frozenset(),) * 2, 3)
    assert (1, 1) in g.edges
    assert not g.is_tree()


def test_is_tree_examples():
    assert TypedGraph(k=2, edges=((1, 2),)).is_tree()
    assert not TypedGraph(k=3, edges=((1, 1), (2, 3))).is_tree()
    assert not TypedGraph(k=3, edges=((1, 2), (1, 2))).is_tree()


def test_fig7_bidding_is_valid_and_roundtrips_byte_exact():
    assert is_valid_bidding(FIG7_BIDDING)
    ln = psi_inverse(FIG7_BIDDING)
    assert ln.validate() is None
    assert dict(ln.black_labels)[ln.nebula.hmap.root] == 2  # root label
    out = psi(ln)
    assert out == FIG7_BIDDING
    assert out.to_json() == FIG7_BIDDING.to_json()


def test_fig7_subsets_via_vartheta():
    ln = psi_inverse(FIG7_BIDDING)
    assert ln.label_sets() == FIG7_BIDDING.subsets


def test_trivial_k2_n1():
    pbs = list(enumerate_valid_prebiddings(1, 2))
    assert len(pbs) == 2  # R_1 = emptyset, {1} or {2}: alpha closes only for two
    for pb in pbs:
        assert len(pb.order) == 2
        b = sigma(pb)
        assert sigma_inverse(b) == pb


def test_prebidding_validity_messages():
    # successor condition broken: alpha(1, {}) = 1, not 2
    pb = Prebidding(k=2, order=((1, 1), (2, 1)), subsets=(frozenset(),))
    assert "expected type" in pb.validate()
    # greatest element must have type k
    pb = Prebidding(k=2, order=((2, 1), (1, 1)), subsets=(frozenset({1}),))
    assert "greatest" in pb.validate()
    with pytest.raises(ValueError):
        vartheta_inverse(pb)
    # an empty order has no greatest element
    pb = Prebidding(k=2, order=(), subsets=())
    assert "n >= 1" in pb.validate()
    with pytest.raises(ValueError):
        vartheta_inverse(pb)


def test_labelled_nebula_validity_messages():
    # FIG7_BIDDING is also the bidding scripts/cli_digest.py writes
    ln = psi_inverse(FIG7_BIDDING)
    assert ln.validate() is None
    (x, _), *rest = ln.white_bud_labels
    dropped = replace(ln, white_bud_labels=tuple(rest))
    assert dropped.validate() == "white bud labels do not cover exactly the white buds"
    renamed = replace(ln, white_bud_labels=((x, 99), *rest))
    assert renamed.validate() == "white bud labels of type 2 are not the black-bud labels"
    with pytest.raises(ValueError, match="of type 2"):
        psi(renamed)


def test_vartheta_roundtrip_on_openings():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            for ln in itertools.islice(labellings(nb), 4):
                pb = vartheta(ln)
                ln2 = vartheta_inverse(pb)
                assert vartheta(ln2) == pb


def test_theta_chain_meets_the_lambda_chain():
    # an opening labelled by its own numbering (black vertex v is v + 1, a white
    # bud carries its partner's label) is the object vartheta_inverse builds
    count = 0
    for n, k in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (2, 4)]:
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            m = nb.hmap
            ln = LabelledNebula(
                nebula=nb,
                black_labels=tuple((v, v + 1) for v in nb.black_vertices()),
                white_bud_labels=tuple(
                    (x, m.vertex[x - n * k] + 1) for x in m.buds if x >= n * k
                ),
            )
            got = vartheta_inverse(vartheta(ln))
            for field in ("nebula", "black_labels", "white_bud_labels"):
                assert getattr(got, field) == getattr(ln, field), field
            count += 1
    assert count == 2552


def test_roundtrips_over_all_valid_prebiddings():
    for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        count = 0
        for pb in enumerate_valid_prebiddings(n, k):
            count += 1
            assert vartheta(vartheta_inverse(pb)) == pb
            assert sigma_inverse(sigma(pb)) == pb
            b = sigma(pb)
            assert psi(psi_inverse(b)) == b
        assert count > 0


def test_every_valid_prebidding_yields_valid_nebula():
    for n in (1, 2, 3):
        for pb in enumerate_valid_prebiddings(n, 2):
            ln = vartheta_inverse(pb)
            assert ln.validate() is None
            assert nebula_type_vector(ln.nebula) == subset_type(pb.k, pb.subsets)


def test_psi_preserves_type():
    for pb in enumerate_valid_prebiddings(2, 3):
        ln = vartheta_inverse(pb)
        b = psi(ln)
        assert subset_type(b.k, b.subsets) == nebula_type_vector(ln.nebula)


def test_valid_bidding_count_identity():
    # valid biddings = n! * prod(p_t!) * rooted nebulas of that type
    for n in (1, 2, 3):
        k = 2
        nebulas_by_type = {}
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            nebulas_by_type.setdefault(nebula_type_vector(nb), set()).add(nebula_key(nb))
        for p, keys in nebulas_by_type.items():
            expect = len(keys) * factorial(n)
            for pt in p:
                expect *= factorial(pt)
            got = sum(1 for _ in enumerate_valid_biddings(n, k, p))
            assert got == expect


def test_order_components_count_by_subsets():
    # for fixed subsets, valid orders = Eulerian tours from vertex k
    n, k = 2, 3
    for mt in m_tuples(n, k):
        orders = sum(
            1 for pb in enumerate_valid_prebiddings(n, k) if pb.subsets == mt.subsets
        )
        biddings_count = sum(
            1 for b in enumerate_valid_biddings(n, k) if b.subsets == mt.subsets
        )
        assert orders == biddings_count


def test_labellings_count():
    tp = next(iter(enumerate_tree_pointed(2, 2)))
    nb = dual_opening(tp)
    p = nebula_type_vector(nb)
    expect = factorial(2)
    for pt in p:
        expect *= factorial(pt)
    assert sum(1 for _ in labellings(nb)) == expect


def test_canonical_labelling_is_deterministic():
    for tp in itertools.islice(enumerate_tree_pointed(3, 2), 20):
        nb = dual_opening(tp)
        assert canonical_labelling(nb).validate() is None
        assert nebula_key(nb) == nebula_key(nb)


def test_sigma_inverse_rejects_invalid_bidding():
    # omega choices whose last-appearance graph is a self-loop
    b = Bidding(
        omegas=(Permutation((1, 2)), Permutation((1, 2))),
        subsets=(frozenset(), frozenset()),
    )
    assert not is_valid_bidding(b)
    with pytest.raises(ValueError, match="invalid bidding"):
        sigma_inverse(b)


def test_sigma_inverse_rejects_out_of_range_subset():
    # the tree condition reads only R_2 and R_4, so the bad R_1 passes it
    b = Bidding(omegas=FIG7_BIDDING.omegas, subsets=(frozenset({2, 7}),) + FIG7_BIDDING.subsets[1:])
    assert is_valid_bidding(b)
    with pytest.raises(ValueError, match="strict subsets"):
        sigma_inverse(b)


def test_bidding_json_roundtrip():
    assert Bidding.from_json(FIG7_BIDDING.to_json()) == FIG7_BIDDING
    ln = psi_inverse(FIG7_BIDDING)
    ln2 = LabelledNebula.from_json(ln.to_json())
    assert vartheta(ln2) == vartheta(ln)
