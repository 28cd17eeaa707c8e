"""Each map of the bijection chain validates its input and nothing else.

The maps do not re-check what they produce, so these tests do: every output
validates on seeded random objects past the exhaustive range (n = 5..7,
k = 3), and one roundtrip per bijection validates each object it enters
with once.  A composite map validates only at its boundary: psi and
psi_inverse call the guard-free cores of sigma and vartheta_inverse, and
phi_inverse decodes the tour it replays with the private _xi_inverse, so
the intermediates they build are not checked again, while the public maps
keep their guards.
"""
import random
from collections import Counter
from dataclasses import replace

import pytest
from oracles import eulerian_tour_problem, random_colored_factorization, random_permutation

from constellation_lab import constellations
from constellation_lab import biddings, tree_rooted
from constellation_lab.biddings import (
    Bidding,
    LabelledNebula,
    Prebidding,
    is_valid_bidding,
    psi,
    psi_inverse,
    sigma,
    sigma_inverse,
    vartheta,
    vartheta_inverse,
)
from constellation_lab.counting import ColoredFactorization, strict_subsets
from constellation_lab.nebulas import (
    Nebula,
    TreePointedConstellation,
    dual_closure,
    dual_opening,
)
from constellation_lab.tree_rooted import TreeRootedConstellation, phi, phi_inverse, xi


def random_valid_bidding(rng, n, k):
    """Uniform strict subsets and omegas, kept when the last-appearance graph
    is a tree."""
    strict = strict_subsets(k)
    while True:
        b = Bidding(
            omegas=tuple(random_permutation(rng, n) for _ in range(k)),
            subsets=tuple(rng.choice(strict) for _ in range(n)),
        )
        if is_valid_bidding(b):
            return b


def test_map_outputs_validate_past_exhaustive_range():
    rng = random.Random(2011)
    for n in (5, 6, 7):
        for _ in range(6):
            cf = random_colored_factorization(rng, n, 3)
            assert cf.validate() is None
            arcs = xi(cf)
            assert eulerian_tour_problem(cf.k, cf.n, cf.colorings, arcs) is None
            assert tree_rooted._xi_inverse(arcs, cf.colorings) == cf
            t = phi(cf)
            assert t.validate() is None
            assert phi_inverse(t) == cf

            b = random_valid_bidding(rng, n, 3)
            pb = sigma_inverse(b)
            assert pb.validate() is None
            ln = vartheta_inverse(pb)
            assert ln.validate() is None
            assert vartheta(ln).validate() is None
            assert sigma(pb).validate() is None

            # tree-rooted (from phi) and tree-pointed (from a bidding's nebula)
            closed = dual_closure(ln.nebula)
            for tp in (TreePointedConstellation(t.constellation, t.arborescence), closed):
                assert tp.validate() is None
                nb = dual_opening(tp)
                assert nb.validate() is None
                assert dual_closure(nb).validate() is None


@pytest.fixture
def validity_calls(monkeypatch):
    """Counts calls of ``validate`` per class, for the classes passed in."""
    calls = Counter()

    def watch(*classes):
        for cls in classes:
            def counted(self, _original=cls.validate, _name=cls.__name__):
                calls[_name] += 1
                return _original(self)

            monkeypatch.setattr(cls, "validate", counted)
        return calls

    return watch


def test_psi_roundtrip_validates_each_object_once(validity_calls):
    b = random_valid_bidding(random.Random(3), 4, 3)
    calls = validity_calls(Bidding, Prebidding, LabelledNebula)
    assert psi(psi_inverse(b)) == b
    # b and the nebula; the prebiddings inside psi_inverse and psi are not checked
    assert calls == Counter({"Bidding": 1, "Prebidding": 0, "LabelledNebula": 1})


def test_phi_roundtrip_validates_each_object_once(validity_calls):
    cf = random_colored_factorization(random.Random(4), 4, 3)
    calls = validity_calls(ColoredFactorization, TreeRootedConstellation)
    assert phi_inverse(phi(cf)) == cf
    # cf and the tree-rooted image; the tour phi_inverse replays is plain
    # arcs, which nothing checks
    assert calls == Counter({"ColoredFactorization": 1, "TreeRootedConstellation": 1})


def test_public_maps_keep_their_input_guards():
    """sigma and vartheta_inverse reject a bad input with its validity
    message; their cores, which composites call, do not check."""
    pb = sigma_inverse(random_valid_bidding(random.Random(7), 4, 3))
    bad_pb = replace(pb, subsets=(frozenset({1, 2, 3}),) + pb.subsets[1:])
    assert bad_pb.validate() == "subsets must be strict subsets of [k]"
    for guarded in (sigma, vartheta_inverse):
        with pytest.raises(ValueError, match=r"^subsets must be strict subsets of \[k\]$"):
            guarded(bad_pb)
    assert biddings._sigma(pb) == sigma(pb)
    assert biddings._vartheta_inverse(pb) == vartheta_inverse(pb)


def test_lambda_roundtrip_validates_each_object_once(validity_calls, monkeypatch):
    t = phi(random_colored_factorization(random.Random(5), 4, 3))
    tp = TreePointedConstellation(t.constellation, t.arborescence)
    calls = validity_calls(TreePointedConstellation, Nebula)

    def counted(c, _original=constellations.validate):
        calls["validate"] += 1
        return _original(c)

    monkeypatch.setattr(constellations, "validate", counted)
    dual_closure(dual_opening(tp))
    # the constellation is checked once, by the opening's input guard; the
    # closure rebuilds it without checking it again
    assert calls == {"TreePointedConstellation": 1, "Nebula": 1, "validate": 1}
