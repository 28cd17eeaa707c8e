"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  Every tolerance is exact equality of integers or reduced fractions.
"""
import itertools
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial

from oracles import (
    _match_fixpoint,
    canonical_tree_rooted,
    color_compositions,
    enumerate_valid_biddings,
    eulerian_tour_problem,
    from_cycles,
    genus,
    is_parenthesis_nebula,
    nebula_key,
    nebula_type_vector,
    to_permutations,
    transport,
    vertex_compositions,
    white_face_count,
)

from constellation_lab.biddings import (
    Bidding,
    enumerate_valid_prebiddings,
    psi,
    psi_inverse,
    sigma,
    sigma_inverse,
    vartheta,
    vartheta_inverse,
)
from constellation_lab.constellations import (
    from_permutations,
    transitive_tuples,
)
from constellation_lab.counting import (
    count_colored,
    enumerate_colored_factorizations,
    m_coefficient,
    verify_gf_identity,
    verify_jackson,
)
from constellation_lab.nebulas import (
    _bud_word,
    _match_parenthesis,
    dual_closure,
    dual_opening,
    enumerate_tree_pointed,
    verify_pointing,
)
from constellation_lab.permutations import (
    Composition,
    Permutation,
    long_cycle,
)
from constellation_lab.puzzle import (
    UndefinedProbabilityError,
    verify_exchange_lemma,
    verify_k3_inclusion_exclusion,
    verify_puzzle,
)
from constellation_lab.symmetry import swap_degree
from constellation_lab.tree_rooted import (
    enumerate_tree_rooted,
    phi,
    phi_inverse,
    xi,
)


def report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {verdict}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def feasible_types(n, k):
    for p in itertools.product(range(0, n + 1), repeat=k):
        if m_coefficient(n, p):
            yield p


def test_criterion_1_jackson_formula():
    checked = 0
    ok = True
    for k, nmax in [(2, 5), (3, 4), (4, 3)]:
        for n in range(1, nmax + 1):
            for p in itertools.product(range(1, n + 1), repeat=k):
                checked += 1
                if not verify_jackson(n, p).equal:
                    ok = False
    report(1, ok, f"Jackson formula exact on {checked} (n,k,p) cases "
                  "(k=2 n<=5, k=3 n<=4, k=4 n<=3)")


def test_criterion_2_generating_identity():
    checked = 0
    ok = True
    for k in (2, 3):
        for n in range(1, 5):
            for xs in itertools.product((1, 2, 3), repeat=k):
                checked += 1
                if not verify_gf_identity(n, k, xs).equal:
                    ok = False
    report(2, ok, f"generating identity exact at {checked} integer points "
                  "(k<=3, n<=4, x_t in {1,2,3})")


def _composition_census(n, k):
    census = defaultdict(int)
    for p in itertools.product(range(1, n + 1), repeat=k):
        for cf in enumerate_colored_factorizations(n, k, p):
            census[tuple(g.parts for g in color_compositions(cf))] += 1
    return census


def test_criterion_3_symmetry_and_refined_formula():
    checked = 0
    ok = True
    for k, nmax in [(2, 4), (3, 3)]:
        for n in range(1, nmax + 1):
            census = _composition_census(n, k)
            comps = [c.parts for c in _all_compositions(n)]
            for gammas in itertools.product(comps, repeat=k):
                checked += 1
                lengths = tuple(len(g) for g in gammas)
                closed = Fraction(
                    factorial(n) ** (k - 1)
                    * m_coefficient(n - 1, tuple(l - 1 for l in lengths)),
                    _prod(comb(n - 1, l - 1) for l in lengths),
                )
                if Fraction(census.get(gammas, 0)) != closed:
                    ok = False
            by_profile = defaultdict(set)
            for gammas in itertools.product(comps, repeat=k):
                by_profile[tuple(len(g) for g in gammas)].add(census.get(gammas, 0))
            if any(len(v) != 1 for v in by_profile.values()):
                ok = False
    report(3, ok, f"symmetry + refined closed form exact on {checked} "
                  "composition tuples (k=2 n<=4, k=3 n<=3)")


def _all_compositions(n):
    from constellation_lab.permutations import compositions_of

    return list(compositions_of(n))


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def test_criterion_4_bijection_roundtrips():
    # the maps check only their input, so every object they produce is
    # validated here; each roundtrip then compares with the validated input
    failures = 0
    checked = 0
    # phi over the full colored domain
    for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        for p in itertools.product(range(1, n + 1), repeat=k):
            cfs = list(enumerate_colored_factorizations(n, k, p))
            images = set()
            for cf in cfs:
                checked += 1
                t = phi(cf)
                tour_problem = eulerian_tour_problem(k, n, cf.colorings, xi(cf))
                if t.validate() is not None or tour_problem is not None:
                    failures += 1
                if phi_inverse(t) != cf:
                    failures += 1
                images.add(t)
            if len(images) != len(cfs):
                failures += 1
            if images != set(enumerate_tree_rooted(n, k, p)):
                failures += 1
    # swap involution and set-level image equality
    for k in (2, 3):
        for n in range(1, 4):
            sets = defaultdict(set)
            for p in itertools.product(range(1, n + 1), repeat=k):
                for t_obj in enumerate_tree_rooted(n, k, p):
                    key = tuple(g.parts for g in vertex_compositions(t_obj))
                    sets[key].add(canonical_tree_rooted(t_obj))
                    for t in range(1, k + 1):
                        for i, j in itertools.permutations(range(1, p[t - 1] + 1), 2):
                            u = t_obj.constellation.vertex_by_label(t, i)
                            if t_obj.constellation.hyperdegree(u) < 2:
                                continue
                            checked += 1
                            if swap_degree(swap_degree(t_obj, t, i, j), t, j, i) != t_obj:
                                failures += 1
            by_profile = defaultdict(list)
            for key in sets:
                by_profile[tuple(len(g) for g in key)].append(key)
            for profile, keys in by_profile.items():
                target_key = min(keys)
                target = [Composition(g) for g in target_key]
                for key in keys:
                    image = {
                        canonical_tree_rooted(transport(t_obj, target))
                        for t_obj in sets[key]
                    }
                    checked += 1
                    if image != sets[target_key]:
                        failures += 1
    # dual opening / dual closure
    for k in (2, 3):
        for n in range(1, 4):
            for tp in enumerate_tree_pointed(n, k):
                checked += 1
                nb = dual_opening(tp)
                closed = dual_closure(nb)
                if nb.validate() is not None or closed.validate() is not None:
                    failures += 1
                if closed != tp:
                    failures += 1
                if nebula_key(dual_opening(closed)) != nebula_key(nb):
                    failures += 1
    # theta, sigma, psi over all valid prebiddings
    for n, k in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        for pb in enumerate_valid_prebiddings(n, k):
            checked += 1
            ln = vartheta_inverse(pb)
            read_back = vartheta(ln)
            b = sigma(pb)
            replayed = sigma_inverse(b)
            if any(x.validate() is not None for x in (ln, read_back, b, replayed)):
                failures += 1
            if read_back != pb:
                failures += 1
            if replayed != pb:
                failures += 1
            if psi(psi_inverse(b)) != b:
                failures += 1
    report(4, failures == 0, f"bijection roundtrips: {checked} checks, {failures} failures "
                             "(phi, swap/transport, opening/closure, theta/sigma/psi)")


def test_criterion_5_cardinality_chains():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        k = 2
        nebulas_by_type = defaultdict(set)
        for tp in enumerate_tree_pointed(n, k):
            nb = dual_opening(tp)
            nebulas_by_type[nebula_type_vector(nb)].add(nebula_key(nb))
        for p, keys in nebulas_by_type.items():
            checked += 1
            union = 0
            for t in range(1, k + 1):
                bumped = tuple(x + (1 if s == t else 0) for s, x in enumerate(p, start=1))
                if all(x >= 1 for x in bumped):
                    union += count_colored(n, bumped)
            prod_fact = _prod(factorial(x) for x in p)
            if len(keys) * prod_fact != union:
                ok = False
            valid = sum(1 for _ in enumerate_valid_biddings(n, k, p))
            if valid != factorial(n) * union:
                ok = False
    report(5, ok, f"cardinality chains exact for {checked} (n, type) classes at k=2, n<=3 "
                  "(nebulas x prod p_t! = colored union; valid biddings n!-to-1)")


def test_criterion_6_pointing_correspondence():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for p in itertools.product(range(0, n + 1), repeat=2):
            checked += 1
            if not verify_pointing(n, 2, p).equal:
                ok = False
    report(6, ok, f"pointing correspondence exact on {checked} (n,p) cases (k=2, n<=3)")


def test_criterion_7_tree_puzzle():
    checked = 0
    ok = True
    for k, nmax in [(2, 6), (3, 4), (4, 3)]:
        for n in range(1, nmax + 1):
            for p in feasible_types(n, k):
                checked += 1
                if not verify_puzzle(n, k, p).equal:
                    ok = False
    report(7, ok, f"tree probability equals |R_1|=k-1 probability on {checked} "
                  "feasible types (k=2 n<=6, k=3 n<=4, k=4 n<=3)")


def test_criterion_8_k3_internals():
    checked = 0
    ok = True
    for n in range(1, 5):
        for p in feasible_types(n, 3):
            try:
                if not verify_k3_inclusion_exclusion(n, p).equal:
                    ok = False
                checked += 1
            except UndefinedProbabilityError:
                continue
            for a, b, c in itertools.permutations((1, 2, 3)):
                checked += 1
                if not verify_exchange_lemma(n, p, a, b, c).equal:
                    ok = False
    report(8, ok, f"k=3 inclusion-exclusion and exchange identities exact on "
                  f"{checked} cases (n<=4, all labelings)")


def test_criterion_9_figure_anchors():
    ok = True
    # products, white faces and genera of the two worked examples
    left = (
        from_cycles(5, [[1, 2, 5], [3, 4]]),
        from_cycles(5, [[1, 3]]),
        from_cycles(5, [[1, 4]]),
    )
    right = (
        from_cycles(5, [[1, 3, 5], [2, 4]]),
        from_cycles(5, [[1, 4], [2, 3]]),
        from_cycles(5, [[2, 4]]),
    )
    from constellation_lab.permutations import compose_all, cycle_string

    ok &= cycle_string(compose_all(list(left))) == "(1,3,2,5)(4)"
    ok &= compose_all(list(right)) == long_cycle(5)
    cl, cr = from_permutations(left), from_permutations(right)
    ok &= white_face_count(cl) == 2 and white_face_count(cr) == 1
    ok &= genus(cl) == 0 and genus(cr) == 1
    # the worked bidding: byte-equal after the canonical labelling
    bidding = Bidding(
        omegas=(
            Permutation((1, 4, 3, 2)),
            Permutation((3, 2, 1, 4)),
            Permutation((4, 1, 3, 2)),
        ),
        subsets=(
            frozenset({2}),
            frozenset({2, 3}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        ),
    )
    ln = psi_inverse(bidding)
    ok &= dict(ln.black_labels)[ln.nebula.hmap.root] == 2
    ok &= psi(ln).to_json() == bidding.to_json()
    report(9, bool(ok), "figure-level anchors exact (worked products, white faces 2/1, "
                        "genera 0/1, worked bidding byte-equal)")


def test_criterion_10_property_suites():
    failures = 0
    checked = 0
    # representation roundtrip, exhaustive n <= 4
    for n, k in [(4, 2), (4, 3)]:
        for perms in transitive_tuples(n, k):
            checked += 1
            if to_permutations(from_permutations(perms)) != perms:
                failures += 1
    # closure type preservation and scan-order independence
    for k in (2, 3):
        for n in range(1, 4):
            for tp in enumerate_tree_pointed(n, k):
                nb = dual_opening(tp)
                m = nb.hmap
                word = _bud_word(m)
                pairs = _match_parenthesis(m, word)
                checked += 1
                if any(m.type[w] != m.type[b] for w, b in pairs):
                    failures += 1
                if set(map(tuple, pairs)) != set(map(tuple, _match_fixpoint(m, word))):
                    failures += 1
    # parenthesis system iff tree-rooted
    for n in (1, 2, 3):
        for tp in enumerate_tree_pointed(n, 2):
            checked += 1
            rep = is_parenthesis_nebula(dual_opening(tp))
            if rep.is_parenthesis != (tp.arborescence.root_vertex == tp.constellation.root_vertex):
                failures += 1
    report(10, failures == 0, f"property suites: {checked} checks, {failures} "
                              "counterexamples (representation roundtrip, closure "
                              "types/order, parenthesis <=> tree-rooted)")
