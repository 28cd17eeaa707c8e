"""One size contract for (n, k, p) at every public entry point.

Three domains: the bijection chain needs n >= 1 and k >= 2, with color
counts at least 1 and type vectors at least 0; the M-coefficients and
subset tuples need n >= 0, k >= 1 and p >= 0; the puzzle needs n >= 1,
k >= 1 and p >= 0.  Each bad argument is a ValueError with the one message
of its class, raised before any object is built or any value returned: never
an IndexError, a leaked factorial() message, an empty stream or a vacuous
value.  ``m_coefficient`` stays total in n and the entries of p (see
``test_counting``).
"""
import pytest

from constellation_lab.biddings import enumerate_valid_prebiddings
from constellation_lab.constellations import enumerate_rooted_constellations
from constellation_lab.counting import (
    count_colored,
    cycle_type_census,
    enumerate_colored_factorizations,
    enumerate_factorizations,
    m_tuples,
    verify_gf_identity,
    verify_jackson,
)
from constellation_lab.nebulas import enumerate_tree_pointed, verify_pointing
from constellation_lab.puzzle import (
    event_probability,
    r1_probability,
    sample_puzzle,
    tree_probability,
    verify_puzzle,
)
from constellation_lab.tree_rooted import enumerate_tree_rooted

CHAIN, M_DOMAIN, PUZZLE = (1, 2), (0, 1), (1, 1)  # (n_min, k_min)

# name -> (call(n, k, p), (n_min, k_min), p_min); p_min is None when the
# entry takes no p, and "k" when k is read off len(p); streams are drained
ENTRIES = {
    "enumerate_factorizations": (lambda n, k, p: list(enumerate_factorizations(n, k)), CHAIN, None),
    "cycle_type_census": (lambda n, k, p: cycle_type_census(n, k), CHAIN, None),
    "enumerate_colored_factorizations": (
        lambda n, k, p: list(enumerate_colored_factorizations(n, k, p)), CHAIN, 1),
    "count_colored": (lambda n, k, p: count_colored(n, p), CHAIN, "k"),
    "verify_jackson": (lambda n, k, p: verify_jackson(n, p), CHAIN, "k"),
    "verify_gf_identity": (lambda n, k, p: verify_gf_identity(n, k, (1,) * k), CHAIN, None),
    "enumerate_rooted_constellations": (
        lambda n, k, p: enumerate_rooted_constellations(n, k, p), CHAIN, 0),
    "enumerate_tree_rooted": (lambda n, k, p: list(enumerate_tree_rooted(n, k, p)), CHAIN, 1),
    "enumerate_tree_pointed": (lambda n, k, p: list(enumerate_tree_pointed(n, k)), CHAIN, None),
    "verify_pointing": (lambda n, k, p: verify_pointing(n, k, p), CHAIN, 0),
    "enumerate_valid_prebiddings": (
        lambda n, k, p: list(enumerate_valid_prebiddings(n, k, p)), CHAIN, 0),
    "m_tuples": (lambda n, k, p: list(m_tuples(n, k, p)), M_DOMAIN, 0),
    "tree_probability": (lambda n, k, p: tree_probability(n, k, p), PUZZLE, 0),
    "r1_probability": (lambda n, k, p: r1_probability(n, k, p), PUZZLE, 0),
    "verify_puzzle": (lambda n, k, p: verify_puzzle(n, k, p), PUZZLE, 0),
    "event_probability": (lambda n, k, p: event_probability([], n, k, p), PUZZLE, 0),
    "sample_puzzle": (lambda n, k, p: sample_puzzle(n, k, p, trials=100, seed=0), PUZZLE, 0),
}


def _cases():
    """(entry, class, (n, k, p), message): each bad class applied to the
    valid arguments (2, 2, (1, 1)) of every entry it applies to."""
    for name, (_, (n_min, k_min), p_min) in ENTRIES.items():
        cases = {
            "n=-1": ((-1, 2, (1, 1)), f"n must be at least {n_min}, got -1"),
            "k=0": ((2, 0, ()), f"k must be at least {k_min}, got 0"),
        }
        if n_min == 1:
            cases["n=0"] = ((0, 2, (1, 1)), "n must be at least 1, got 0")
        if k_min == 2:
            cases["k=1"] = ((2, 1, (1,)), "k must be at least 2, got 1")
        if isinstance(p_min, int):
            cases["p too long"] = ((2, 2, (1, 1, 1)), "p must have length 2, got 3")
            cases["p too short"] = ((2, 2, (1,)), "p must have length 2, got 1")
        if p_min is not None:
            least = 1 if p_min in (1, "k") else 0
            cases["negative entry"] = (
                (2, 2, (1, -1)), f"entries of p must be at least {least}, got (1, -1)")
            if least == 1:
                cases["zero color count"] = (
                    (2, 2, (1, 0)), "entries of p must be at least 1, got (1, 0)")
        for case, (args, message) in cases.items():
            yield pytest.param(name, args, message, id=f"{name}-{case}")


@pytest.mark.parametrize("name, args, message", _cases())
def test_bad_size_class(name, args, message):
    call = ENTRIES[name][0]
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


def test_valid_arguments_pass_the_contract():
    # the base arguments of the table are valid everywhere, so each bad
    # class above is the only thing wrong with its case
    for call, _, _ in ENTRIES.values():
        call(2, 2, (1, 1))
