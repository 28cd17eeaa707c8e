"""Exact combinatorics of long-cycle factorizations into k permutation factors.

Verified bijection chain: colored cacti <-> tree-rooted constellations
<-> (via pointing and dual opening) nebulas <-> valid biddings, together
with the counting formulas they prove, all checkable exhaustively at
small sizes.

Importing the package runs none of its modules: each submodule, and each
name below, is loaded when it is first read (PEP 562), so a command line
that needs only the counting layer never compiles the bijection chain.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "permutations": (
        "Composition", "Permutation", "compose", "cycle_type", "cycles", "inverse",
        "long_cycle",
    ),
    "constellations": ("Arborescence", "Constellation", "dual", "from_permutations", "validate"),
    "halfedges": (),
    "counting": (
        "CapExceededError", "CheckReport", "ColoredFactorization", "MTuple",
        "count_by_color_compositions", "count_colored", "count_kappa", "cycle_type_census",
        "enumerate_factorizations", "m_coefficient", "m_tuples", "verify_gf_identity",
        "verify_jackson", "verify_mv_formula",
    ),
    "tree_rooted": (
        "TreeRootedConstellation", "best_compose", "best_decompose", "phi", "phi_inverse", "xi",
    ),
    "symmetry": ("swap_degree",),
    "nebulas": (
        "Nebula", "TreePointedConstellation", "closure", "dual_closure", "dual_opening",
        "verify_pointing",
    ),
    "biddings": (
        "Bidding", "LabelledNebula", "Prebidding", "TypedGraph", "alpha", "alpha_graph",
        "is_valid_bidding", "psi", "psi_inverse", "sigma", "sigma_inverse", "vartheta",
        "vartheta_inverse",
    ),
    "puzzle": (
        "event_probability", "r1_probability", "sample_puzzle", "tree_probability",
        "verify_exchange_lemma", "verify_k3_inclusion_exclusion", "verify_puzzle",
    ),
    "cli": (),
}
# each submodule's name, and each exported name, -> its submodule
_TABLE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = list(_TABLE)


def __getattr__(name: str):
    if name not in _TABLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_TABLE[name]}")
    # a submodule's import binds it here; an exported name is read from its
    # module on each access, so a patched or traced function is the one seen
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_TABLE})
