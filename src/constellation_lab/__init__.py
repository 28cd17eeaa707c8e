"""Exact combinatorics of long-cycle factorizations into k permutation factors.

Verified bijection chain: colored cacti <-> tree-rooted constellations
<-> (via pointing and dual opening) nebulas <-> valid biddings, together
with the counting formulas they prove, all checkable exhaustively at
small sizes.
"""

from .permutations import (
    Composition,
    Permutation,
    compose,
    cycle_type,
    cycles,
    inverse,
    long_cycle,
)
from .constellations import (
    Arborescence,
    Constellation,
    dual,
    from_permutations,
    validate,
)
from .counting import (
    CapExceededError,
    CheckReport,
    ColoredFactorization,
    MTuple,
    count_by_color_compositions,
    count_colored,
    count_kappa,
    cycle_type_census,
    enumerate_factorizations,
    m_coefficient,
    m_tuples,
    verify_gf_identity,
    verify_jackson,
    verify_mv_formula,
)
from .tree_rooted import (
    TreeRootedConstellation,
    best_compose,
    best_decompose,
    phi,
    phi_inverse,
    xi,
)
from .symmetry import swap_degree
from .nebulas import (
    Nebula,
    TreePointedConstellation,
    closure,
    dual_closure,
    dual_opening,
    verify_pointing,
)
from .biddings import (
    Bidding,
    LabelledNebula,
    Prebidding,
    TypedGraph,
    alpha,
    alpha_graph,
    is_valid_bidding,
    psi,
    psi_inverse,
    sigma,
    sigma_inverse,
    vartheta,
    vartheta_inverse,
)
from .puzzle import (
    event_probability,
    r1_probability,
    sample_puzzle,
    tree_probability,
    verify_exchange_lemma,
    verify_k3_inclusion_exclusion,
    verify_puzzle,
)

__version__ = "0.1.0"
