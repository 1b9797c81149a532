"""Exact maximal subgroup growth of two polycyclic group families.

m_n(G) counts the maximal subgroups of index n.  For the iterated
semidirect products G_k and the lattice extensions H_k = Z^2 x| G_2 this
package evaluates m_n three independent ways and cross-checks them:

* closed forms (:mod:`maxgrowth.formulas`),
* a split-extension recursion built from maximal submodule enumeration
  and derivation counting (:mod:`maxgrowth.recursion`, backed by
  :mod:`maxgrowth.modules` and :mod:`maxgrowth.derivations`),
* exhaustive low-index subgroup enumeration with a primitivity test
  (:mod:`maxgrowth.lowindex`).
"""

from .core import (
    ALL_PRIMES,
    GroupPresentation,
    GroupSpec,
    IndexClass,
    PrimeSet,
    classify_index,
    hk_action_matrices,
    is_prime,
    lattice_presentation,
    make_gk,
    make_hk,
    primes_dividing,
    primes_up_to,
)
from .derivations import (
    CocycleSystem,
    DerivationSpace,
    brute_force_count,
    build_system,
    count_derivations,
    solution_space,
    word_derivation_row,
)
from .formulas import (
    Certificate,
    GrowthValue,
    MdegValue,
    max_count_gk,
    max_count_hk,
    mdeg,
    noniso_certificate,
)
from .lowindex import (
    CosetTable,
    SearchBudgetExceeded,
    class_size,
    has_nontrivial_block_system,
    is_primitive,
    low_index_subgroups,
    oracle_max_count,
    oracle_max_counts,
)
from .modules import (
    ModuleAction,
    Submodule,
    SubmoduleClassification,
    classify_rank2_submodules,
    invariant_subspaces,
    maximal_submodules,
    quotient_action,
    reduce_mod_p,
)
from .recursion import (
    SplitExtension,
    hk_lattice_extension,
    max_count_split,
    recursive_gk,
    recursive_hk,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PRIMES",
    "Certificate",
    "CocycleSystem",
    "CosetTable",
    "DerivationSpace",
    "GroupPresentation",
    "GroupSpec",
    "GrowthValue",
    "IndexClass",
    "MdegValue",
    "ModuleAction",
    "PrimeSet",
    "SearchBudgetExceeded",
    "SplitExtension",
    "Submodule",
    "SubmoduleClassification",
    "brute_force_count",
    "build_system",
    "class_size",
    "classify_index",
    "classify_rank2_submodules",
    "count_derivations",
    "has_nontrivial_block_system",
    "hk_action_matrices",
    "hk_lattice_extension",
    "invariant_subspaces",
    "is_prime",
    "is_primitive",
    "lattice_presentation",
    "low_index_subgroups",
    "make_gk",
    "make_hk",
    "max_count_gk",
    "max_count_hk",
    "max_count_split",
    "maximal_submodules",
    "mdeg",
    "noniso_certificate",
    "oracle_max_count",
    "oracle_max_counts",
    "primes_dividing",
    "primes_up_to",
    "quotient_action",
    "recursive_gk",
    "recursive_hk",
    "reduce_mod_p",
    "solution_space",
    "word_derivation_row",
]
