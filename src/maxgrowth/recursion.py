"""Maximal subgroup counts of split extensions N x| G, computed from the
quotient's counts, maximal submodule data and derivation counts.

The engine evaluates m_n(N x| G) = m_n(G) + sum over maximal submodules
N_0 <= N of index n of |Der(G, N/N_0)|.  This identity is treated as an
axiom here (it is imported, not re-proved); the low-index oracle validates
it empirically.  Walking it up a chain gives a route to m_n(G_k) and
m_n(H_k) that is independent of the closed forms: start from m_n(Z) (1
at a prime n, else 0), and let each level add its derivation counts to
the count one level down.  G_k walks Z < G_2 < ... < G_k, and H_k walks
Z < G_2 < Z^2 x| G_2.

Each chain level -- Z x| G_{i-1} for G_i, and the lattice extension for
H_k -- is built and validated once and then memoized, so a sweep over n
repeats only the work that depends on n.  The memo is safe to share: its
values are frozen dataclasses holding tuples.  A level also builds its
cocycle system over Z once, with the Smith invariants of that system.
When the maximal submodule is pN itself (the zero subspace mod p), the
quotient N/pN is N reduced mod p, so its derivations number p^(unknowns
- #{invariants d : p does not divide d}), read off the level's
invariants with no quotient action or elimination per prime: (2,) *
(i - 2) for the G_i level, (1, |k - 2|) for the H_k level with k != 2,
and (1,) for H_2.  Each cell classifies n once and hands the class down
the chain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .core import GroupPresentation, IndexClass, classify_index, hk_action_matrices, make_gk
from .derivations import CocycleSystem, _solution_space, build_system, count_derivations
from .modules import ModuleAction, maximal_submodules, quotient_action


@dataclass(frozen=True, eq=False)
class SplitExtension:
    """A lattice N = Z^r with an action of a presented quotient group, and
    the cocycle system of that action over Z."""

    quotient: GroupPresentation
    module: ModuleAction
    cocycles: CocycleSystem = field(init=False, repr=False)

    def __post_init__(self):
        if self.module.p is not None:
            raise ValueError("the module of a split extension is integral")
        if not self.module.satisfies(self.quotient):
            raise ValueError("action matrices do not satisfy the quotient relators")
        object.__setattr__(self, "cocycles", build_system(self.quotient, self.module))


def max_count_split(
    ext: SplitExtension, quotient_count: int, n: int, *, index_class: IndexClass | None = None
) -> int:
    """m_n of the extension: the quotient's m_n, ``quotient_count``, plus one
    derivation count per maximal submodule of index n.  A caller that has
    already classified n passes ``index_class=classify_index(n)``."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    total = quotient_count
    for sub in maximal_submodules(ext.module, n, index_class=index_class):
        if sub.subspace_basis:
            total += count_derivations(ext.quotient, quotient_action(sub)).count
        else:  # N_0 = pN: N/N_0 is N reduced mod p, whose action proved p prime
            total += _solution_space(ext.cocycles, sub.p).count
    return total


def _inverting_rank1_action(num_generators: int) -> ModuleAction:
    # x_i x_k x_i^-1 x_k = 1 gives x_i x_k x_i^-1 = x_k^-1: inside G_k every
    # lower generator conjugates the top Z factor to its inverse, so all
    # generators of the quotient G_{k-1} act on Z by -1.
    return ModuleAction(1, None, (((-1,),),) * num_generators)


# distinct chain levels kept: far more than any sweep revisits
_LEVEL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _gk_level(i: int) -> SplitExtension:
    """G_i as Z x| G_{i-1}, built and validated once."""
    return SplitExtension(make_gk(i - 1), _inverting_rank1_action(i - 1))


@functools.lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _hk_level(k: int) -> SplitExtension:
    """H_k as Z^2 x| G_2, built and validated once."""
    return hk_lattice_extension(k)


def _chain_count(levels, n: int, cls: IndexClass) -> int:
    """m_n at the top of a chain of split extensions over Z: each level adds
    its derivation counts to the count one level down."""
    # base case: the maximal subgroups of Z are exactly the pZ
    count = 1 if cls.kind == "prime" else 0
    for level in levels:
        count = max_count_split(level, count, n, index_class=cls)
    return count


def recursive_gk(k: int, n: int) -> int:
    """m_n(G_k) by iterating the split-extension identity up the chain
    G_1 < G_2 < ... < G_k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _chain_count(map(_gk_level, range(2, k + 1)), n, classify_index(n))


def hk_lattice_extension(k: int) -> SplitExtension:
    """H_k presented as the lattice Z^2 under the G_2 action (A, B_k)."""
    mat_a, mat_b = hk_action_matrices(k)
    return SplitExtension(make_gk(2), ModuleAction(2, None, (mat_a, mat_b)))


def recursive_hk(k: int, n: int) -> int:
    """m_n(H_k) up the chain Z < G_2 < Z^2 x| G_2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _chain_count((_gk_level(2), _hk_level(k)), n, classify_index(n))
