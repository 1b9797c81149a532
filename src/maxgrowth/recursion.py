"""Maximal subgroup counts of split extensions N x| G, computed from the
quotient's counts, maximal submodule data and derivation counts.

The engine evaluates m_n(N x| G) = m_n(G) + sum over maximal submodules
N_0 <= N of index n of |Der(G, N/N_0)|.  This identity is treated as an
axiom here (it is imported, not re-proved); the low-index oracle validates
it empirically.  Iterating it up the chain G_1 < G_2 < ... gives a route
to m_n(G_k) and m_n(H_k) that is independent of the closed forms: H_k
takes its G_2 term from the G_2 level of the same chain.

Each chain level -- Z x| G_{i-1} for G_i, and the lattice extension for
H_k -- is built and validated once and then memoized, so a sweep over n
repeats only the work that depends on n.  The memo is safe to share: its
values are frozen dataclasses holding tuples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .core import GroupPresentation, hk_action_matrices, is_prime, make_gk
from .derivations import count_derivations
from .modules import ModuleAction, maximal_submodules, quotient_action


@dataclass(frozen=True, eq=False)
class SplitExtension:
    """A lattice N = Z^r with an action of a presented quotient group."""

    quotient: GroupPresentation
    module: ModuleAction

    def __post_init__(self):
        if self.module.p is not None:
            raise ValueError("the module of a split extension is integral")
        if not self.module.satisfies(self.quotient):
            raise ValueError("action matrices do not satisfy the quotient relators")


def max_count_split(
    ext: SplitExtension, m_n_of_quotient: Callable[[int], int], n: int
) -> int:
    """m_n of the extension: quotient count plus one derivation count per
    maximal submodule of index n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    total = m_n_of_quotient(n)
    for sub in maximal_submodules(ext.module, n):
        induced = quotient_action(sub.ambient, sub)
        total += count_derivations(ext.quotient, induced).count
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


def recursive_gk(k: int, n: int) -> int:
    """m_n(G_k) by iterating the split-extension identity up the chain
    G_1 < G_2 < ... < G_k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    # base case: the maximal subgroups of Z are exactly the pZ
    count = 1 if is_prime(n) else 0
    for i in range(2, k + 1):
        count = max_count_split(_gk_level(i), lambda _n, value=count: value, n)
    return count


def hk_lattice_extension(k: int) -> SplitExtension:
    """H_k presented as the lattice Z^2 under the G_2 action (A, B_k)."""
    mat_a, mat_b = hk_action_matrices(k)
    return SplitExtension(make_gk(2), ModuleAction(2, None, (mat_a, mat_b)))


def recursive_hk(k: int, n: int) -> int:
    """m_n(H_k) from the G_2 level of the chain plus lattice submodule data."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max_count_split(_hk_level(k), lambda m: recursive_gk(2, m), n)
