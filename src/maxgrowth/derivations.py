"""Derivations (1-cocycles) from a presented group into a finite module.

A derivation is a map d with d(gh) = d(g) + g.d(h).  A function on the
generators extends to a derivation of the whole group exactly when the
induced functional vanishes on every relator, so Der(G, S) is the solution
set of one linear system over F_p, one block row per relator.  Counting solutions is a
rank computation; an exhaustive search over all generator assignments
serves as an independent oracle for the same count.

The system can also be built once over Z, from an integral action by
unimodular matrices, and reduced mod each prime: reduction mod p is a
ring map, and the integral inverse of a unimodular matrix reduces to its
inverse mod p, so the reduced rows are the rows built from the reduced
action.  An integral system computes its Smith invariants d_1 | d_2 | ...
once, when it is built; its rank mod p is then #{i : p does not divide
d_i} at every prime, so no elimination runs per prime.

Unknown layout: the coordinates of d(g_i) occupy the contiguous block
i*dim .. (i+1)*dim - 1, generators in presentation order; block rows are
stacked in relator order.  This fixed layout keeps ranks and tests
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GroupPresentation, is_prime
from .linalg import Matrix, identity, mat_mul, rank_mod, smith_invariants
from .modules import ModuleAction

BRUTE_FORCE_BOUND = 10 ** 6


@dataclass(frozen=True, eq=False)
class CocycleSystem:
    """Stacked relator conditions: rows . unknowns = 0 over F_p, or over
    Z when ``p is None``; an integral system also holds the Smith
    invariants of its rows (None over F_p)."""

    p: int | None
    num_generators: int
    dim: int
    rows: Matrix  # num_relators * dim rows of num_generators * dim entries
    invariants: tuple[int, ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        expected = self.num_generators * self.dim
        for row in rows:
            if len(row) != expected:
                raise ValueError(f"system has {len(row)} columns, expected {expected}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "invariants", smith_invariants(rows) if self.p is None else None)

    @property
    def num_unknowns(self) -> int:
        return self.num_generators * self.dim


@dataclass(frozen=True)
class DerivationSpace:
    """Solution space of a cocycle system: p^dimension derivations."""

    p: int
    dimension: int

    @property
    def count(self) -> int:
        return self.p ** self.dimension


def word_derivation_row(word, action: ModuleAction) -> Matrix:
    """The functional L with L(values of d on generators) = d(word).

    Left-to-right scan accumulating the acting prefix matrix: a positive
    letter g contributes +prefix to the d(g) block, an inverse letter
    contributes -prefix * M_g^-1 (from d(g^-1) = -g^-1 . d(g)).
    Returns a dim x (num_generators * dim) matrix over F_p, or over Z for
    an integral action.
    """
    p, d, m = action.p, action.rank, action.num_generators
    row = [[0] * (m * d) for _ in range(d)]
    prefix = identity(d)
    for letter in word:
        step = mat_mul(prefix, action.generator_matrix(letter), p)  # rejects unknown letters
        term, sign = (prefix, 1) if letter > 0 else (step, -1)
        start = (abs(letter) - 1) * d
        for out, coeffs in zip(row, term):
            for j, x in enumerate(coeffs, start):
                out[j] += sign * x
        prefix = step
    if p is None:
        return tuple(map(tuple, row))
    return tuple(tuple(x % p for x in out) for out in row)


def build_system(presentation: GroupPresentation, action: ModuleAction) -> CocycleSystem:
    """One block row per relator; solutions correspond to Der(G, S)."""
    if action.num_generators != presentation.num_generators:
        raise ValueError(
            f"action has {action.num_generators} matrices for "
            f"{presentation.num_generators} generators"
        )
    rows = tuple(
        row for rel in presentation.relators for row in word_derivation_row(rel, action)
    )
    return CocycleSystem(
        p=action.p, num_generators=action.num_generators, dim=action.rank, rows=rows
    )


def _require_reduced(action: ModuleAction) -> None:
    if action.p is None:
        raise ValueError("derivations are counted mod p; reduce the action first")


def solution_space(system: CocycleSystem, p: int) -> DerivationSpace:
    """Solutions mod a prime p: p^(free unknowns).  The rank is read off
    the Smith invariants of an integral system, and found by Gaussian
    elimination over F_p for a system over F_p."""
    if not is_prime(p):
        raise ValueError(f"derivations are counted mod a prime, got p={p}")
    return _solution_space(system, p)


def _solution_space(system: CocycleSystem, p: int) -> DerivationSpace:
    """``solution_space`` for a p already proven prime: the p of a reduced
    ``ModuleAction``, which ``reduce_mod_p`` or its constructor proved, or
    the p that ``classify_index`` factored out of a prime index n."""
    if system.p is None:
        rank = sum(1 for d in system.invariants if d % p)
    elif system.p == p:
        rank = rank_mod(system.rows, p)
    else:
        raise ValueError(f"system is over F_{system.p}, not F_{p}")
    return DerivationSpace(p=p, dimension=system.num_unknowns - rank)


def count_derivations(presentation: GroupPresentation, action: ModuleAction) -> DerivationSpace:
    """|Der(G, S)| for a module S over F_p."""
    _require_reduced(action)
    return _solution_space(build_system(presentation, action), action.p)


def brute_force_count(presentation: GroupPresentation, action: ModuleAction) -> int:
    """Independent oracle: enumerate every map {generators} -> S and keep
    those whose relator functionals all vanish; at most BRUTE_FORCE_BOUND
    of them."""
    _require_reduced(action)
    system = build_system(presentation, action)
    p, d, m = system.p, system.dim, system.num_generators
    total = p ** (d * m)
    if total > BRUTE_FORCE_BOUND:
        raise ValueError(f"enumeration bound exceeded: |S|^m = {total} > {BRUTE_FORCE_BOUND}")
    if not system.rows:
        return total  # no relators: every assignment extends to a derivation
    grids = np.meshgrid(*([np.arange(p, dtype=np.int64)] * (d * m)), indexing="ij")
    assignments = np.stack([g.ravel() for g in grids], axis=1)
    residuals = assignments @ np.array(system.rows, dtype=np.int64).T % p
    return int(np.count_nonzero(~residuals.any(axis=1)))
