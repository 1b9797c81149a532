"""Z^r as a module over a presented group, and its maximal submodules.

A maximal submodule of Z^r (generators acting by unimodular matrices) has
prime power index p^c and contains pZ^r, so the classification lives in
F_p^r: submodules of index p^c correspond to invariant subspaces of
codimension c, and such a submodule is maximal exactly when the induced
action on the c-dimensional quotient space is simple.  Submodules carry
the Hermite normal form basis of their preimage lattice, which makes
equality, ordering and deduplication exact.

Matrices are tuples of row tuples of Python ints, as in :mod:`.linalg`.
Invariant subspaces are found by brute force over normalized (reduced row
echelon form) bases.  The sizes here are tiny and the enumeration doubles
as its own oracle.  The rank-2 lines, met at every prime the recursion
samples, are tested one matrix at a time: the line through (1, t) is
invariant under [[a, b], [c, d]] exactly when c + (d - a)t - bt^2 = 0 mod
p, and the line through (0, 1) exactly when b = 0 mod p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .core import GroupPresentation, classify_index, hk_action_matrices, is_prime
from .linalg import (
    Matrix,
    as_int_matrix,
    hnf_rows,
    identity,
    in_row_span_mod,
    int_det,
    int_inverse_unimodular,
    inv_mod,
    mat_mul,
    rank_mod,
    reduce_by_rref,
)

ENUMERATION_BOUND = 10 ** 6


@dataclass(frozen=True, eq=False)
class ModuleAction:
    """Rank-r lattice or F_p^r with one acting matrix per group generator.

    ``p is None`` means the integral, not yet reduced module; matrices are
    then required to be unimodular, so they stay invertible mod every p.
    """

    rank: int
    p: int | None
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        mats = []
        for m in self.matrices:
            mat = as_int_matrix(m)
            if len(mat) != self.rank:
                raise ValueError(f"action matrix is {len(mat)}x{len(mat)}, expected rank {self.rank}")
            if self.p is None:
                if int_det(mat) not in (1, -1):
                    raise ValueError("integral action matrices must be unimodular")
            else:
                mat = tuple(tuple(x % self.p for x in row) for row in mat)
                if rank_mod(mat, self.p) != self.rank:
                    raise ValueError(f"action matrix singular mod {self.p}")
            mats.append(mat)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def num_generators(self) -> int:
        return len(self.matrices)

    def generator_matrix(self, letter: int) -> Matrix:
        """Matrix of a signed generator letter (negative = inverse)."""
        g = abs(letter) - 1
        if not 0 <= g < self.num_generators:
            raise ValueError(f"unknown generator index {letter}")
        m = self.matrices[g]
        if letter > 0:
            return m
        if self.p is None:
            return int_inverse_unimodular(m)
        return inv_mod(m, self.p)

    def word_matrix(self, word) -> Matrix:
        out = identity(self.rank)
        for letter in word:
            out = mat_mul(out, self.generator_matrix(letter), self.p)
        return out

    def satisfies(self, presentation: GroupPresentation) -> bool:
        """Whether every relator evaluates to the identity matrix."""
        if presentation.num_generators != self.num_generators:
            return False
        eye = identity(self.rank)
        return all(self.word_matrix(rel) == eye for rel in presentation.relators)


def reduce_mod_p(action: ModuleAction, p: int) -> ModuleAction:
    """Entrywise reduction of an integral action; stays invertible mod p."""
    if action.p is not None:
        raise ValueError("action is already reduced mod a prime")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return ModuleAction(action.rank, p, action.matrices)


@dataclass(frozen=True, eq=False)
class Submodule:
    """An invariant subspace of F_p^r together with its preimage lattice.

    ``subspace_basis`` is the RREF basis (possibly empty, for the zero
    subspace); ``lattice_basis`` is the HNF basis of the preimage of the
    subspace in Z^r, a sublattice of index p^codim containing pZ^r.
    """

    ambient: ModuleAction
    subspace_basis: tuple[tuple[int, ...], ...]
    lattice_basis: Matrix
    index: int

    def __post_init__(self):
        basis = as_int_matrix(self.lattice_basis)
        d = abs(int_det(basis))
        if d != self.index:
            raise ValueError(f"lattice basis determinant {d} != index {self.index}")
        object.__setattr__(self, "lattice_basis", basis)

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def codim(self) -> int:
        return self.ambient.rank - len(self.subspace_basis)


def _submodule_from_subspace(action: ModuleAction, basis) -> Submodule:
    p, r = action.p, action.rank
    rows = [[p if i == j else 0 for j in range(r)] for i in range(r)]
    rows.extend(basis)
    return Submodule(
        ambient=action,
        subspace_basis=basis,
        lattice_basis=hnf_rows(rows),
        index=p ** (r - len(basis)),
    )


def _rref_bases(p: int, r: int, d: int):
    """All RREF bases of d-dimensional subspaces of F_p^r (d >= 1), one per
    subspace."""
    for pivots in itertools.combinations(range(r), d):
        free = [
            (i, j)
            for i in range(d)
            for j in range(r)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            basis = [[0] * r for _ in range(d)]
            for i, c in enumerate(pivots):
                basis[i][c] = 1
            for (i, j), v in zip(free, values):
                basis[i][j] = v
            yield tuple(tuple(row) for row in basis)


def _invariant_lines_rank2(action: ModuleAction) -> list[tuple[tuple[int, int], ...]]:
    """Scan the p + 1 lines of F_p^2 against the first matrix, then filter
    the survivors through the rest."""
    p = action.p
    slopes = [*range(p), None]  # t for the line through (1, t); None for (0, 1)
    for (a, b), (c, d) in action.matrices:
        slopes = [t for t in slopes if (b if t is None else c + (d - a - b * t) * t) % p == 0]
    return [((0, 1) if t is None else (1, t),) for t in slopes]


def _pivots(basis) -> list[int]:
    return [next(j for j, x in enumerate(row) if x) for row in basis]


def _is_invariant(action: ModuleAction, basis, pivots: list[int]) -> bool:
    """Whether every matrix maps the span of an RREF basis into itself."""
    p = action.p
    return all(
        in_row_span_mod([sum(map(mul, row, v)) for row in m], basis, pivots, p)
        for m in action.matrices
        for v in basis
    )


def invariant_subspaces(action: ModuleAction, codim: int) -> list[Submodule]:
    """All subspaces of the given codimension invariant under every matrix,
    in canonical order (lexicographic by RREF basis)."""
    if action.p is None:
        raise ValueError("invariant subspaces are computed mod p; reduce first")
    p, r = action.p, action.rank
    if not 1 <= codim <= r:
        raise ValueError(f"codim must lie in 1..{r}")
    if codim == r:
        return [_submodule_from_subspace(action, ())]  # only the zero subspace
    if p ** r > ENUMERATION_BOUND:
        raise ValueError(f"enumeration bound exceeded: {p}^{r} > {ENUMERATION_BOUND}")
    if r == 2:
        found = _invariant_lines_rank2(action)
    else:
        found = [
            basis
            for basis in _rref_bases(p, r, r - codim)
            if _is_invariant(action, basis, _pivots(basis))
        ]
    found.sort()
    return [_submodule_from_subspace(action, basis) for basis in found]


def quotient_action(action: ModuleAction, sub: Submodule) -> ModuleAction:
    """Action induced on F_p^r / subspace, in the complement basis given by
    the coordinate vectors at the non-pivot columns of the RREF basis."""
    p, r = action.p, action.rank
    if p is None or sub.p != p or sub.ambient.rank != r:
        raise ValueError("submodule does not match the action")
    basis = sub.subspace_basis
    pivots = _pivots(basis)
    if not _is_invariant(action, basis, pivots):
        raise ValueError("subspace is not invariant under the action")
    comp = [j for j in range(r) if j not in pivots]
    mats = []
    for m in action.matrices:
        # column j of m is the image of e_j; keep its complement coordinates
        cols = [reduce_by_rref([row[j] for row in m], basis, pivots, p) for j in comp]
        mats.append(tuple(tuple(col[i] for col in cols) for i in comp))
    return ModuleAction(len(comp), p, tuple(mats))


def _is_simple(action: ModuleAction) -> bool:
    """No invariant subspace strictly between 0 and the whole space."""
    for codim in range(1, action.rank):
        if invariant_subspaces(action, codim):
            return False
    return True


def maximal_submodules(action: ModuleAction, n: int) -> list[Submodule]:
    """All maximal submodules of Z^r of index n under an integral action.

    Empty unless n = p^c with c <= r.  Codimension-1 subspaces always give
    maximal submodules; deeper ones are maximal exactly when the quotient
    module is simple (for r = 2 and n = p^2: no invariant line exists).
    """
    if action.p is not None:
        raise ValueError("maximal_submodules expects the integral action")
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    cls = classify_index(n)
    if cls.kind not in ("prime", "prime_square", "prime_power"):
        return []
    if cls.exponent > action.rank:
        return []
    reduced = reduce_mod_p(action, cls.p)
    candidates = invariant_subspaces(reduced, cls.exponent)
    if cls.exponent == 1:
        return candidates
    return [
        sub for sub in candidates if _is_simple(quotient_action(reduced, sub))
    ]


@dataclass(frozen=True)
class SubmoduleClassification:
    """Which of the three named index-p submodules of Z^2 are maximal.

    ``present`` is a subset of {"Mp", "MpMinus1", "PZ2"}: the lattice
    spanned by pZ^2 and (1,1), the one spanned by pZ^2 and (1,-1), and
    pZ^2 itself (maximal exactly when no invariant line exists).
    ``coincidence`` flags M_p = M_{p,-1}, which happens only at p = 2.
    """

    p: int
    present: frozenset[str]
    coincidence: bool


def classify_rank2_submodules(k: int, p: int) -> SubmoduleClassification:
    """Classify the maximal submodules of Z^2 under the H_k action at p."""
    mat_a, mat_b = hk_action_matrices(k)
    action = ModuleAction(2, None, (mat_a, mat_b))
    lines = invariant_subspaces(reduce_mod_p(action, p), 1)
    found = {sub.subspace_basis for sub in lines}
    line_v = ((1, 1),)
    line_u = ((1, (-1) % p),)
    present = set()
    if line_v in found:
        present.add("Mp")
    if line_u in found:
        present.add("MpMinus1")
    if not found:
        present.add("PZ2")
    unexpected = found - {line_v, line_u}
    if unexpected:
        raise RuntimeError(f"unexpected invariant line(s) {unexpected} at p={p}, k={k}")
    return SubmoduleClassification(
        p=p,
        present=frozenset(present),
        coincidence=(line_v == line_u and line_v in found),
    )
