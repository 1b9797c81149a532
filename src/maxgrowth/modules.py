"""Z^r as a module over a presented group, and its maximal submodules.

A maximal submodule of Z^r (generators acting by unimodular matrices) has
prime power index p^c and contains pZ^r, so the classification lives in
F_p^r: submodules of index p^c correspond to invariant subspaces of
codimension c, and such a submodule is maximal exactly when the induced
action on the c-dimensional quotient space is simple.  A Submodule is
its action and the RREF basis of its subspace, nothing more: its index
and the Hermite normal form basis of its preimage lattice are derived
from that basis, the RREF row at each pivot column and p e_j at every
other column j.  That matrix is already in HNF, which makes equality,
ordering and deduplication exact.

Matrices are tuples of row tuples of Python ints, as in :mod:`.linalg`.
Route 2 needs two ranks only: G_k = Z x| G_{k-1} acts on Z and H_k =
Z^2 x| G_2 acts on Z^2, so ModuleAction takes rank 1 or 2.  Rank 1 has
no subspace strictly between 0 and the whole space.  The rank-2 lines
are eigenlines: the line through (1, t) is invariant under [[a, b], [c,
d]] exactly when c + (d - a)t - bt^2 = 0 mod p, and the line through
(0, 1) exactly when b = 0 mod p.  A non-scalar matrix has at most two
such lines, the roots of that quadratic, so no prime is too large; only
an all-scalar action, which fixes all p + 1 lines, is held to
ENUMERATION_BOUND, and past it invariant_subspaces raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .core import GroupPresentation, IndexClass, classify_index, hk_action_matrices, is_prime
from .linalg import (
    Matrix,
    as_int_matrix,
    identity,
    in_row_span_mod,
    int_det,
    int_inverse_unimodular,
    inv_mod,
    mat_mul,
    reduce_by_rref,
)

ENUMERATION_BOUND = 10 ** 6


@dataclass(frozen=True, eq=False)
class ModuleAction:
    """Rank-1 or rank-2 lattice, or F_p^r, with one acting matrix per
    group generator.

    ``p is None`` means the integral, not yet reduced module; matrices are
    then required to be unimodular, so they stay invertible mod every p.
    One determinant per matrix decides invertibility: det = +-1 over Z,
    det != 0 mod p over F_p.
    """

    rank: int
    p: int | None
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError(f"rank must be 1 or 2, got {self.rank}")
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
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
                if int_det(mat) % self.p == 0:
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
    return ModuleAction(action.rank, p, action.matrices)


@dataclass(frozen=True, eq=False)
class Submodule:
    """An invariant subspace of F_p^r, which fixes its preimage lattice.

    ``subspace_basis`` is the RREF basis (possibly empty, for the zero
    subspace).  The preimage of the subspace in Z^r is a sublattice of
    index p^codim containing pZ^r; ``lattice_basis`` writes its HNF basis
    down from the RREF basis: the basis row at each pivot column, p e_j at
    every other column j.
    """

    ambient: ModuleAction
    subspace_basis: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def codim(self) -> int:
        return self.ambient.rank - len(self.subspace_basis)

    @property
    def index(self) -> int:
        return self.p ** self.codim

    @property
    def lattice_basis(self) -> Matrix:
        p, r = self.p, self.ambient.rank
        by_pivot = dict(zip(_pivots(self.subspace_basis), self.subspace_basis))
        return tuple(
            by_pivot[j] if j in by_pivot else tuple(p if i == j else 0 for i in range(r))
            for j in range(r)
        )


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod an odd prime p, or None for a non-residue
    (Tonelli-Shanks; H. Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 1.5.1)."""
    a %= p
    if a == 0:
        return 0
    euler = pow(a, (p - 1) // 2, p)
    if euler == p - 1:
        return None
    if euler != 1:
        raise ValueError(f"{p} is not prime")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)  # r^2 = a t throughout
    if t == 1:
        return r
    z = next((z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), None)
    if z is None:
        raise ValueError(f"{p} is not prime")
    m, c = s, pow(z, q, p)
    while t != 1:
        i, u = 0, t
        while u != 1:  # the least i with t^(2^i) = 1
            u, i = u * u % p, i + 1
            if i == m:
                raise ValueError(f"{p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _eigenslopes(mat: Matrix, p: int) -> list[int | None]:
    """Slopes of the invariant lines of one non-scalar matrix mod an odd
    prime: t for the line through (1, t), None for (0, 1)."""
    (a, b), (c, d) = mat
    if b == 0:  # c + (d - a)t = 0, and (0, 1) is invariant
        return [None] if a == d else [None, -c * pow(d - a, -1, p) % p]
    # b t^2 - (d - a)t - c = 0
    root = _sqrt_mod((d - a) ** 2 + 4 * b * c, p)
    if root is None:
        return []
    half = pow(2 * b, -1, p)
    return list({(d - a + root) * half % p, (d - a - root) * half % p})


def _invariant_lines_rank2(action: ModuleAction) -> list[tuple[tuple[int, int], ...]]:
    """Take the candidate lines from the first non-scalar matrix's
    quadratic, then filter them through every matrix.  At p = 2 the three
    lines are scanned; an all-scalar action fixes every one of the p + 1
    lines, which are listed only while p^2 <= ENUMERATION_BOUND."""
    p = action.p
    first = next((m for m in action.matrices if m[0][1] or m[1][0] or m[0][0] != m[1][1]), None)
    if p == 2:
        slopes = [0, 1, None]
    elif first is None:
        if p * p > ENUMERATION_BOUND:
            raise ValueError(
                f"an all-scalar action fixes all {p} + 1 lines: "
                f"enumeration bound exceeded: {p}^2 > {ENUMERATION_BOUND}"
            )
        slopes = [*range(p), None]
    else:
        slopes = _eigenslopes(first, p)
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
    r = action.rank
    if not 1 <= codim <= r:
        raise ValueError(f"codim must lie in 1..{r}")
    if codim == r:
        return [Submodule(action, ())]  # only the zero subspace
    lines = sorted(_invariant_lines_rank2(action))  # r = 2, codim = 1
    return [Submodule(action, basis) for basis in lines]


def quotient_action(sub: Submodule) -> ModuleAction:
    """Action induced on F_p^r / subspace, in the complement basis given by
    the coordinate vectors at the non-pivot columns of the RREF basis."""
    action, basis = sub.ambient, sub.subspace_basis
    p = action.p
    pivots = _pivots(basis)
    if not _is_invariant(action, basis, pivots):
        raise ValueError("subspace is not invariant under the action")
    comp = [j for j in range(action.rank) if j not in pivots]
    mats = []
    for m in action.matrices:
        # column j of m is the image of e_j; keep its complement coordinates
        cols = [reduce_by_rref([row[j] for row in m], basis, pivots, p) for j in comp]
        mats.append(tuple(tuple(col[i] for col in cols) for i in comp))
    return ModuleAction(len(comp), p, tuple(mats))


def maximal_submodules(
    action: ModuleAction, n: int, *, index_class: IndexClass | None = None
) -> list[Submodule]:
    """All maximal submodules of Z^r of index n under an integral action.

    Empty unless n = p^c with c <= r.  Codimension-1 subspaces always give
    maximal submodules; at r = 2 and n = p^2 the one candidate, pZ^2, is
    maximal exactly when no invariant line exists.  A caller that has
    already classified n passes ``index_class=classify_index(n)``.
    """
    if action.p is not None:
        raise ValueError("maximal_submodules expects the integral action")
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    cls = classify_index(n) if index_class is None else index_class
    if cls.kind not in ("prime", "prime_square", "prime_power"):
        return []
    if cls.exponent > action.rank:
        return []
    reduced = reduce_mod_p(action, cls.p)
    if cls.exponent == 2 and invariant_subspaces(reduced, 1):
        return []
    return invariant_subspaces(reduced, cls.exponent)


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
