"""Group presentations and exact arithmetic shared by every other module.

Two polycyclic families are first-class citizens:

* ``G_k``: generators x_1, ..., x_k with relators x_i x_j x_i^-1 x_j for
  all i < j, i.e. every earlier generator conjugates every later one to
  its inverse.  G_1 is the infinite cyclic group.
* ``H_k``: the lattice extension Z^2 x| G_2 in which the G_2 generator a
  acts on the lattice by the coordinate swap A = [[0,1],[1,0]] and b acts
  by B_k = [[0,1],[-1,k]], for any integer k.  lattice_presentation writes
  its relators from A and B_k on the generators (t1, t2, b, a).

Words are tuples of signed 1-based generator indices: letter ``i`` is the
i-th generator, ``-i`` its inverse.  Lattice vectors are column vectors
and a generator g acts by left multiplication v -> M_g v.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .linalg import Matrix, as_int_matrix, int_det, inverse, mat_mul

Word = tuple[int, ...]

# the first 13 primes decide every n < MR_BOUND = psi_13 (Sorenson-Webster, Math. Comp. 2017)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)
# the longest relator the oracle searches with, and so the longest that
# lattice_presentation spells out: a relator of L letters has L rotations of
# L letters, and the oracle's propagation scans them all, so even index 2
# costs about L^2 before the node budget can act; at 1,000 letters (H_996)
# index 2 takes about 0.3 s of CPU time
MAX_RELATOR_LENGTH = 1000


def is_prime(n: int) -> bool:
    """Primality, proven below MR_BOUND; above it, passing every witness raises ValueError."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 10_000:  # fully screened above: 101^2 > 10^4
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin is proven only below {MR_BOUND}")
    return True


def _brent_divisor(n: int) -> int:
    """The smaller of two proper cofactors of composite n, by Brent's rho on x^2 + c."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return min(g, n // g)


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes increasing: trial division
    by the primes up to 97 stops once q^2 exceeds what is left, which is then 1
    or prime; past that, Brent's rho splits off one prime and its whole power."""
    if n < 1:
        raise ValueError(f"factor expects n >= 1, got {n}")
    factors = {}
    for q in _SMALL_PRIMES:
        if q * q > n:
            if n > 1:
                factors[n] = 1
            return factors
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors[q] = e
    while n > 1:
        p = n
        while not is_prime(p):
            p = _brent_divisor(p)
        factors[p] = 0
        while n % p == 0:
            n //= p
            factors[p] += 1
    return dict(sorted(factors.items()))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    return [q for q, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class PrimeSet:
    """A set of primes; ``primes=None`` is the set of all primes.

    The all-primes value arises as the prime support of 0: every prime
    divides 0, and k = 2 makes k - 2 = 0 a legitimate input downstream.
    """

    primes: tuple[int, ...] | None

    def __post_init__(self):
        if self.primes is not None:
            ps = tuple(self.primes)
            if list(ps) != sorted(set(ps)):
                raise ValueError("prime list must be strictly increasing")
            for q in ps:
                if not is_prime(q):
                    raise ValueError(f"{q} is not prime")
            object.__setattr__(self, "primes", ps)

    @property
    def is_all_primes(self) -> bool:
        return self.primes is None

    def __contains__(self, q: int) -> bool:
        if self.primes is None:
            return is_prime(q)
        return q in self.primes


ALL_PRIMES = PrimeSet(None)


def primes_dividing(n: int) -> PrimeSet:
    """Prime support of |n|; 0 is divisible by every prime."""
    if n == 0:
        return ALL_PRIMES
    support = object.__new__(PrimeSet)  # factor has proven every prime: skip the re-check
    object.__setattr__(support, "primes", tuple(factor(abs(n))))
    return support


def least_symdiff_prime(a: PrimeSet, b: PrimeSet) -> int | None:
    """Smallest prime lying in exactly one of the two sets, or None."""
    if a.is_all_primes and b.is_all_primes:
        return None
    if a.is_all_primes or b.is_all_primes:
        finite = b if a.is_all_primes else a
        return next(q for q in itertools.count(2) if is_prime(q) and q not in finite)
    diff = set(a.primes) ^ set(b.primes)
    return min(diff) if diff else None


@dataclass(frozen=True)
class IndexClass:
    """Exact classification of a candidate subgroup index.

    kind is one of "one", "prime", "prime_square", "prime_power" (exponent
    >= 3) or "composite" (not a prime power).
    """

    kind: str
    p: int | None = None
    exponent: int | None = None


# frozen, so one instance serves every composite index
_COMPOSITE = IndexClass("composite")


def classify_index(n: int) -> IndexClass:
    factors = factor(n)
    if len(factors) != 1:
        return _COMPOSITE if factors else IndexClass("one")
    ((p, e),) = factors.items()
    kind = "prime" if e == 1 else "prime_square" if e == 2 else "prime_power"
    return IndexClass(kind, p=p, exponent=e)


@dataclass(frozen=True)
class GroupPresentation:
    """A finite presentation: generator names plus relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        rels = tuple(tuple(rel) for rel in self.relators)
        m = len(self.generators)
        for rel in rels:
            for letter in rel:
                if letter == 0 or abs(letter) > m:
                    raise ValueError(f"letter {letter} outside generator range 1..{m}")
            for x, y in zip(rel, rel[1:]):
                if x == -y:
                    raise ValueError(f"relator {rel} is not freely reduced")
        object.__setattr__(self, "relators", rels)

    @property
    def num_generators(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class GroupSpec:
    """One member of a family: ``family`` is "gk" or "hk"."""

    family: str
    k: int

    def __post_init__(self):
        if self.family not in ("gk", "hk"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gk" and self.k < 1:
            raise ValueError("gk requires k >= 1")


def make_gk(k: int) -> GroupPresentation:
    """Presentation of G_k on k generators with C(k,2) relators."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 2:
        names: tuple[str, ...] = ("a", "b")
    else:
        names = tuple(f"x{i}" for i in range(1, k + 1))
    rels = tuple(
        (i, j, -i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
    )
    return GroupPresentation(names, rels)


def hk_action_matrices(k: int) -> tuple[Matrix, Matrix]:
    """The swap matrix A and B_k = [[0,1],[-1,k]], the actions of a and b on H_k's lattice."""
    return ((0, 1), (1, 0)), ((0, 1), (-1, k))


def _power(letter: int, e: int) -> Word:
    return (letter if e > 0 else -letter,) * abs(e)


def lattice_presentation(mat_a, mat_b) -> GroupPresentation:
    """Z^2 x| G_2 with a acting on the lattice by mat_a and b by mat_b, on
    the generators (t1, t2, b, a).  One rule gives every relator of a split
    extension (D. L. Johnson, Presentations of Groups): [t1, t2], a b a^-1 b,
    then g t_i g^-1 t2^-M[1][i] t1^-M[0][i] for (g, M) in (a, mat_a),
    (b, mat_b) and i = 1, 2.  Raises ValueError unless both matrices are
    unimodular 2x2 and satisfy a b a^-1 b = 1, and before it would spell
    out a relator longer than MAX_RELATOR_LENGTH."""
    mat_a, mat_b = as_int_matrix(mat_a), as_int_matrix(mat_b)
    if any(len(mat) != 2 or int_det(mat) not in (1, -1) for mat in (mat_a, mat_b)):
        raise ValueError("the lattice action needs two unimodular 2x2 matrices")
    if mat_mul(mat_a, mat_b) != mat_mul(inverse(mat_b), mat_a):  # a b a^-1 b = 1
        raise ValueError("the matrices fail the G_2 relator a b a^-1 b = 1")
    longest = max(3 + abs(mat[0][i]) + abs(mat[1][i]) for mat in (mat_a, mat_b) for i in (0, 1))
    if longest > MAX_RELATOR_LENGTH:
        raise ValueError(
            f"relators of at most {MAX_RELATOR_LENGTH} letters supported, got {longest}"
        )
    t1, t2, b, a = 1, 2, 3, 4
    rels = [(t1, t2, -t1, -t2), (a, b, -a, b)]
    for g, mat in ((a, mat_a), (b, mat_b)):
        for i, t in enumerate((t1, t2)):
            rels.append((g, t, -g) + _power(t2, -mat[1][i]) + _power(t1, -mat[0][i]))
    return GroupPresentation(("t1", "t2", "b", "a"), rels)


def make_hk(k: int) -> tuple[GroupPresentation, Matrix, Matrix]:
    """H_k as lattice_presentation(A, B_k), plus A and B_k.  Its last relator
    says b t2 b^-1 = t1 t2^k, in |k| + 4 letters, so |k| > 996 raises
    ValueError."""
    mat_a, mat_b = hk_action_matrices(k)
    return lattice_presentation(mat_a, mat_b), mat_a, mat_b
