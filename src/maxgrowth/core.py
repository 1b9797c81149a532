"""Group presentations and exact arithmetic shared by every other module.

Two polycyclic families are first-class citizens:

* ``G_k``: generators x_1, ..., x_k with relators x_i x_j x_i^-1 x_j for
  all i < j, i.e. every earlier generator conjugates every later one to
  its inverse.  G_1 is the infinite cyclic group.
* ``H_k``: the lattice extension Z^2 x| G_2 in which the G_2 generator a
  acts on the lattice by the coordinate swap A = [[0,1],[1,0]] and b acts
  by B_k = [[0,1],[-1,k]].  The flattened presentation has generators
  (t1, t2, b, a) for the lattice basis and the acting group.

Words are tuples of signed 1-based generator indices: letter ``i`` is the
i-th generator, ``-i`` its inverse.  Lattice vectors are column vectors
and a generator g acts by left multiplication v -> M_g v.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix

Word = tuple[int, ...]

# Deterministic Miller-Rabin witnesses, valid for every n < 3.3 * 10^24
# (in particular all 64-bit inputs).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    """Deterministic primality test (exact for all 64-bit integers)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 10_000:  # fully screened above: 97^2 > 10^4
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
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(limit ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(q) for q in np.flatnonzero(sieve)]


def prime_stream():
    """Yield 2, 3, 5, 7, ... without an upper bound."""
    yield 2
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


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
    n = abs(n)
    found = []
    for q in itertools.chain(_SMALL_PRIMES, itertools.count(101, 2)):
        if q * q > n:
            break
        if n % q == 0:
            found.append(q)
            while n % q == 0:
                n //= q
    if n > 1:
        found.append(n)
    return PrimeSet(tuple(found))


def least_symdiff_prime(a: PrimeSet, b: PrimeSet) -> int | None:
    """Smallest prime lying in exactly one of the two sets, or None."""
    if a.is_all_primes and b.is_all_primes:
        return None
    if a.is_all_primes or b.is_all_primes:
        finite = b if a.is_all_primes else a
        for q in prime_stream():
            if q not in finite:
                return q
    diff = set(a.primes) ^ set(b.primes)
    return min(diff) if diff else None


def _int_nth_root(n: int, e: int) -> int:
    """Largest r with r**e <= n (n >= 1, e >= 1)."""
    if e == 1:
        return n
    if e == 2:
        return math.isqrt(n)
    # Newton's method on ints, from a power of two above the root: the
    # iterates fall strictly until they reach the root (no float, so no
    # overflow however large n is)
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


@dataclass(frozen=True)
class IndexClass:
    """Exact classification of a candidate subgroup index.

    kind is one of "one", "prime", "prime_square", "prime_power" (exponent
    >= 3) or "composite" (not a prime power).
    """

    kind: str
    p: int | None = None
    exponent: int | None = None


def _prime_power_class(p: int, e: int) -> IndexClass:
    kind = "prime" if e == 1 else "prime_square" if e == 2 else "prime_power"
    return IndexClass(kind, p=p, exponent=e)


def classify_index(n: int) -> IndexClass:
    if n <= 0:
        raise ValueError(f"index must be positive, got {n}")
    if n == 1:
        return IndexClass("one")
    for q in _SMALL_PRIMES:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            return _prime_power_class(q, e) if n == 1 else IndexClass("composite")
    if is_prime(n):
        return IndexClass("prime", p=n, exponent=1)
    # every prime factor of n is at least 101, and so is any e-th root
    e = 2
    while 101 ** e <= n:
        r = _int_nth_root(n, e)
        if r ** e == n and is_prime(r):
            return _prime_power_class(r, e)
        e += 1
    return IndexClass("composite")


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
    """The swap matrix A and B_k = [[0,1],[-1,k]] acting on the lattice.

    |k| must stay below 2^63: the command line rejects larger k with exit
    2, and make_hk checks it before spelling out a relator of |k| + 4 letters.
    """
    if abs(k) >= 2 ** 63:
        raise ValueError(f"|k| must be below 2^63 for the lattice action, got k={k}")
    return ((0, 1), (1, 0)), ((0, 1), (-1, k))


def make_hk(k: int) -> tuple[GroupPresentation, Matrix, Matrix]:
    """Flattened presentation of H_k = Z^2 x| G_2, plus the action matrices.

    Generators are (t1, t2, b, a); t1, t2 span the lattice.  Conjugation
    reads off the matrix columns: a t1 a^-1 = t2, a t2 a^-1 = t1,
    b t1 b^-1 = t2^-1, b t2 b^-1 = t1 t2^k.
    """
    mat_a, mat_b = hk_action_matrices(k)  # rejects k before building relators
    t1, t2, b, a = 1, 2, 3, 4
    if k >= 0:
        t2_to_minus_k: Word = (-t2,) * k
    else:
        t2_to_minus_k = (t2,) * (-k)
    rels: tuple[Word, ...] = (
        (t1, t2, -t1, -t2),
        (a, b, -a, b),
        (a, t1, -a, -t2),
        (a, t2, -a, -t1),
        (b, t1, -b, t2),
        (b, t2, -b) + t2_to_minus_k + (-t1,),
    )
    pres = GroupPresentation(("t1", "t2", "b", "a"), rels)
    return pres, mat_a, mat_b

