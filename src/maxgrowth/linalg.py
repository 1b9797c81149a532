"""Small exact linear algebra: integer matrices and mod-p elimination.

A matrix is a tuple of row tuples of Python ints: immutable, so results
can be shared and memoized, and exact at any size of entry or modulus.
as_int_matrix normalizes any nested sequence of ints, arrays included.

Route 2 acts on lattices of rank 1 and 2 only, so determinants and
inverses are the 1x1 and 2x2 closed forms: inverse is the adjugate over
Z (det +-1) or over F_p (det != 0 mod p).  Cocycle systems have a few
hundred rows; rank_mod is forward elimination over F_p, and one exact
integer elimination, smith_invariants, gives the Smith invariants of an
integral system.  Those invariants give the rank of the system mod every
prime at once: M = U diag(d_1, ..., d_r) V with U, V unimodular, so
rank_p(M) = #{i : p does not divide d_i} (H. Cohen, A Course in
Computational Algebraic Number Theory, section 2.4).
"""

from __future__ import annotations

from math import gcd
from operator import mul

Matrix = tuple[tuple[int, ...], ...]


def as_int_matrix(mat) -> Matrix:
    rows = tuple(tuple(map(int, row)) for row in mat)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("expected a square matrix")
    return rows


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b, p: int | None = None) -> Matrix:
    """Matrix product a b, reduced mod p when p is given."""
    cols = tuple(zip(*b))
    prod = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)
    if p is None:
        return prod
    return tuple(tuple(x % p for x in row) for row in prod)


def int_det(a: Matrix) -> int:
    """Determinant of a 1x1 or 2x2 Matrix, as normalized by as_int_matrix."""
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    raise ValueError(f"determinants of 1x1 and 2x2 matrices only, got {len(a)}x{len(a)}")


def inverse(mat, p: int | None = None) -> Matrix:
    """Inverse of a 1x1 or 2x2 matrix by its adjugate: over Z when p is
    None, which needs det = +-1, else over F_p, which needs det != 0 mod p."""
    a = as_int_matrix(mat)
    d = int_det(a)
    if p is None:
        if d not in (1, -1):
            raise ValueError("matrix is not unimodular")
        scale = d  # 1 / d = d
    else:
        if d % p == 0:
            raise ValueError(f"matrix is singular mod {p}")
        scale = pow(d, -1, p)
    if len(a) == 1:
        adjugate = ((1,),)
    else:
        (w, x), (y, z) = a
        adjugate = ((z, -x), (-y, w))
    inv = tuple(tuple(scale * e for e in row) for row in adjugate)
    return inv if p is None else tuple(tuple(e % p for e in row) for row in inv)


def rank_mod(mat, p: int) -> int:
    """Rank over F_p by forward elimination, pivoting on the first row
    that is nonzero in each column."""
    rows = [[int(x) % p for x in row] for row in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[c]), None)
        if pivot is None:
            continue
        rank += 1
        inv = pow(pivot[c], -1, p)
        rows = [
            [(x - row[c] * inv * y) % p for x, y in zip(row, pivot)] if row[c] else row
            for row in rows
            if row is not pivot
        ]
    return rank


def smith_invariants(mat) -> tuple[int, ...]:
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    Integer elimination, column by column: Euclid's algorithm on the rows
    leaves one row with a nonzero entry d in the column, and column
    operations reduce the rest of that row mod d; a nonzero remainder is
    swapped into the column and the step repeats with a smaller d.  The
    diagonal this leaves is brought to divisibility order by replacing
    pairs with their gcd and lcm.  Exact at any size of entry; the rank
    over Q is the number of invariants.
    """
    rows = [[int(x) for x in row] for row in mat]
    diagonal = []
    for c in range(len(rows[0]) if rows else 0):
        while True:
            rows = [row for row in rows if any(row)]
            live = [row for row in rows if row[c]]
            if not live:
                break
            pivot = min(live, key=lambda row: abs(row[c]))
            d = pivot[c]
            if len(live) > 1:
                for i, row in enumerate(rows):
                    if row is not pivot and row[c]:
                        q = row[c] // d
                        rows[i] = [x - q * y for x, y in zip(row, pivot)]
                continue
            # every other row is 0 in column c, so column operations
            # against column c change the pivot row alone
            pivot[c + 1:] = [x % d for x in pivot[c + 1:]]
            rest = [j for j in range(c + 1, len(pivot)) if pivot[j]]
            if not rest:
                diagonal.append(abs(d))
                rows = [row for row in rows if row is not pivot]
                break
            j = min(rest, key=lambda j: abs(pivot[j]))
            for row in rows:
                row[c], row[j] = row[j], row[c]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return tuple(diagonal)
