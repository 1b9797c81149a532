"""Small exact linear algebra: integer matrices, mod-p elimination, HNF.

A matrix is a tuple of row tuples of Python ints: immutable, so results
can be shared and memoized, and exact at any size of entry or modulus.
Inputs may be any nested sequence of ints, arrays included.

Everything here works on tiny dense matrices (rank <= 3 in practice, plus
cocycle systems with a few dozen rows), so the implementations favour
exactness and determinism over asymptotics: cofactor determinants, plain
Gaussian elimination with first-nonzero pivoting, and a gcd-free row HNF.
"""

from __future__ import annotations

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


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    return tuple(row[:j] + row[j + 1:] for r, row in enumerate(a) if r != i)


def int_det(mat) -> int:
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    a = as_int_matrix(mat)
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return sum((-1) ** j * a[0][j] * int_det(_minor(a, 0, j)) for j in range(n))


def int_inverse_unimodular(mat) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1 (adjugate)."""
    a = as_int_matrix(mat)
    d = int_det(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    n = len(a)
    if n == 1:
        return ((d,),)
    return tuple(
        tuple(d * (-1) ** (i + j) * int_det(_minor(a, j, i)) for j in range(n))
        for i in range(n)
    )


def rref_mod(mat, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (rref, pivot_columns); zero rows are kept, at the bottom.
    Pivoting picks the first nonzero entry in each column, which keeps the
    reduction deterministic.
    """
    a = [[int(x) % p for x in row] for row in mat]
    rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        sel = next((i for i in range(r, rows) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            f = a[i][c]
            if i != r and f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(map(tuple, a)), pivots


def rank_mod(mat, p: int) -> int:
    return len(rref_mod(mat, p)[1])


def inv_mod(mat, p: int) -> Matrix:
    """Matrix inverse over F_p, via elimination on an augmented matrix."""
    a = as_int_matrix(mat)
    n = len(a)
    red, pivots = rref_mod([row + e for row, e in zip(a, identity(n))], p)
    if pivots[:n] != list(range(n)):
        raise ValueError(f"matrix is singular mod {p}")
    return tuple(row[n:] for row in red)


def reduce_by_rref(vec, rref, pivots: list[int], p: int) -> tuple[int, ...]:
    """Remainder of a vector after eliminating the pivot coordinates."""
    v = [int(x) % p for x in vec]
    for r, c in enumerate(pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, rref[r])]
    return tuple(v)


def in_row_span_mod(vec, rref, pivots: list[int], p: int) -> bool:
    return not any(reduce_by_rref(vec, rref, pivots, p))


def hnf_rows(rows) -> Matrix:
    """Row Hermite normal form of the lattice generated by integer rows.

    The result is in echelon form with positive pivots and the entries
    above each pivot reduced to 0 <= entry < pivot; zero rows are dropped.
    HNF is a canonical form, so two generating sets span the same lattice
    exactly when their HNFs are equal.
    """
    mat = [list(map(int, row)) for row in rows]
    nrows = len(mat)
    top = 0
    for col in range(len(mat[0]) if mat else 0):
        if top == nrows:
            break
        # gcd-style elimination: make mat[top][col] the only nonzero at or
        # below row `top` in this column
        while True:
            nonzero = [i for i in range(top, nrows) if mat[i][col]]
            if not nonzero:
                break
            sel = min(nonzero, key=lambda i: abs(mat[i][col]))
            mat[top], mat[sel] = mat[sel], mat[top]
            done = True
            for i in range(top + 1, nrows):
                if mat[i][col]:
                    q = mat[i][col] // mat[top][col]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
                    if mat[i][col]:
                        done = False
            if done:
                break
        if mat[top][col]:
            if mat[top][col] < 0:
                mat[top] = [-x for x in mat[top]]
            for i in range(top):
                q = mat[i][col] // mat[top][col]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
            top += 1
    return tuple(map(tuple, mat[:top]))
