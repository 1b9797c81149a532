import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxgrowth.linalg import (
    hnf_rows,
    int_det,
    int_inverse_unimodular,
    inv_mod,
    rank_mod,
    reduce_by_rref,
    rref_mod,
)


def test_int_det_small():
    assert int_det([[5]]) == 5
    assert int_det([[0, 1], [-1, 3]]) == 1
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3


def test_unimodular_inverse():
    mats = [[[0, 1], [1, 0]], [[0, 1], [-1, 7]], [[1]], [[-1]], [[1, 2], [1, 1]]]
    for m in mats:
        arr = np.array(m, dtype=np.int64)
        inv = int_inverse_unimodular(arr)
        assert np.array_equal(arr @ inv, np.eye(arr.shape[0], dtype=np.int64))


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        int_inverse_unimodular([[2, 0], [0, 1]])


def test_rref_and_rank():
    mat = [[2, 4, 6], [1, 2, 3], [0, 1, 1]]
    red, pivots = rref_mod(mat, 5)
    assert pivots == [0, 1]
    assert rank_mod(mat, 5) == 2
    # every pivot column holds a single 1
    for r, c in enumerate(pivots):
        col = [row[c] for row in red]
        assert col[r] == 1 and np.count_nonzero(col) == 1


def test_inv_mod():
    m = [[0, 1], [4, 3]]
    inv = inv_mod(m, 5)
    assert np.array_equal(np.array(m) @ inv % 5, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        inv_mod([[1, 1], [1, 1]], 5)


def test_reduce_by_rref_membership():
    basis = np.array([[1, 4]], dtype=np.int64)
    red, pivots = rref_mod(basis, 5)
    assert not any(reduce_by_rref([2, 3], red, pivots, 5))  # 2*(1,4) = (2,3)
    assert any(reduce_by_rref([1, 1], red, pivots, 5))


class TestBeyondInt64:
    """Entries and moduli past 2^63 stay exact."""

    @staticmethod
    def product(a, b, p=None):
        # plain Python ints, independent of the library's own product
        a = [[int(x) for x in row] for row in a]
        b = [[int(x) for x in row] for row in b]
        prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        return prod if p is None else [[x % p for x in row] for row in prod]

    def test_inv_mod_large_prime(self):
        p = 10 ** 10 + 19
        m = [[3, p - 1], [p - 2, 5]]
        assert self.product(m, inv_mod(m, p), p) == [[1, 0], [0, 1]]

    def test_int_det_past_int64(self):
        assert int_det([[2 ** 63]]) == 2 ** 63

    def test_unimodular_inverse_near_2_70(self):
        u = [[2 ** 70 + 1, 2 ** 70], [2 ** 70, 2 ** 70 - 1]]
        assert int_det(u) == -1
        inv = int_inverse_unimodular(u)
        assert self.product(u, inv) == [[1, 0], [0, 1]]
        assert self.product(inv, u) == [[1, 0], [0, 1]]


class TestHnf:
    def test_known_lattices(self):
        assert hnf_rows([[3, 0], [0, 3], [1, 1]]) == ((1, 1), (0, 3))
        assert hnf_rows([[5, 0], [0, 5], [1, -1]]) == ((1, 4), (0, 5))
        assert hnf_rows([[2, 0], [0, 2]]) == ((2, 0), (0, 2))

    def test_drops_dependent_rows(self):
        assert hnf_rows([[2, 4], [1, 2]]) == ((1, 2),)
        assert hnf_rows([[0, 0], [0, 0]]) == ()

    def test_canonical_under_row_mixing(self):
        rng = np.random.default_rng(7)
        base = np.array([[2, 1, 0], [0, 3, 1], [0, 0, 4]], dtype=np.int64)
        h = hnf_rows(base)
        for _ in range(25):
            u = np.eye(3, dtype=np.int64)
            for _ in range(6):
                i, j = rng.integers(0, 3, size=2)
                if i != j:
                    u[i] += int(rng.integers(-3, 4)) * u[j]
            assert np.array_equal(hnf_rows(u @ base), h)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), min_size=1, max_size=4))
    def test_hnf_shape_invariants(self, rows):
        h = np.array(hnf_rows(rows))
        # echelon with positive pivots, entries above each pivot reduced
        last_pivot = -1
        for r in range(h.shape[0]):
            nz = np.flatnonzero(h[r])
            assert nz.size > 0
            pivot = int(nz[0])
            assert pivot > last_pivot
            last_pivot = pivot
            assert h[r, pivot] > 0
            for above in range(r):
                assert 0 <= h[above, pivot] < h[r, pivot]
