import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxgrowth.core import primes_up_to
from maxgrowth.linalg import (
    int_det,
    int_inverse_unimodular,
    inv_mod,
    rank_mod,
    reduce_by_rref,
    rref_mod,
    smith_invariants,
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


def _int_matrices(max_rows: int, max_cols: int, bound: int):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-bound, bound), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


class TestSmithInvariants:
    def test_examples(self):
        assert smith_invariants([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == (2, 6, 12)
        assert smith_invariants([[2, 0], [0, 3]]) == (1, 6)
        assert smith_invariants([[0, 1], [-1, 7]]) == (1, 1)
        assert smith_invariants([[4], [6]]) == (2,)
        assert smith_invariants([[0, 0, 0]]) == ()
        assert smith_invariants([]) == ()

    def test_entries_past_int64(self):
        big = 2 ** 70
        assert smith_invariants([[big, 0], [0, big + 1]]) == (1, big * (big + 1))

    @settings(max_examples=300, deadline=None)
    @given(_int_matrices(8, 6, 6))
    @example([])
    @example([[0] * 6] * 8)
    def test_rank_mod_every_small_prime(self, mat):
        invariants = smith_invariants(mat)
        assert all(d > 0 for d in invariants)
        assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))
        for p in primes_up_to(50):
            assert sum(1 for d in invariants if d % p) == rank_mod(mat, p), p


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

