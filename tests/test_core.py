import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from maxgrowth.core import (
    ALL_PRIMES,
    GroupPresentation,
    GroupSpec,
    PrimeSet,
    check_semidirect_compatibility,
    classify_index,
    hk_action_matrices,
    is_prime,
    least_symdiff_prime,
    make_gk,
    make_hk,
    primes_dividing,
    primes_up_to,
)
from maxgrowth.linalg import int_det


def trial_classification(n):
    factors = {}
    m, d = n, 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return classification_of(factors)


def classification_of(factors):
    """(kind, p, exponent) of the number with this prime factorization."""
    if not factors:
        return ("one", None, None)
    if len(factors) == 1:
        ((p, e),) = factors.items()
        kind = {1: "prime", 2: "prime_square"}.get(e, "prime_power")
        return (kind, p, e)
    return ("composite", None, None)


class TestPrimes:
    def test_small_values(self):
        sieve = set(primes_up_to(10_000))
        for n in range(10_000):
            assert is_prime(n) == (n in sieve)

    def test_large_deterministic(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 62 - 1)
        # strong pseudoprime to several bases, caught by the full witness set
        assert not is_prime(3215031751)

    def test_primes_dividing(self):
        assert primes_dividing(12) == PrimeSet((2, 3))
        assert primes_dividing(-5) == PrimeSet((5,))
        assert primes_dividing(0) is ALL_PRIMES
        assert primes_dividing(1) == PrimeSet(())

    @given(st.integers(min_value=-(10 ** 6), max_value=10 ** 6))
    def test_primes_dividing_sign_invariant(self, n):
        assert primes_dividing(n) == primes_dividing(-n)

    def test_least_symdiff(self):
        assert least_symdiff_prime(primes_dividing(12), primes_dividing(12)) is None
        assert least_symdiff_prime(primes_dividing(12), primes_dividing(4)) == 3
        assert least_symdiff_prime(ALL_PRIMES, ALL_PRIMES) is None
        # smallest prime outside a finite set
        assert least_symdiff_prime(ALL_PRIMES, primes_dividing(6)) == 5
        assert least_symdiff_prime(primes_dividing(1), ALL_PRIMES) == 2


class TestClassifyIndex:
    def test_examples(self):
        assert classify_index(9).kind == "prime_square"
        assert classify_index(9).p == 3
        assert classify_index(1).kind == "one"
        assert classify_index(12).kind == "composite"
        assert classify_index(8) == classify_index(8)
        assert (classify_index(8).kind, classify_index(8).p, classify_index(8).exponent) == (
            "prime_power", 2, 3,
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify_index(0)
        with pytest.raises(ValueError):
            classify_index(-4)

    def test_against_trial_division_exhaustive(self):
        for n in range(1, 30_000):
            cls = classify_index(n)
            assert (cls.kind, cls.p, cls.exponent) == trial_classification(n)

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=10 ** 6))
    def test_against_trial_division_sampled(self, n):
        cls = classify_index(n)
        assert (cls.kind, cls.p, cls.exponent) == trial_classification(n)

    def test_large_prime_powers(self):
        assert classify_index(2 ** 61).exponent == 61
        assert classify_index((2 ** 31 - 1) ** 2).kind == "prime_square"

    @pytest.mark.parametrize("q", [101, 103, 9973, 65537, 2 ** 31 - 1])
    def test_powers_of_primes_above_97(self, q):
        # no small prime divides these, so they take the e-th root branch
        e = 1
        while q ** e < 2 ** 64:
            cls = classify_index(q ** e)
            assert (cls.kind, cls.p, cls.exponent) == classification_of({q: e})
            e += 1

    def test_products_of_primes_above_97(self):
        large = [101, 103, 9973, 65537, 2 ** 31 - 1]
        for i, q in enumerate(large):
            for r in large[i + 1 :]:
                assert classify_index(q * r).kind == "composite", (q, r)
                # q r^2 and q^2 r are not perfect powers either
                assert classify_index(q * r * r).kind == "composite", (q, r)
                assert classify_index(q * q * r).kind == "composite", (q, r)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=2 ** 64 - 1))
    def test_against_factorint(self, n):
        cls = classify_index(n)
        assert (cls.kind, cls.p, cls.exponent) == classification_of(factorint(n))


class TestMakeGk:
    def test_rank_one_is_free(self):
        pres = make_gk(1)
        assert pres.num_generators == 1
        assert pres.relators == ()

    def test_g2_matches_convention(self):
        pres = make_gk(2)
        assert pres.generators == ("a", "b")
        assert pres.relators == ((1, 2, -1, 2),)

    def test_g3_relators(self):
        assert make_gk(3).relators == ((1, 2, -1, 2), (1, 3, -1, 3), (2, 3, -2, 3))

    def test_relator_count(self):
        for k in range(1, 13):
            assert len(make_gk(k).relators) == k * (k - 1) // 2

    def test_rejects_bad_k(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                make_gk(k)


class TestMakeHk:
    def test_action_matrices(self):
        pres, a, b = make_hk(0)
        assert a == ((0, 1), (1, 0))
        assert b == ((0, 1), (-1, 0))

    def test_conjugation_relator_reads_off_columns(self):
        pres, _, _ = make_hk(3)
        # b t2 b^-1 = t1 t2^3, recorded as b t2 b^-1 t2^-3 t1^-1
        assert pres.relators[5] == (3, 2, -3, -2, -2, -2, -1)

    def test_negative_k(self):
        pres, _, b = make_hk(-2)
        assert pres.relators[5] == (3, 2, -3, 2, 2, -1)
        assert b == ((0, 1), (-1, -2))

    def test_compatibility_sweep(self):
        for k in range(-20, 21):
            a, b = hk_action_matrices(k)
            assert int_det(b) == 1
            assert check_semidirect_compatibility(a, b)

    def test_k_beyond_int64_rejected(self):
        for k in (2 ** 63, -(2 ** 63), 10 ** 19):
            with pytest.raises(ValueError, match="2\\^63"):
                hk_action_matrices(k)
            with pytest.raises(ValueError, match="2\\^63"):
                make_hk(k)
        _, b = hk_action_matrices(2 ** 63 - 1)
        assert b[1][1] == 2 ** 63 - 1

    def test_presentation_shape(self):
        pres, _, _ = make_hk(7)
        assert pres.generators == ("t1", "t2", "b", "a")
        assert len(pres.relators) == 6


class TestCompatibility:
    def test_identity_pair(self):
        eye = np.eye(2, dtype=np.int64)
        a, _ = hk_action_matrices(0)
        assert check_semidirect_compatibility(a, eye)  # A I A^-1 I = I

    def test_shear_fails(self):
        eye = np.eye(2, dtype=np.int64)
        assert not check_semidirect_compatibility(eye, [[1, 1], [0, 1]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            check_semidirect_compatibility([[2, 0], [0, 1]], np.eye(2, dtype=np.int64))


class TestPresentationValidation:
    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            GroupPresentation(("a",), ((1, 2),))
        with pytest.raises(ValueError):
            GroupPresentation(("a",), ((0,),))

    def test_rejects_unreduced_relators(self):
        with pytest.raises(ValueError):
            GroupPresentation(("a", "b"), ((1, -1),))


class TestGroupSpec:
    def test_gk_requires_positive_k(self):
        with pytest.raises(ValueError):
            GroupSpec("gk", 0)
        GroupSpec("gk", 1)
        GroupSpec("hk", -7)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            GroupSpec("bs", 2)
