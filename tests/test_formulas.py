import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import factorint

from maxgrowth.core import GroupSpec, classify_index, primes_up_to
from maxgrowth.formulas import (
    max_count_gk,
    max_count_hk,
    mdeg,
    noniso_certificate,
)

PRIMES_TO_100 = primes_up_to(100)


class TestGkClosedForm:
    @pytest.mark.parametrize(
        "k,n,expected",
        [
            (2, 2, 3),
            (3, 5, 11),
            (4, 6, 0),
            (1, 7, 1),
            (1, 2, 1),
            (6, 2, 63),
            (5, 97, 1 + 4 * 97),
            (2, 1, 0),
            (3, 9, 0),
            (4, 1024, 0),
        ],
    )
    def test_values(self, k, n, expected):
        assert max_count_gk(k, n).count == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            max_count_gk(0, 5)
        with pytest.raises(ValueError):
            max_count_gk(2, 0)

    def test_case_tags_consistent_with_classification(self):
        for k in (1, 2, 5):
            for n in range(1, 200):
                value = max_count_gk(k, n)
                cls = classify_index(n)
                if value.case_tag == "one":
                    assert cls.kind == "one"
                elif value.case_tag in ("two", "odd_prime"):
                    assert cls.kind == "prime"
                else:
                    assert value.case_tag == "not_prime" and cls.kind != "prime"
                    assert value.count == 0

    def test_prime_increment(self):
        # adding a generator adds p maximal subgroups at odd p, 2^k at p = 2
        for k in range(1, 8):
            for p in PRIMES_TO_100:
                delta = max_count_gk(k + 1, p).count - max_count_gk(k, p).count
                assert delta == (2 ** k if p == 2 else p)


class TestHkClosedForm:
    @pytest.mark.parametrize(
        "k,n,expected",
        [
            (2, 3, 13),
            (1, 3, 7),
            (3, 7, 8),
            (1, 25, 25),
            (0, 2, 7),
            (4, 9, 0),
            (2, 4, 0),
            (3, 4, 4),
            (1, 9, 0),
            (0, 9, 9),
            (3, 9, 9),
            (-2, 2, 7),
            (-1, 3, 13),
            (5, 1, 0),
            (2, 1000, 0),
            (0, 8, 0),
        ],
    )
    def test_values(self, k, n, expected):
        assert max_count_hk(k, n).count == expected

    def test_h2_is_quadratic_at_every_prime(self):
        for p in PRIMES_TO_100:
            value = max_count_hk(2, p)
            assert value.count == p * p + p + 1
            assert value.case_tag == "p_divides_k_minus_2"

    def test_p2_coincidence_routes_to_first_case(self):
        # 2 | k + 2 iff k even iff 2 | k - 2: the quadratic case absorbs p = 2
        for k in range(-10, 11, 2):
            assert max_count_hk(k, 2).count == 7
        for k in range(-9, 11, 2):
            assert max_count_hk(k, 2).count == 3

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            max_count_hk(3, 0)

    def test_zero_branches_have_zero_count(self):
        for k in range(-10, 11):
            for n in range(1, 300):
                value = max_count_hk(k, n)
                if value.case_tag in ("one", "otherwise"):
                    assert value.count == 0
                else:
                    assert value.count > 0

    def test_case_tags_consistent_with_classification(self):
        prime_tags = {"p_divides_k_minus_2", "p_divides_k_plus_2", "p_coprime"}
        for k in (-3, 0, 2, 5):
            for n in range(1, 300):
                value = max_count_hk(k, n)
                kind = classify_index(n).kind
                if value.case_tag == "one":
                    assert kind == "one"
                elif value.case_tag in prime_tags:
                    assert kind == "prime"
                elif value.case_tag == "p_square_coprime":
                    assert kind == "prime_square"
                else:
                    assert value.case_tag == "otherwise"

    def test_vanishes_off_prime_powers(self):
        for k in range(-8, 9):
            for n in range(2, 10_001):
                kind = classify_index(n).kind
                if kind == "composite" or kind == "prime_power":
                    assert max_count_hk(k, n).count == 0
                if kind != "prime":
                    assert max_count_gk(min(abs(k) + 1, 8), n).count == 0


@given(
    k=st.integers(min_value=-30, max_value=30),
    p=st.sampled_from(primes_up_to(1000)),
)
def test_congruence_at_primes(k, p):
    # every live prime branch is 1 mod p
    assert max_count_hk(k, p).count % p == 1
    assert max_count_gk(abs(k) + 1, p).count % p == 1


class TestMdeg:
    def test_exact_values(self):
        assert mdeg(GroupSpec("hk", 2), 1000).exact == 2
        assert mdeg(GroupSpec("hk", 5), 1000).exact == 1
        assert mdeg(GroupSpec("hk", -3), 1000).exact == 1
        assert mdeg(GroupSpec("gk", 3), 1000).exact == 1
        assert mdeg(GroupSpec("gk", 1), 1000).exact == 0

    def test_slope_tracks_exact(self):
        for family, k in [("hk", 2), ("hk", 3), ("hk", -1), ("gk", 2), ("gk", 5)]:
            value = mdeg(GroupSpec(family, k), 10_000)
            assert abs(value.empirical_slope - value.exact) <= 0.25, (family, k)

    def test_slope_is_a_max_over_the_window(self):
        value = mdeg(GroupSpec("hk", 2), 2000)
        # largest slope in (1000, 2000] comes from the smallest prime there
        expected = math.log(1009 ** 2 + 1009 + 1) / math.log(1009)
        assert value.empirical_slope == pytest.approx(expected)

    def test_rejects_small_limit(self):
        with pytest.raises(ValueError):
            mdeg(GroupSpec("hk", 2), 99)


class TestNoniso:
    def test_h2_vs_h3(self):
        cert = noniso_certificate(2, 3)
        assert cert is not None
        assert (cert.p, cert.count_i, cert.count_j) == (2, 7, 3)
        assert cert.side == "minus"  # 2 divides 0 = i - 2 but not 1 = j - 2

    def test_identical_groups(self):
        assert noniso_certificate(1, 1) is None
        assert noniso_certificate(4, 4) is None

    def test_least_witness(self):
        cert = noniso_certificate(1, 5)
        assert cert is not None and cert.p == 3
        assert {cert.count_i, cert.count_j} == {7, 13}

    def test_plus_side_witness(self):
        cert = noniso_certificate(0, 4)
        assert cert is not None
        assert (cert.p, cert.side) == (3, "plus")  # pi(2) = {2} vs pi(6) = {2,3}

    def test_minus_side_witness_found_by_rho(self):
        # i - 2 is a product of two primes near 10^9, beyond trial division
        i, j = 1000000710000062523, 3
        minus = min(set(factorint(i - 2)) ^ set(factorint(j - 2)))
        plus = min(set(factorint(i + 2)) ^ set(factorint(j + 2)))
        assert minus < plus
        cert = noniso_certificate(i, j)
        assert (cert.p, cert.side) == (minus, "minus")
        assert (cert.count_i, cert.count_j) == (minus ** 2 + minus + 1, minus + 1)

    def test_certificates_never_lie(self):
        for i in range(-5, 8):
            for j in range(-5, 8):
                cert = noniso_certificate(i, j)
                if cert is None:
                    continue
                vi = max_count_hk(i, cert.p)
                vj = max_count_hk(j, cert.p)
                assert vi.count == cert.count_i and vj.count == cert.count_j
                assert cert.count_i != cert.count_j
                assert vi.case_tag != vj.case_tag

    def test_symmetric_existence(self):
        for i in range(-4, 7):
            for j in range(-4, 7):
                assert (noniso_certificate(i, j) is None) == (
                    noniso_certificate(j, i) is None
                )
