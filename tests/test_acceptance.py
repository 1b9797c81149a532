"""Acceptance suite: every criterion gets one test and one printed verdict.

The verdict lines are written to the real stdout so they show up under
pytest's default capture too.  The oracle corpora (criteria 3 and 4) are
computed once in module-scoped fixtures and reused by the congruence
property (criterion 7).  Each fixture runs one oracle pass per group,
which counts m_n at every index up to the largest one the corpus asks of
that group.
"""

import sys
import time
from contextlib import contextmanager

import pytest

from maxgrowth.core import GroupSpec, hk_action_matrices, make_gk, make_hk, primes_up_to
from maxgrowth.derivations import brute_force_count, count_derivations
from maxgrowth.formulas import max_count_gk, max_count_hk, mdeg, noniso_certificate
from maxgrowth.lowindex import oracle_max_counts
from maxgrowth.modules import (
    ModuleAction,
    classify_rank2_submodules,
    maximal_submodules,
    quotient_action,
)
from maxgrowth.recursion import recursive_gk, recursive_hk

GK_ORACLE_CELLS = (
    [(2, n) for n in range(2, 13)]
    + [(3, n) for n in range(2, 9)]
    + [(4, n) for n in range(2, 6)]
)
HK_ORACLE_KS = range(-2, 5)
HK_ORACLE_NS = (2, 3, 4, 5, 7, 9)
HK_REQUIRED_AT_9 = {0, 1, 2, 3}
# n = 25 takes the coprime p^2 branch at p = 5 for these k
HK_REQUIRED_AT_25 = (-1, 0, 1)
# and the otherwise branch (m_25 = 0) for these; k - 2 = 0 for k = 2, so
# every prime divides it
HK_OTHERWISE_AT_25 = (-2, 2)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS", file=sys.__stdout__)


@pytest.fixture(scope="module")
def gk_oracle():
    t0 = time.monotonic()
    nmax = {}
    for k, n in GK_ORACLE_CELLS:
        nmax[k] = max(nmax.get(k, n), n)
    counts = {k: oracle_max_counts(make_gk(k), top) for k, top in nmax.items()}
    results = {(k, n): counts[k][n] for k, n in GK_ORACLE_CELLS}
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def hk_oracle():
    t0 = time.monotonic()
    results = {}
    for k in HK_ORACLE_KS:
        pres, _, _ = make_hk(k)
        ns = HK_ORACLE_NS + ((25,) if k in HK_REQUIRED_AT_25 + HK_OTHERWISE_AT_25 else ())
        counts = oracle_max_counts(pres, max(ns))
        for n in ns:
            results[(k, n)] = "SKIPPED" if counts[n] is None else counts[n]
    return results, time.monotonic() - t0


def test_criterion_1_gk_formula_vs_recursion():
    with criterion(1, "m_n(G_k) formula vs recursion, k<=6, n<=1000"):
        t0 = time.monotonic()
        for k in range(1, 7):
            for n in range(2, 1001):
                assert recursive_gk(k, n) == max_count_gk(k, n).count, (k, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_2_hk_formula_vs_recursion():
    with criterion(2, "m_n(H_k) formula vs recursion, |k|<=10, n<=1000"):
        t0 = time.monotonic()
        for k in range(-10, 11):
            for n in range(2, 1001):
                assert recursive_hk(k, n) == max_count_hk(k, n).count, (k, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_3_gk_oracle_agreement(gk_oracle):
    with criterion(3, "oracle vs closed form on the G-family corpus"):
        results, elapsed = gk_oracle
        for (k, n), got in results.items():
            assert got == max_count_gk(k, n).count, (k, n, got)
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_criterion_4_hk_oracle_agreement(hk_oracle):
    with criterion(4, "oracle vs closed form on the H-family corpus"):
        results, _ = hk_oracle
        for (k, n), got in results.items():
            if got == "SKIPPED":
                assert n == 9, f"only n=9 may be skipped, not {(k, n)}"
                assert k not in HK_REQUIRED_AT_9, f"k={k} must complete at n=9"
                continue
            assert got == max_count_hk(k, n).count, (k, n, got)
        for k in HK_REQUIRED_AT_9:
            assert results[(k, 9)] != "SKIPPED"
        # the required cells cover both the p^2 branch and the zero branch
        assert {max_count_hk(k, 9).count for k in HK_REQUIRED_AT_9} == {0, 9}
        for k in HK_REQUIRED_AT_25:
            assert max_count_hk(k, 25).case_tag == "p_square_coprime"
            assert results[(k, 25)] == 25, (k, results[(k, 25)])
        for k in HK_OTHERWISE_AT_25:
            expected = max_count_hk(k, 25)
            assert expected.case_tag == "otherwise"
            assert results[(k, 25)] == expected.count, (k, results[(k, 25)])


def test_criterion_5_derivation_closed_forms():
    with criterion(5, "derivation-count closed forms and brute force"):
        t0 = time.monotonic()
        primes = primes_up_to(31)
        # rank 1: 2^k at p = 2, p otherwise
        for k in range(1, 9):
            pres = make_gk(k)
            for p in primes:
                action = ModuleAction(1, p, ([[-1]],) * k)
                expected = 2 ** k if p == 2 else p
                assert count_derivations(pres, action).count == expected, (k, p)
        # rank 2: p^2 / p / p^2 on the three quotient types, where defined
        pres2 = make_gk(2)
        for k in range(-10, 11):
            lattice = ModuleAction(2, None, hk_action_matrices(k))
            for p in primes:
                for n in (p, p * p):
                    for sub in maximal_submodules(lattice, n):
                        induced = quotient_action(sub)
                        if n == p:
                            # Z^2/M_p gives p^2, Z^2/M_{p,-1} gives p
                            want = p * p if (k - 2) % p == 0 else p
                        else:
                            want = p * p  # Z^2/pZ^2
                        assert count_derivations(pres2, induced).count == want, (k, p, n)
        # brute-force agreement on every feasible corpus entry
        for k in range(1, 4):
            pres = make_gk(k)
            for p in (2, 3, 5):
                action = ModuleAction(1, p, ([[-1]],) * k)
                assert brute_force_count(pres, action) == count_derivations(pres, action).count
        for k in range(-6, 7):
            lattice = ModuleAction(2, None, hk_action_matrices(k))
            for p in (2, 3, 5):
                for n in (p, p * p):
                    for sub in maximal_submodules(lattice, n):
                        induced = quotient_action(sub)
                        assert brute_force_count(pres2, induced) == count_derivations(
                            pres2, induced
                        ).count, (k, p, n)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_6_submodule_classification():
    with criterion(6, "submodule classification and mod-p^2 oracle"):
        t0 = time.monotonic()
        for p in primes_up_to(31):
            for k in range(-10, 11):
                flags = classify_rank2_submodules(k, p)
                assert ("Mp" in flags.present) == ((k - 2) % p == 0), (p, k)
                assert ("MpMinus1" in flags.present) == ((k + 2) % p == 0), (p, k)
                assert ("PZ2" in flags.present) == (((k - 2) * (k + 2)) % p != 0), (p, k)
                lattice = ModuleAction(2, None, hk_action_matrices(k))
                divides = ((k - 2) * (k + 2)) % p == 0
                assert len(maximal_submodules(lattice, p)) == (1 if divides else 0)
                assert len(maximal_submodules(lattice, p * p)) == (0 if divides else 1)
        # exhaustive (Z/p^2)^2 subgroup oracle for p <= 5
        from test_modules import assert_modp2_oracle_matches

        for p in (2, 3, 5):
            for k in (-3, -1, 0, 1, 2, 3, 4):
                assert_modp2_oracle_matches(p, k)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_7_congruence_property(gk_oracle, hk_oracle):
    with criterion(7, "m_p = 1 mod p across families and methods"):
        primes = [p for p in primes_up_to(1000)]
        for k in range(1, 7):
            for p in primes:
                assert max_count_gk(k, p).count % p == 1, ("gk formula", k, p)
                assert recursive_gk(k, p) % p == 1, ("gk recursion", k, p)
        for k in range(-10, 11):
            for p in primes:
                assert max_count_hk(k, p).count % p == 1, ("hk formula", k, p)
                assert recursive_hk(k, p) % p == 1, ("hk recursion", k, p)
        for (k, p), got in gk_oracle[0].items():
            if p in (2, 3, 5, 7, 11):
                assert got % p == 1, ("gk oracle", k, p)
        for (k, p), got in hk_oracle[0].items():
            if got != "SKIPPED" and p in (2, 3, 5, 7):
                assert got % p == 1, ("hk oracle", k, p)


def test_criterion_8_mdeg_statements():
    with criterion(8, "growth degree slopes within 0.25"):
        for family, k, exact in [
            ("hk", 2, 2),
            ("hk", 3, 1),
            ("hk", -1, 1),
            ("gk", 2, 1),
            ("gk", 5, 1),
        ]:
            value = mdeg(GroupSpec(family, k), 10_000)
            assert value.exact == exact, (family, k)
            assert abs(value.empirical_slope - exact) <= 0.25, (family, k, value)


def test_criterion_9_noniso_certificates():
    with criterion(9, "non-isomorphism certificates on -3..5"):
        for i in range(-3, 6):
            for j in range(-3, 6):
                cert = noniso_certificate(i, j)
                if i == j:
                    assert cert is None
                    continue
                # on this window every pair differs in some pi(k -+ 2)
                assert cert is not None, (i, j)
                vi = max_count_hk(i, cert.p).count
                vj = max_count_hk(j, cert.p).count
                assert (vi, vj) == (cert.count_i, cert.count_j)
                assert vi != vj, (i, j, cert)
