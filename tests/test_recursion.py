import inspect
import sys

import numpy as np
import pytest

from maxgrowth import cli, formulas, recursion
from maxgrowth.core import hk_action_matrices, make_gk, primes_up_to
from maxgrowth.formulas import max_count_gk, max_count_hk
from maxgrowth.modules import ModuleAction
from maxgrowth.recursion import (
    SplitExtension,
    hk_lattice_extension,
    max_count_split,
    recursive_gk,
    recursive_hk,
)


class TestSplitExtension:
    def test_rejects_incompatible_action(self):
        shear = ModuleAction(2, None, (np.eye(2, dtype=np.int64), np.array([[1, 1], [0, 1]])))
        with pytest.raises(ValueError):
            SplitExtension(make_gk(2), shear)

    def test_rejects_reduced_module(self):
        from maxgrowth.modules import reduce_mod_p

        ext = hk_lattice_extension(1)
        with pytest.raises(ValueError):
            SplitExtension(ext.quotient, reduce_mod_p(ext.module, 3))

    def test_examples(self):
        # G_2 = Z x| G_1 at n = 3: 1 + |Der(G_1, Z/3)| = 4
        ext = SplitExtension(make_gk(1), ModuleAction(1, None, (np.array([[-1]]),)))
        assert max_count_split(ext, lambda n: 1, 3) == 4
        # H_1 at n = 3: m_3(G_2) + |Der(G_2, Z^2/M_{3,-1})| = 4 + 3
        assert max_count_split(hk_lattice_extension(1), lambda n: 4, 3) == 7
        # composite n contributes nothing beyond the quotient
        assert max_count_split(hk_lattice_extension(1), lambda n: 17, 12) == 17


class TestRecursiveGk:
    @pytest.mark.parametrize(
        "k,n,expected",
        [(3, 2, 7), (2, 9, 0), (5, 11, 45), (1, 5, 1), (1, 6, 0), (4, 2, 15)],
    )
    def test_examples(self, k, n, expected):
        assert recursive_gk(k, n) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            recursive_gk(0, 5)
        with pytest.raises(ValueError):
            recursive_gk(2, 1)

    def test_matches_formula(self):
        for k in range(1, 7):
            for n in range(2, 501):
                assert recursive_gk(k, n) == max_count_gk(k, n).count, (k, n)

    @pytest.mark.parametrize("p", [1000003, 10 ** 10 + 19])
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_primes_beyond_enumeration_bound(self, k, p):
        # rank 1 has a single codimension-1 subspace, so nothing is enumerated
        assert recursive_gk(k, p) == max_count_gk(k, p).count

    def test_large_prime_values(self):
        assert recursive_gk(3, 1000003) == 2000007
        assert recursive_gk(3, 10 ** 10 + 19) == 20000000039


class TestRecursiveHk:
    @pytest.mark.parametrize(
        "k,n,expected",
        [(2, 5, 31), (3, 25, 0), (3, 49, 49), (7, 3, 7), (1, 9, 0), (0, 9, 9)],
    )
    def test_examples(self, k, n, expected):
        assert recursive_hk(k, n) == expected

    def test_matches_formula(self):
        for k in range(-10, 11):
            for n in range(2, 501):
                assert recursive_hk(k, n) == max_count_hk(k, n).count, (k, n)


class TestSummandTable:
    def test_matches_branch_values(self):
        # the derivation-count sum alone: n^2 / n / n / 0 by case
        for p in primes_up_to(31):
            for k in range(-10, 11):
                ext = hk_lattice_extension(k)
                sigma_p = max_count_split(ext, lambda n: 0, p)
                if (k - 2) % p == 0:
                    assert sigma_p == p * p, (p, k)
                elif (k + 2) % p == 0 and p > 2:
                    assert sigma_p == p, (p, k)
                else:
                    # p coprime to (k-2)(k+2): no index-p submodule at all
                    assert sigma_p == 0, (p, k)
                sigma_p2 = max_count_split(ext, lambda n: 0, p * p)
                expected = 0 if ((k - 2) * (k + 2)) % p == 0 else p * p
                assert sigma_p2 == expected, (p, k)

    def test_additivity(self):
        # output minus the quotient count is a sum of powers of p
        for k, n in [(2, 7), (1, 3), (3, 9), (0, 4), (4, 25), (5, 8)]:
            ext = hk_lattice_extension(k)
            base = max_count_split(ext, lambda _n: 0, n)
            assert max_count_split(ext, lambda _n: 100, n) == base + 100


def _clear_level_caches():
    recursion._gk_level.cache_clear()
    recursion._hk_level.cache_clear()


class TestStandsAlone:
    def test_independent_of_closed_forms(self, monkeypatch):
        cells = [(recursive_hk, k, n) for k in range(-3, 4) for n in range(2, 61)]
        cells += [(recursive_gk, k, n) for k in range(1, 5) for n in range(2, 61)]
        before = [route(k, n) for route, k, n in cells]

        def forbidden(*args, **kwargs):
            raise AssertionError("the recursion route called a closed form")

        public = {
            fn
            for name, fn in inspect.getmembers(formulas, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == formulas.__name__
        }
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "maxgrowth":
                continue
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in public):
                    monkeypatch.setattr(module, attr, forbidden)
        _clear_level_caches()  # rebuild the chain levels under the patch too
        assert [route(k, n) for route, k, n in cells] == before


class TestValidatedOnce:
    @pytest.mark.parametrize(
        "family,k_range,levels",
        [("hk", "-3..3", 8), ("gk", "1..6", 5)],  # hk: 7 lattice levels + G_2
    )
    def test_each_level_validated_once(self, monkeypatch, capsys, family, k_range, levels):
        calls = []
        satisfies = ModuleAction.satisfies

        def counting(self, presentation):
            calls.append(presentation)
            return satisfies(self, presentation)

        monkeypatch.setattr(ModuleAction, "satisfies", counting)
        _clear_level_caches()
        argv = ["verify", "--family", family, f"--k={k_range}", "--nmax", "200"]
        assert cli.main(argv) == 0
        assert "fail=0" in capsys.readouterr().out
        assert 0 < len(calls) <= levels
