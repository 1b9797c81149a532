import inspect
import sys

import numpy as np
import pytest

from maxgrowth import cli, core, derivations, formulas, modules, recursion
from maxgrowth.core import (
    classify_index,
    hk_action_matrices,
    lattice_presentation,
    make_gk,
    primes_up_to,
)
from maxgrowth.derivations import count_derivations, solution_space
from maxgrowth.formulas import max_count_gk, max_count_hk
from maxgrowth.lowindex import oracle_max_counts
from maxgrowth.modules import ModuleAction, maximal_submodules, quotient_action, reduce_mod_p
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
        assert max_count_split(ext, 1, 3) == 4
        # H_1 at n = 3: m_3(G_2) + |Der(G_2, Z^2/M_{3,-1})| = 4 + 3
        assert max_count_split(hk_lattice_extension(1), 4, 3) == 7
        # composite n contributes nothing beyond the quotient
        assert max_count_split(hk_lattice_extension(1), 17, 12) == 17


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


class TestFarPrimes:
    @pytest.mark.parametrize(
        "n", [1009, 1009 ** 2, 10 ** 9 + 7, (10 ** 6 + 3) ** 2, 2 ** 61 - 1]
    )
    @pytest.mark.parametrize("k", [-3, -2, 0, 1, 2, 5])
    def test_matches_formula(self, k, n):
        # the invariant lines come from a quadratic mod p: no prime is too large
        assert recursive_hk(k, n) == max_count_hk(k, n).count


class TestStrongPseudoprime:
    # psi_12 = 399165290221 * 798330580441 passes the first 12 prime
    # Miller-Rabin witnesses; as a composite non-prime-power, m_n = 0
    PSI_12 = 318665857834031151167461

    def test_gk_routes_give_zero(self):
        assert max_count_gk(3, self.PSI_12).count == 0
        assert recursive_gk(3, self.PSI_12) == 0

    def test_hk_routes_give_zero(self):
        assert max_count_hk(5, self.PSI_12).count == 0
        assert max_count_hk(5, self.PSI_12).case_tag == "otherwise"
        assert recursive_hk(5, self.PSI_12) == 0


class TestIntegralCocycles:
    # the G_2..G_6 levels (Z x| G_{i-1}) and the H_-5..H_5 lattice levels
    LEVELS = [("gk", i) for i in range(2, 7)] + [("hk", k) for k in range(-5, 6)]

    @staticmethod
    def level(family, i):
        return recursion._gk_level(i) if family == "gk" else recursion._hk_level(i)

    @pytest.mark.parametrize("family,i", LEVELS)
    def test_reduced_system_counts_derivations(self, family, i):
        ext = self.level(family, i)
        for p in primes_up_to(199):
            expected = count_derivations(ext.quotient, reduce_mod_p(ext.module, p)).count
            assert solution_space(ext.cocycles, p).count == expected, p

    @pytest.mark.parametrize("family,i", LEVELS)
    def test_max_count_split_matches_quotient_path(self, family, i):
        # every summand through the quotient action, as for a line quotient
        ext = self.level(family, i)
        indices = list(primes_up_to(199)) + [p * p for p in primes_up_to(29)]
        for n in indices:
            expected = sum(
                count_derivations(ext.quotient, quotient_action(sub)).count
                for sub in maximal_submodules(ext.module, n)
            )
            assert max_count_split(ext, 0, n) == expected, n


class TestSmithPath:
    """The pN term read off each level's Smith invariants."""

    def test_level_invariants(self):
        for i in range(2, 13):
            assert recursion._gk_level(i).cocycles.invariants == (2,) * (i - 2), i
        for k in [*range(-12, 13), -1011, -1007, 1007, 1011]:
            expected = (1,) if k == 2 else (1, abs(k - 2))
            assert recursion._hk_level(k).cocycles.invariants == expected, k

    @pytest.mark.parametrize("p", [4, 1, 6, 0])
    def test_rejects_a_modulus_that_is_not_prime(self, p):
        with pytest.raises(ValueError, match=f"p={p}"):
            solution_space(recursion._hk_level(6).cocycles, p)

    def test_route_2_does_not_prove_p_prime_again(self, monkeypatch):
        # every p reaching the derivation counts comes from a reduced
        # ModuleAction, which proved it prime when it was built
        proofs = []
        monkeypatch.setattr(derivations, "is_prime", lambda p: proofs.append(p) or True)
        for n in (2, 3, 4, 5, 9, 25, 49, 1009, 1009 ** 2):
            for k in (-3, 0, 1, 2, 6):
                assert recursive_hk(k, n) == max_count_hk(k, n).count, (k, n)
            assert recursive_gk(5, n) == max_count_gk(5, n).count, n
        assert proofs == []

    @pytest.mark.parametrize("k", [12, 20, 30])
    def test_gk_at_large_k(self, k):
        for n in range(2, 201):
            assert recursive_gk(k, n) == max_count_gk(k, n).count, n

    @pytest.mark.parametrize("n", [1009, 1009 ** 2, 1013])
    @pytest.mark.parametrize("k", [1011, 1007, -1007, -1011])
    def test_hk_where_p_divides_k_minus_or_plus_2(self, k, n):
        # p = 1009 divides k - 2 at k = 1011, -1007 and k + 2 at k = 1007, -1011;
        # p = 1013 divides k + 2 at k = 1011 and k - 2 at k = -1011
        assert recursive_hk(k, n) == max_count_hk(k, n).count


class TestClassifiedOnce:
    @pytest.mark.parametrize("n", [997, 961, 999])  # prime, prime square, composite
    @pytest.mark.parametrize("route,k", [(recursive_gk, 6), (recursive_hk, 5)])
    def test_one_classification_per_cell(self, monkeypatch, route, k, n):
        calls = []

        def counting(m):
            calls.append(m)
            return classify_index(m)

        for module in (recursion, modules):
            monkeypatch.setattr(module, "classify_index", counting)
        route(k, n)
        assert calls == [n]


class TestSummandTable:
    def test_matches_branch_values(self):
        # the derivation-count sum alone: n^2 / n / n / 0 by case
        for p in primes_up_to(31):
            for k in range(-10, 11):
                ext = hk_lattice_extension(k)
                sigma_p = max_count_split(ext, 0, p)
                if (k - 2) % p == 0:
                    assert sigma_p == p * p, (p, k)
                elif (k + 2) % p == 0 and p > 2:
                    assert sigma_p == p, (p, k)
                else:
                    # p coprime to (k-2)(k+2): no index-p submodule at all
                    assert sigma_p == 0, (p, k)
                sigma_p2 = max_count_split(ext, 0, p * p)
                expected = 0 if ((k - 2) * (k + 2)) % p == 0 else p * p
                assert sigma_p2 == expected, (p, k)

    def test_additivity(self):
        # output minus the quotient count is a sum of powers of p
        for k, n in [(2, 7), (1, 3), (3, 9), (0, 4), (4, 25), (5, 8)]:
            ext = hk_lattice_extension(k)
            base = max_count_split(ext, 0, n)
            assert max_count_split(ext, 100, n) == base + 100


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


class TestWithoutThePresentation:
    """Route 2 reads H_k's action matrices and never its presentation."""

    @pytest.fixture(autouse=True)
    def no_presentation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("route 2 built a presentation")

        monkeypatch.setattr(core, "lattice_presentation", forbidden)
        _clear_level_caches()  # rebuild the chain levels under the patch

    def test_recursion(self):
        for n in (2, 3, 5, 25):
            assert recursive_hk(10 ** 19, n) == max_count_hk(10 ** 19, n).count

    def test_verify(self, capsys):
        argv = ["verify", "--family", "hk", "--k", str(10 ** 19), "--nmax", "6"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "summary: cells=5 pass=5 fail=0 oracle_skipped=0"
        )


EYE = ((1, 0), (0, 1))
MINUS_I = ((-1, 0), (0, -1))
SWAP = ((0, 1), (1, 0))


class TestLatticeCorpus:
    """Route 2 against the oracle on Z^2 x| G_2 for actions beyond (A, B_k):
    the oracle reads lattice_presentation's relators, route 2 the matrices."""

    @pytest.mark.parametrize(
        "mat_a,mat_b,counts",
        [
            (EYE, EYE, (15, 16, 0, 36, 0, 64, 0, 0)),
            (MINUS_I, EYE, (15, 40, 0, 156, 0, 400, 0, 0)),
            (EYE, MINUS_I, (15, 16, 0, 36, 0, 64, 0, 0)),
            (((1, 0), (0, -1)), ((-1, 0), (0, 1)), (15, 16, 0, 36, 0, 64, 0, 0)),
            (((1, 0), (0, -1)), ((1, 1), (0, 1)), (7, 13, 0, 31, 0, 57, 0, 0)),
            (SWAP, ((0, 1), (-1, 5)), (3, 13, 4, 6, 0, 15, 0, 0)),
            (SWAP, MINUS_I, (7, 10, 0, 16, 0, 22, 0, 0)),
        ],
        ids=["I,I", "-I,I", "I,-I", "diag,diag", "diag,shear", "A,B_5", "A,-I"],
    )
    def test_route_2_matches_oracle(self, mat_a, mat_b, counts):
        ext = SplitExtension(make_gk(2), ModuleAction(2, None, (mat_a, mat_b)))
        oracle = oracle_max_counts(lattice_presentation(mat_a, mat_b), 9)
        route_2 = {n: max_count_split(ext, recursive_gk(2, n), n) for n in range(2, 10)}
        assert route_2 == oracle == dict(zip(range(2, 10), counts))


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
