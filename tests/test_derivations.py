import itertools

import numpy as np
import pytest

from maxgrowth.core import hk_action_matrices, make_gk, primes_up_to
from maxgrowth.derivations import (
    brute_force_count,
    build_system,
    count_derivations,
    word_derivation_row,
)
from maxgrowth.linalg import int_det, inv_mod
from maxgrowth.modules import (
    ModuleAction,
    invariant_subspaces,
    maximal_submodules,
    quotient_action,
    reduce_mod_p,
)

PRIMES_TO_31 = primes_up_to(31)


def minus_one_action(num_generators, p):
    return ModuleAction(1, p, (np.array([[-1]]),) * num_generators)


def g2_lattice_action(k, p):
    return reduce_mod_p(ModuleAction(2, None, hk_action_matrices(k)), p)


class TestWordRow:
    def test_single_letter(self):
        act = g2_lattice_action(3, 5)
        row = np.array(word_derivation_row((1,), act))
        assert row[:, :2].tolist() == [[1, 0], [0, 1]]
        assert not row[:, 2:].any()

    def test_cancelling_pair_gives_zero(self):
        act = g2_lattice_action(3, 5)
        for word in [(-1, 1), (1, -1), (2, -2), (-2, 2)]:
            assert not np.array(word_derivation_row(word, act)).any()

    def test_g2_relator_row_matches_coefficient_matrices(self):
        # the blocks of the a b a^-1 b row are I - B_k^-1 and A + B_k^-1,
        # and det(I - B_k^-1) = 2 - k
        for k, p in [(5, 7), (2, 3), (0, 5), (-3, 11), (7, 31)]:
            act = g2_lattice_action(k, p)
            row = np.array(word_derivation_row((1, 2, -1, 2), act))
            a_mat, b_mat = hk_action_matrices(k)
            b_inv = np.array(inv_mod(np.array(b_mat) % p, p))
            eye = np.eye(2, dtype=np.int64)
            assert np.array_equal(row[:, :2], (eye - b_inv) % p)
            assert np.array_equal(row[:, 2:], (a_mat + b_inv) % p)
            assert (int_det((eye - b_inv) % p) - (2 - k)) % p == 0

    def test_rank1_relator_row(self):
        # with every generator acting by -1, the relator x1 x2 x1^-1 x2
        # imposes 2 d(x1) = 2 d(x2)
        act = minus_one_action(2, 5)
        row = word_derivation_row((1, 2, -1, 2), act)
        assert row == ((2, 3),)

    def test_unknown_generator_rejected(self):
        act = minus_one_action(2, 5)
        with pytest.raises(ValueError):
            word_derivation_row((3,), act)


class TestBuildSystem:
    def test_row_count_is_relators_times_dim(self):
        pres = make_gk(4)
        act = minus_one_action(4, 3)
        system = build_system(pres, act)
        assert np.array(system.rows).shape == (6, 4)
        act2 = g2_lattice_action(1, 3)
        system2 = build_system(make_gk(2), act2)
        assert np.array(system2.rows).shape == (2, 4)

    def test_trivial_action_mod_2_gives_zero_system(self):
        act = ModuleAction(1, 2, (np.array([[1]]),) * 2)
        system = build_system(make_gk(2), act)
        assert not np.array(system.rows).any()

    def test_mp_quotient_gives_zero_system(self):
        # both coefficient blocks vanish on Z^2/M_p when p | k - 2
        red = g2_lattice_action(5, 3)
        sub = invariant_subspaces(red, 1)[0]
        q = quotient_action(red, sub)
        system = build_system(make_gk(2), q)
        assert not np.array(system.rows).any()

    def test_mismatched_action_rejected(self):
        with pytest.raises(ValueError):
            build_system(make_gk(3), minus_one_action(2, 5))


class TestClosedForms:
    def test_rank1_examples(self):
        assert count_derivations(make_gk(4), minus_one_action(4, 2)).count == 16
        assert count_derivations(make_gk(3), minus_one_action(3, 7)).count == 7

    def test_rank1_closed_form_sweep(self):
        # 2^k at p = 2 (the action is trivial there), p otherwise
        for k in range(1, 9):
            for p in PRIMES_TO_31:
                expected = 2 ** k if p == 2 else p
                got = count_derivations(make_gk(k), minus_one_action(k, p)).count
                assert got == expected, (k, p)

    def quotient_types(self, k, p):
        """Yield (tag, quotient action) for the maximal submodule quotients
        that exist at (k, p)."""
        act = ModuleAction(2, None, hk_action_matrices(k))
        for sub in maximal_submodules(act, p):
            tag = "Mp" if sub.subspace_basis == ((1, 1),) else "MpMinus1"
            if p == 2:
                tag = "Mp"  # the coincidence case
            yield tag, quotient_action(sub.ambient, sub)
        for sub in maximal_submodules(act, p * p):
            yield "PZ2", quotient_action(sub.ambient, sub)

    def test_rank2_closed_form_sweep(self):
        # |S|^2 = p^2 on Z^2/M_p, |S| = p on Z^2/M_{p,-1} (p > 2),
        # |S| = p^2 on Z^2/pZ^2 when the latter is simple
        pres = make_gk(2)
        seen = set()
        for k in range(-10, 11):
            for p in PRIMES_TO_31:
                for tag, q in self.quotient_types(k, p):
                    expected = {"Mp": p * p, "MpMinus1": p, "PZ2": p * p}[tag]
                    assert count_derivations(pres, q).count == expected, (k, p, tag)
                    seen.add(tag)
        assert seen == {"Mp", "MpMinus1", "PZ2"}

    def test_spec_anchor_values(self):
        pres = make_gk(2)
        for k, p, n, expected in [
            (5, 3, 3, 9),     # Z^2/M_3, 3 | k - 2
            (3, 5, 5, 5),     # Z^2/M_{5,-1}, 5 | k + 2
            (1, 5, 25, 25),   # Z^2/5Z^2, 5 coprime to (k-2)(k+2)
        ]:
            act = ModuleAction(2, None, hk_action_matrices(k))
            (sub,) = maximal_submodules(act, n)
            q = quotient_action(sub.ambient, sub)
            assert count_derivations(pres, q).count == expected


class TestBruteForce:
    def test_examples(self):
        assert brute_force_count(make_gk(2), minus_one_action(2, 3)) == 3
        trivial = ModuleAction(1, 2, (np.array([[1]]),) * 2)
        assert brute_force_count(make_gk(2), trivial) == 4
        assert brute_force_count(make_gk(3), minus_one_action(3, 3)) == 3

    def test_bound(self):
        with pytest.raises(ValueError):
            brute_force_count(make_gk(8), minus_one_action(8, 7), bound=10 ** 6)

    def test_agrees_with_rank_computation_rank1(self):
        for k in range(1, 4):
            for p in (2, 3, 5):
                pres = make_gk(k)
                act = minus_one_action(k, p)
                assert brute_force_count(pres, act) == count_derivations(pres, act).count

    def test_agrees_with_rank_computation_rank2(self):
        pres = make_gk(2)
        for k in range(-6, 7):
            for p in (2, 3, 5):
                act = ModuleAction(2, None, hk_action_matrices(k))
                for n in (p, p * p):
                    for sub in maximal_submodules(act, n):
                        q = quotient_action(sub.ambient, sub)
                        assert (
                            brute_force_count(pres, q)
                            == count_derivations(pres, q).count
                        ), (k, p, n)

    def test_agrees_on_free_group(self):
        pres = make_gk(1)
        act = minus_one_action(1, 5)
        assert brute_force_count(pres, act) == count_derivations(pres, act).count == 5


class TestDerivationSpace:
    def test_count_is_power_of_p_and_positive(self):
        for k, p in itertools.product(range(1, 6), (2, 3, 5, 7)):
            space = count_derivations(make_gk(k), minus_one_action(k, p))
            assert space.count >= 1
            count = space.count
            while count % p == 0:
                count //= p
            assert count == 1
            assert space.dimension <= k
