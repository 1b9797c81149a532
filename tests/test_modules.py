import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxgrowth.core import hk_action_matrices, make_gk, primes_up_to
from maxgrowth.linalg import int_det
from maxgrowth.modules import (
    ModuleAction,
    Submodule,
    _sqrt_mod,
    classify_rank2_submodules,
    invariant_subspaces,
    maximal_submodules,
    quotient_action,
    reduce_mod_p,
)

PRIMES_TO_31 = primes_up_to(31)


def hk_action(k):
    return ModuleAction(2, None, hk_action_matrices(k))


def minus_one_action(num_generators, p=None):
    return ModuleAction(1, p, (np.array([[-1]]),) * num_generators)


def lattice_contains(basis, vec):
    # back-substitution against an echelon basis
    v = [int(x) for x in vec]
    for row in basis:
        pivot = next(j for j, x in enumerate(row) if x)
        if v[pivot] % row[pivot]:
            return False
        q = v[pivot] // row[pivot]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


class TestModuleAction:
    def test_rejects_non_unimodular_integral(self):
        with pytest.raises(ValueError):
            ModuleAction(2, None, (np.array([[2, 0], [0, 1]]),))

    def test_rejects_singular_mod_p(self):
        with pytest.raises(ValueError):
            ModuleAction(2, 3, (np.array([[3, 0], [0, 1]]),))

    def test_rejects_ranks_other_than_1_and_2(self):
        # route 2 meets rank 1 (G_k) and rank 2 (H_k) only
        with pytest.raises(ValueError, match="rank must be 1 or 2, got 0"):
            ModuleAction(0, None, ())
        with pytest.raises(ValueError, match="rank must be 1 or 2, got 3"):
            ModuleAction(3, 3, (((1, 1, 0), (0, 1, 1), (0, 0, 1)),))

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError, match="15 is not prime"):
            ModuleAction(2, 15, (((1, 0), (3, 2)),))

    def test_satisfies_relators(self):
        act = hk_action(4)
        assert act.satisfies(make_gk(2))
        # the swap and a shear do not satisfy a b a^-1 b = 1
        bad = ModuleAction(2, None, (np.eye(2, dtype=np.int64), np.array([[1, 1], [0, 1]])))
        assert not bad.satisfies(make_gk(2))

    def test_reduce_mod_p(self):
        act = hk_action(3)
        assert reduce_mod_p(act, 5).matrices[1] == ((0, 1), (4, 3))
        assert reduce_mod_p(act, 2).matrices[0] == ((0, 1), (1, 0))
        assert reduce_mod_p(hk_action(2), 2).matrices[1] == ((0, 1), (1, 0))
        with pytest.raises(ValueError):
            reduce_mod_p(act, 6)
        with pytest.raises(ValueError):
            reduce_mod_p(reduce_mod_p(act, 5), 5)


EIGENLINE_PRIMES = [2, 3, 5, 7, 17, 41, 97, 257]  # 17, 41, 97, 257 are 1 mod 8


def scanned_lines(p, mats):
    """Every one of the p + 1 lines of F_p^2 that each matrix maps into itself."""
    lines = []
    for v in [(0, 1)] + [(1, t) for t in range(p)]:
        images = [(a * v[0] + b * v[1], c * v[0] + d * v[1]) for (a, b), (c, d) in mats]
        if all((v[0] * w[1] - v[1] * w[0]) % p == 0 for w in images):
            lines.append((v,))
    return sorted(lines)


class TestInvariantSubspaces:
    def test_single_line_for_k4_p2(self):
        lines = invariant_subspaces(reduce_mod_p(hk_action(4), 2), 1)
        assert [s.subspace_basis for s in lines] == [((1, 1),)]

    def test_single_line_for_k3_p5(self):
        lines = invariant_subspaces(reduce_mod_p(hk_action(3), 5), 1)
        assert [s.subspace_basis for s in lines] == [((1, 4),)]

    def test_no_lines_for_k1_p5(self):
        assert invariant_subspaces(reduce_mod_p(hk_action(1), 5), 1) == []

    def test_zero_subspace_always_invariant(self):
        for k, p in [(0, 2), (3, 5), (-4, 7)]:
            subs = invariant_subspaces(reduce_mod_p(hk_action(k), p), 2)
            assert len(subs) == 1
            assert subs[0].subspace_basis == ()
            assert subs[0].index == p * p

    def test_lemma_table(self):
        # line through (1,1) iff p | k-2; line through (1,-1) iff p | k+2;
        # never any other line
        for p in PRIMES_TO_31:
            for k in range(-10, 11):
                lines = {s.subspace_basis for s in invariant_subspaces(reduce_mod_p(hk_action(k), p), 1)}
                expected = set()
                if (k - 2) % p == 0:
                    expected.add(((1, 1),))
                if (k + 2) % p == 0:
                    expected.add(((1, p - 1),))
                assert lines == expected, (p, k)

    def test_enumeration_matches_gaussian_binomial(self):
        # trivial action: every subspace is invariant
        for p, r, codim, expected in [
            (3, 2, 1, 4),       # (3^2-1)/(3-1)
            (5, 2, 1, 6),
        ]:
            act = ModuleAction(r, p, (np.eye(r, dtype=np.int64),))
            assert len(invariant_subspaces(act, codim)) == expected

    def test_canonical_order_and_bound(self):
        act = ModuleAction(2, 3, (np.eye(2, dtype=np.int64),))
        bases = [s.subspace_basis for s in invariant_subspaces(act, 1)]
        assert bases == sorted(bases)
        big = ModuleAction(2, 1009, (np.eye(2, dtype=np.int64),))
        with pytest.raises(ValueError):
            invariant_subspaces(big, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(EIGENLINE_PRIMES),
        st.booleans(),
        st.lists(st.tuples(*[st.integers(-300, 300)] * 4), min_size=1, max_size=3),
    )
    def test_rank2_lines_match_cross_product(self, p, scalar_first, entries):
        # any invertible actions, not only H_k, against the scan of all
        # p + 1 lines; a scalar first matrix leaves the lines to the next one
        mats = [((a, b), (c, d)) for a, b, c, d in entries]
        if scalar_first:
            a = entries[0][0]
            mats[0] = ((a, 0), (0, a))
        assume(all((a * d - b * c) % p for (a, b), (c, d) in mats))
        got = invariant_subspaces(ModuleAction(2, p, tuple(mats)), 1)
        assert [s.subspace_basis for s in got] == scanned_lines(p, mats)

    def test_zero_subspace_needs_no_bound(self):
        # codim == rank lists only the zero subspace, at any prime
        for r, p in [(1, 1000003), (1, 10 ** 10 + 19), (2, 1009)]:
            act = ModuleAction(r, p, (np.eye(r, dtype=np.int64),))
            (sub,) = invariant_subspaces(act, r)
            assert sub.subspace_basis == ()
            assert sub.index == p ** r


def eigenline_cases(p):
    """Named rank-2 actions mod p: scalar, diagonal, b = 0 mod p and
    zero-discriminant matrices, alone and after a scalar one."""
    single = {
        "scalar_minus_one": ((-1, 0), (0, -1)),
        "diagonal": ((1, 0), (0, -1)),
        "diagonal_distinct": ((2, 0), (0, 3)),
        "b_zero_a_ne_d": ((1, 0), (5, 3)),
        "b_zero_shear": ((1, 0), (1, 1)),
        "b_multiple_of_p": ((1, p), (1, 2)),
        "zero_disc_jordan": ((1, 1), (0, 1)),
        "zero_disc_b2": ((0, 1), (-1, 2)),  # (d - a)^2 + 4bc = 0
        "zero_disc_general": ((1, 1), (-1, 3)),
        "swap": ((0, 1), (1, 0)),
        "rotation": ((0, -1), (1, 0)),  # discriminant -4
        "companion_7": ((0, 1), (-1, 7)),  # discriminant 45
        "companion_11": ((0, 1), (1, 11)),  # discriminant 125
    }
    cases = {name: [m] for name, m in single.items()}
    cases.update({f"scalar_then_{name}": [((3, 0), (0, 3)), m] for name, m in single.items()})
    cases["swap_then_b"] = [((0, 1), (1, 0)), ((0, 1), (-1, 2))]
    cases["b_zero_then_swap"] = [((1, 0), (5, 3)), ((0, 1), (1, 0))]
    return {
        name: mats
        for name, mats in cases.items()
        if all((a * d - b * c) % p for (a, b), (c, d) in mats)
    }


class TestEigenlines:
    @pytest.mark.parametrize("p", EIGENLINE_PRIMES)
    def test_named_actions_match_scan(self, p):
        for name, mats in eigenline_cases(p).items():
            got = invariant_subspaces(ModuleAction(2, p, tuple(mats)), 1)
            assert [s.subspace_basis for s in got] == scanned_lines(p, mats), (p, name)

    @pytest.mark.parametrize("p", [q for q in EIGENLINE_PRIMES if q > 2] + [1009, 10 ** 9 + 7])
    def test_square_roots(self, p):
        residues = {x * x % p for x in range(min(p, 2000))}
        for a in range(min(p, 2000)):
            r = _sqrt_mod(a, p)
            if r is None:
                assert pow(a, (p - 1) // 2, p) == p - 1, (p, a)
            else:
                assert r * r % p == a, (p, a)
            if p < 2000:
                assert (r is not None) == (a in residues), (p, a)

    def test_square_root_rejects_composite_modulus(self):
        # Euler's criterion gives neither 1 nor -1
        for a, n in [(4, 9), (2, 15), (4, 21), (6, 25)]:
            with pytest.raises(ValueError):
                _sqrt_mod(a, n)

    @pytest.mark.parametrize("p", [1009, 10 ** 9 + 7, 2 ** 61 - 1])
    def test_no_bound_for_a_non_scalar_action(self, p):
        # the H_2 action fixes only the line through (1, 1)
        got = invariant_subspaces(reduce_mod_p(hk_action(2), p), 1)
        assert [s.subspace_basis for s in got] == [((1, 1),)]
        scalar_first = ModuleAction(2, p, (((5, 0), (0, 5)), ((0, 1), (1, 0))))
        got = invariant_subspaces(scalar_first, 1)
        assert [s.subspace_basis for s in got] == [((1, 1),), ((1, p - 1),)]


def assert_hnf(basis):
    # echelon with positive pivots, entries above each pivot reduced
    last_pivot = -1
    for r, row in enumerate(basis):
        pivot = next(j for j, x in enumerate(row) if x)
        assert pivot > last_pivot
        last_pivot = pivot
        assert row[pivot] > 0
        for above in basis[:r]:
            assert 0 <= above[pivot] < row[pivot]


class TestSubmoduleData:
    def test_lattice_bases_in_hnf_with_correct_index(self):
        # H_k on Z^2, and every line of F_p^2 under the identity action,
        # which adds the line through (0, 1) and its HNF row (0, 1)
        actions = [reduce_mod_p(hk_action(k), p) for k in range(-6, 7) for p in (2, 3, 5, 7)]
        actions += [ModuleAction(2, p, (np.eye(2, dtype=np.int64),)) for p in (2, 3)]
        for red in actions:
            p, r = red.p, red.rank
            for codim in range(1, r + 1):
                for sub in invariant_subspaces(red, codim):
                    assert sub.index == p ** codim
                    assert abs(int_det(sub.lattice_basis)) == sub.index
                    basis = sub.lattice_basis
                    assert_hnf(basis)
                    for v in sub.subspace_basis:
                        assert lattice_contains(basis, v)  # the subspace lifts inside
                    for i in range(r):
                        unit = [0] * r
                        unit[i] = p
                        assert lattice_contains(basis, unit)  # pZ^r inside

    def test_hand_built_submodule_derives_the_same_data(self):
        # a Submodule is its action and subspace basis; index, codim and the
        # HNF preimage basis are read off them
        for k in range(-6, 7):
            for p in (2, 3, 5, 7):
                red = reduce_mod_p(hk_action(k), p)
                for codim in (1, 2):
                    for found in invariant_subspaces(red, codim):
                        built = Submodule(red, found.subspace_basis)
                        assert built.codim == found.codim == codim
                        assert built.index == found.index == p ** codim
                        assert built.lattice_basis == found.lattice_basis
        assert Submodule(reduce_mod_p(hk_action(5), 3), ((1, 1),)).lattice_basis == (
            (1, 1),
            (0, 3),
        )

    def test_known_lattice_bases(self):
        m3 = invariant_subspaces(reduce_mod_p(hk_action(5), 3), 1)
        assert [s.lattice_basis for s in m3] == [((1, 1), (0, 3))]
        m5u = invariant_subspaces(reduce_mod_p(hk_action(3), 5), 1)
        assert [s.lattice_basis for s in m5u] == [((1, 4), (0, 5))]


class TestMaximalSubmodules:
    def test_rank1_prime_indices_only(self):
        act = minus_one_action(3)
        subs = maximal_submodules(act, 5)
        assert [(s.index, s.lattice_basis) for s in subs] == [(5, ((5,),))]
        assert maximal_submodules(act, 10) == []
        assert maximal_submodules(act, 25) == []  # exponent above the rank

    def test_rank2_corollary_examples(self):
        assert maximal_submodules(hk_action(2), 49) == []  # 7 | k - 2 = 0
        subs = maximal_submodules(hk_action(3), 9)  # 3 coprime to 1*5
        assert [s.lattice_basis for s in subs] == [((3, 0), (0, 3))]
        subs = maximal_submodules(hk_action(1), 49)  # 7 coprime to (-1)*3
        assert [s.lattice_basis for s in subs] == [((7, 0), (0, 7))]
        subs = maximal_submodules(hk_action(0), 2)  # coincidence M_2 = M_{2,-1}
        assert [s.lattice_basis for s in subs] == [((1, 1), (0, 2))]

    def test_corollary_table(self):
        # counts 1 / 1 / 0 across p <= 31, |k| <= 10
        for p in PRIMES_TO_31:
            for k in range(-10, 11):
                act = hk_action(k)
                divides = ((k - 2) * (k + 2)) % p == 0
                expected_p = 1 if divides else 0
                assert len(maximal_submodules(act, p)) == expected_p, (p, k)
                expected_sq = 0 if divides else 1
                assert len(maximal_submodules(act, p * p)) == expected_sq, (p, k)

    def test_rejects_reduced_action_and_small_n(self):
        with pytest.raises(ValueError):
            maximal_submodules(reduce_mod_p(hk_action(1), 3), 3)
        with pytest.raises(ValueError):
            maximal_submodules(hk_action(1), 1)

    def test_composite_indices_empty(self):
        act = hk_action(3)
        for n in (6, 12, 100, 30):
            assert maximal_submodules(act, n) == []


class TestQuotientAction:
    def test_quotient_by_mp_line(self):
        # on Z^2/M_p (p | k-2) the swap acts by -1 and B_k by +1, which is
        # exactly what makes both cocycle coefficient blocks vanish
        red = reduce_mod_p(hk_action(2), 3)
        sub = invariant_subspaces(red, 1)[0]
        q = quotient_action(sub)
        assert q.matrices == (((2,),), ((1,),))

    def test_quotient_by_mp_minus_one_line(self):
        # on Z^2/M_{p,-1} (p | k+2, p odd) the swap acts by +1 and B_k by -1
        red = reduce_mod_p(hk_action(3), 5)
        sub = invariant_subspaces(red, 1)[0]
        q = quotient_action(sub)
        assert q.matrices == (((1,),), ((4,),))

    def test_quotient_by_zero_subspace_is_identity_quotient(self):
        red = reduce_mod_p(hk_action(1), 5)
        sub = invariant_subspaces(red, 2)[0]
        q = quotient_action(sub)
        assert q.matrices == red.matrices

    def test_rejects_non_invariant_subspace(self):
        red = reduce_mod_p(hk_action(1), 5)
        donor = reduce_mod_p(hk_action(3), 5)
        (donor_line,) = invariant_subspaces(donor, 1)  # the (1,4) line, not invariant for k=1
        with pytest.raises(ValueError, match="not invariant"):
            quotient_action(Submodule(red, donor_line.subspace_basis))


class TestClassification:
    def test_lemma_flags(self):
        for p in PRIMES_TO_31:
            for k in range(-10, 11):
                cl = classify_rank2_submodules(k, p)
                assert ("Mp" in cl.present) == ((k - 2) % p == 0)
                assert ("MpMinus1" in cl.present) == ((k + 2) % p == 0)
                assert ("PZ2" in cl.present) == ((k - 2) % p != 0 and (k + 2) % p != 0)
                assert cl.coincidence == (p == 2 and k % 2 == 0)


def subgroups_mod_p2(p):
    """Every subgroup of (Z/p^2)^2, as (index, HNF generators, element set).

    Subgroups correspond to lattices between p^2 Z^2 and Z^2, parametrized
    by row HNF [[a, b], [0, d]] with a, d dividing p^2 and 0 <= b < d.
    """
    p2 = p * p
    divisors = (1, p, p2)
    out = []
    for a in divisors:
        for d in divisors:
            for b in range(d):
                if (b * (p2 // a)) % d:
                    continue  # p^2 e_1 must land inside
                elems = frozenset(
                    ((i * a) % p2, (i * b + j * d) % p2)
                    for i in range(p2 // a)
                    for j in range(p2 // d)
                )
                out.append((a * d, ((a, b), (0, d)), elems))
    return out


def closure_subgroups_mod_p2(p):
    """Independent enumeration: 2-generated closures over every pair."""
    p2 = p * p
    elements = list(itertools.product(range(p2), repeat=2))
    seen = set()
    for x, y in itertools.product(elements, repeat=2):
        sub = frozenset(
            ((i * x[0] + j * y[0]) % p2, (i * x[1] + j * y[1]) % p2)
            for i in range(p2)
            for j in range(p2)
        )
        seen.add(sub)
    return seen


def assert_modp2_oracle_matches(p, k):
    """Compare maximal_submodules against the exhaustive subgroup lattice of
    (Z/p^2)^2: filter invariant subgroups, take the maximal ones by explicit
    containment, and match them (as element sets) at index p and p^2.  This
    checks the Frattini reduction rather than assuming it."""
    p2 = p * p
    mats = [np.array(m) % p2 for m in hk_action_matrices(k)]
    whole = p2 * p2

    invariant = []
    for index, gens, elems in subgroups_mod_p2(p):
        if len(elems) == whole:
            continue  # proper subgroups only
        ok = all(
            tuple(int(v) for v in (m @ np.array(g)) % p2) in elems
            for m in mats
            for g in gens
        )
        if ok:
            invariant.append((index, elems))

    maximal = [
        (index, elems)
        for index, elems in invariant
        if not any(other > elems for _, other in invariant)
    ]
    # prime power index lemma, checked rather than assumed
    assert all(index in (p, p2) for index, _ in maximal)

    action = hk_action(k)
    for n in (p, p2):
        got = maximal_submodules(action, n)
        want = sorted(elems for index, elems in maximal if index == n)
        # compare as element sets of (Z/p^2)^2
        got_sets = sorted(
            frozenset(
                (
                    (i * r1[0] + j * r2[0]) % p2,
                    (i * r1[1] + j * r2[1]) % p2,
                )
                for i in range(p2)
                for j in range(p2)
            )
            for r1, r2 in (sub.lattice_basis for sub in got)
        )
        assert got_sets == want, (p, k, n)


class TestModP2Oracle:
    @pytest.mark.parametrize("p", [2, 3])
    def test_hnf_parametrization_is_complete(self, p):
        hnf_sets = {elems for _, _, elems in subgroups_mod_p2(p)}
        assert hnf_sets == closure_subgroups_mod_p2(p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 3, 4])
    def test_matches_maximal_submodules(self, p, k):
        assert_modp2_oracle_matches(p, k)
