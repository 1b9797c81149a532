"""Where the H_k growth numbers come from: submodules and derivations.

Maximal submodules of the lattice Z^2 have index p or p^2 and contain
pZ^2, so everything reduces to invariant lines of F_p^2 under the two
action matrices.  The only possible lines pass through (1,1) or (1,-1),
because those are the eigenvectors of the swap.  Each maximal submodule
N_0 then contributes |Der(G_2, Z^2/N_0)| maximal subgroups, a count the
cocycle solver reads off as a nullity over F_p.  A submodule is its
action and the basis of its invariant line: the preimage lattice and its
index are derived from that basis.  The recursion walks the chain
Z < G_2 < H_k, and each level adds its derivation counts to the count
one level down.
"""

from maxgrowth import (
    ModuleAction,
    brute_force_count,
    classify_rank2_submodules,
    count_derivations,
    hk_action_matrices,
    hk_lattice_extension,
    invariant_subspaces,
    make_gk,
    max_count_split,
    maximal_submodules,
    quotient_action,
    recursive_gk,
    recursive_hk,
    reduce_mod_p,
)

print("invariant lines of (A, B_k) mod p  [v = (1,1), u = (1,-1)]:")
print(f"{'':>6}" + "".join(f" p={p:<4}" for p in (2, 3, 5, 7, 11)))
for k in range(-2, 5):
    cells = []
    for p in (2, 3, 5, 7, 11):
        flags = classify_rank2_submodules(k, p)
        name = {
            frozenset({"Mp"}): "v",
            frozenset({"MpMinus1"}): "u",
            frozenset({"Mp", "MpMinus1"}): "v=u",
            frozenset({"PZ2"}): "-",
        }[flags.present]
        cells.append(f" {name:<5}")
    print(f"k={k:>3} " + "".join(cells))
print("('-' means no line: then pZ^2 itself is the maximal submodule)")

k, p = 5, 3  # 3 divides k - 2, so the (1,1) line appears
action = ModuleAction(2, None, hk_action_matrices(k))
reduced = reduce_mod_p(action, p)
(line,) = invariant_subspaces(reduced, 1)
print(f"\nk={k}, p={p}: invariant line {line.subspace_basis}, "
      f"preimage lattice rows {line.lattice_basis}, index {line.index}")

induced = quotient_action(line)
print(f"quotient action on Z^2/M_{p}: a -> {induced.matrices[0]}, "
      f"b -> {induced.matrices[1]}")

pres = make_gk(2)
space = count_derivations(pres, induced)
print(f"|Der(G_2, Z^2/M_{p})| = {p}^{space.dimension} = {space.count} "
      f"(brute force: {brute_force_count(pres, induced)})")

print("\nderivation counts feeding m_p(H_k), all |k| <= 4, p = 3:")
for k in range(-4, 5):
    action = ModuleAction(2, None, hk_action_matrices(k))
    parts = []
    for sub in maximal_submodules(action, 3):
        induced = quotient_action(sub)
        parts.append(count_derivations(pres, induced).count)
    print(f"  k={k:>3}: submodule contributions {parts or '[]'}, "
          f"plus m_3(G_2) = 4")

print("\nthe chain sum Z < G_2 < H_k at n = 5: each level adds its count")
m_z = 1  # the maximal subgroups of Z are the pZ
m_g2 = recursive_gk(2, 5)  # the G_2 level adds |Der(Z, Z/5)| = 5
for k in (-2, 2, 3):
    m_hk = max_count_split(hk_lattice_extension(k), m_g2, 5)
    print(f"  k={k:>3}: m_5(Z) = {m_z}, m_5(G_2) = {m_g2}, m_5(H_k) = {m_hk}"
          f" (recursive_hk: {recursive_hk(k, 5)})")
