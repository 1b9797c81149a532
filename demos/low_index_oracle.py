"""The brute-force route: enumerate subgroups, test maximality, count.

Every index-n subgroup corresponds to exactly one BFS-canonical complete
coset table, so a backtracking search over canonical tables counts
subgroups directly (a_n), and a block-system test on the coset action
picks out the maximal ones (m_n).  The oracle's own search keeps one
table per conjugacy class and tests maximality itself (``primitive``),
so it returns only the maximal classes, weighed by ``class_size``.
Nothing here knows the closed forms; the agreement at the end is the
point.
"""

from maxgrowth import (
    class_size,
    has_nontrivial_block_system,
    is_primitive,
    low_index_subgroups,
    make_gk,
    make_hk,
    max_count_hk,
)

pres, mat_a, mat_b = make_hk(2)
print("flattened presentation of H_2 on", ", ".join(pres.generators))
for rel in pres.relators:
    print("   relator", rel)

print("\nindex-2 subgroups of H_2 (one canonical coset table each):")
for table in low_index_subgroups(pres, 2):
    print(f"   {table.entries}  maximal={is_primitive(table)}")

print("\na_n vs m_n for H_2, from one search over every index up to 7;")
print("'filtered' weighs the maximal classes that a second search keeps:")
print(f"{'n':>3} {'subgroups':>10} {'maximal':>8} {'filtered':>9} {'closed form':>12}")
every = low_index_subgroups(pres, 7, upto=True)
maximal_classes = low_index_subgroups(pres, 7, upto=True, classes=True, primitive=True)
for n in range(2, 8):
    tables = [t for t in every if t.n == n]
    maximal = sum(1 for t in tables if is_primitive(t))
    filtered = sum(class_size(t) for t in maximal_classes if t.n == n)
    print(f"{n:>3} {len(tables):>10} {maximal:>8} {filtered:>9} {max_count_hk(2, n).count:>12}")
print(f"    {len(maximal_classes)} maximal classes stand for the "
      f"{sum(1 for t in every if is_primitive(t))} maximal subgroups")

# a non-maximal subgroup seen through its block system
z4 = low_index_subgroups(make_gk(1), 4)[0]
print("\nindex-4 subgroup of Z: table", z4.entries)
print("has nontrivial blocks:", has_nontrivial_block_system(z4),
      "(4Z sits inside 2Z, and the blocks are the 2Z-cosets)")

print("\nindex-9 subgroups of H_1 all fail primitivity (m_9(H_1) = 0):")
tables = low_index_subgroups(make_hk(1)[0], 9)
print(f"   {len(tables)} subgroups, "
      f"{sum(1 for t in tables if is_primitive(t))} maximal")
