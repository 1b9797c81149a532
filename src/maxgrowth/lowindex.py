"""Ground-truth subgroup enumeration via canonical coset tables.

``low_index_subgroups`` finds every subgroup of index exactly n (or, with
``upto``, of every index 2..n in one pass, as in Sims' low-index
procedure) of a finitely presented group by a backtracking search over
complete coset tables.  Tables are kept BFS-canonical: cosets are
numbered in first encounter order while scanning row 0, row 1, ... with
columns ordered g_1, g_1^-1, g_2, ...  Every subgroup has exactly one
canonical table, so emitting each complete canonical table once counts
subgroups.  Re-rooting a table at coset r (r becomes coset 0, the rest
renumbered in scan order) gives the canonical table of the conjugate
subgroup that stabilizes r, so the re-rootings of a table are the tables
of its conjugacy class.  With ``classes`` the search keeps only the
least table of each class (first-in-class pruning, Sims ch. 5), and
``class_size`` recovers the class size from the table alone: n over the
number of re-rootings equal to it.

The search fills the first empty cell in scan order, trying existing
cosets in increasing order and then one fresh coset.  After every
definition, relator consequences are propagated eagerly, as in the
deduction processing of Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 5.  The working table holds row offsets
(coset * width) instead of coset numbers, so each step of a relator trace
is one lookup, ``table[f + col]``; a complete table is divided back into
coset numbers once.  Each cyclic rotation of a relator that starts with a
freshly defined transition (a, c) is traced forward from the coset that
transition reaches, i.e. from the relator's second letter, and backward
from a up to the gap.  A single gap is closed as a forced deduction; a
complete trace that does not return to a, or a gap whose backward side is
already filled, abandons the branch.  Coincidences are handled by
backtracking, never by table merging, so tables stay injective.
Deductions wait on a stack and are processed last in, first out.  The
order does not matter: each deduction holds in every completion of the
partial table, and every relator cycle is traced again after its last
cell is defined, so any order ends at the same closed table, or finds a
contradiction exactly when that table would have one.  The search thus
visits the same nodes, and finds the same tables, whatever the order.

Maximality is tested through the coset action: a subgroup is maximal iff
the action on its cosets is primitive, i.e. admits no nontrivial block
system.  Prime degree transitive actions are always primitive, so prime
index short-circuits to True.  Conjugate subgroups are all maximal or all
not, so the oracle counts m_n as the sum of class sizes over the
primitive class representatives.  The oracle searches a copy of the
presentation with its generators reordered (``_search_order``): m_n does
not depend on that order, and the order chosen visits fewer nodes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import GroupPresentation, is_prime

DEFAULT_NODE_BUDGET = 10 ** 8
MAX_GENERATORS = 6
# a relator of L letters has L rotations of L letters, and propagation scans
# them all, so even index 2 costs about L^2 before the node budget can act;
# at 1,000 letters (H_996) index 2 takes about 0.3 s of CPU time
MAX_RELATOR_LENGTH = 1000


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of its node budget."""


@dataclass(frozen=True)
class CosetTable:
    """Complete action of generators on cosets; coset 0 is the subgroup.

    ``entries`` has one row per coset and 2m columns: column 2i is the
    action of generator i, column 2i + 1 the action of its inverse.
    """

    num_generators: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def generator_permutation(self, g: int) -> tuple[int, ...]:
        return tuple(row[2 * g] for row in self.entries)


def _relator_columns(word) -> tuple[int, ...]:
    return tuple(2 * (l - 1) if l > 0 else 2 * (-l - 1) + 1 for l in word)


def low_index_subgroups(
    pres: GroupPresentation,
    n: int,
    *,
    node_budget: int | None = None,
    upto: bool = False,
    classes: bool = False,
) -> list[CosetTable]:
    """All index-n subgroups of the presented group, as canonical tables,
    in deterministic (depth-first) order.  With ``upto`` the same search
    also keeps every complete table with 2..n - 1 cosets, so one call
    returns the subgroups of every index 2..n, in search order.  With
    ``classes`` it keeps one table per conjugacy class instead: the least
    of the class in scan order, which ``class_size`` weighs.  Any n >= 2
    is accepted; the node budget is what bounds the search.

    The index-j search visits exactly the nodes of this one whose tables
    have at most j cosets (a new coset is the only move the cap forbids,
    and class pruning looks only at the partial table), so filtering the
    ``upto`` result by index gives each index-j result, in the same
    order."""
    m = pres.num_generators
    if m > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators supported, got {m}")
    longest = max(map(len, pres.relators), default=0)
    if longest > MAX_RELATOR_LENGTH:
        raise ValueError(
            f"relators of at most {MAX_RELATOR_LENGTH} letters supported, got {longest}"
        )
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    least = 2 if upto else n

    width = 2 * m
    # cyclic rotations of every relator, bucketed by their first column:
    # a new transition (coset, column) enables exactly the scans of the
    # rotations starting with that column; each is stored with its inverse
    # columns, which the backward trace reads, and its length
    buckets: list[set[tuple[int, ...]]] = [set() for _ in range(width)]
    for rel in pres.relators:
        cols = _relator_columns(rel)
        for i in range(len(cols)):
            rot = cols[i:] + cols[:i]
            buckets[rot[0]].add(rot)
    rotations = [
        [(rot, tuple(c ^ 1 for c in rot), len(rot)) for rot in sorted(b)] for b in buckets
    ]

    # the table holds row offsets (coset * width), so a step is table[f + col]
    table = [-1] * width  # grows one row per new coset, so memory follows the search, not n
    trail: list[int] = []
    pending: list[tuple[int, int]] = []  # (row offset, column), processed LIFO
    results: list[CosetTable] = []

    def propagate() -> bool:
        while pending:
            a, c = pending.pop()
            start = table[a + c]  # the transition just defined
            for rot, inv, length in rotations[c]:
                f = start
                i = 1
                while i < length:
                    nxt = table[f + rot[i]]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                if i == length:
                    if f != a:
                        return False  # relator fails to close: dead branch
                    continue
                b = a
                j = length - 1
                while j > i:
                    prev = table[b + inv[j]]
                    if prev < 0:
                        break
                    b = prev
                    j -= 1
                if j == i:
                    i2 = b + inv[i]
                    if table[i2] >= 0:
                        # the gap is filled from the backward side only: the
                        # forward and backward traces can never be joined
                        return False
                    # single gap: forced deduction f --rot[i]--> b
                    i1 = f + rot[i]
                    table[i1] = b
                    table[i2] = f
                    trail.append(i1)
                    trail.append(i2)
                    pending.append((f, rot[i]))
                    pending.append((b, inv[i]))
        return True

    def row0_rerooting_smaller(limit: int) -> bool:
        # Row 0 of the re-rooting at r is row r relabelled with r as 0 and
        # the rest in first-encounter order.  A re-rooting smaller at a
        # decided entry of row 0 stays smaller in every completion, so no
        # completion is least in its class.  Entry (0, 0) is 0 when
        # generator 1 fixes the coset and 1 otherwise, which dismisses
        # most cosets before any relabelling.  Labels are row offsets too.
        first = table[0]
        decided = 1  # row 0 of the table is decided up to here
        while decided < width and table[decided] >= 0:
            decided += 1
        for base in range(width, limit, width):
            x = table[base]
            if x == base:
                if first:
                    return True  # 0 against 1
            elif x < 0 or not first or decided == 1:
                continue  # undecided, 1 against 0, or nothing more to compare
            labels = {base: 0, x: first}
            for c in range(1, decided):
                x = table[base + c]
                w = table[c]
                if x < 0:
                    break
                v = labels.setdefault(x, len(labels) * width)
                if v != w:
                    if v < w:
                        return True
                    break
        return False

    # Depth-first search with an explicit stack, so the depth (one level
    # per definition) is not bounded by the interpreter's recursion limit.
    # A frame is (first empty cell, its remaining candidate rows, trail
    # length and coset count on entry); before each candidate the table is
    # rolled back to the frame's entry state.
    nc = 1  # cosets allocated so far
    nodes = 0
    pos = 0  # where the scan for the first empty cell starts
    stack: list[tuple[int, Iterator[int], int, int]] = []
    while True:
        limit = nc * width
        while pos < limit and table[pos] >= 0:
            pos += 1
        if pos < limit:
            inverse_col = (pos % width) ^ 1
            candidates = [b for b in range(0, limit, width) if table[b + inverse_col] < 0]
            if nc < n:
                candidates.append(limit)
            stack.append((pos, iter(candidates), len(trail), nc))
        elif nc >= least:
            flat = [x // width for x in table[:limit]]
            if not classes or _rerooting_orbit_size(flat, nc, width, least_only=True):
                results.append(
                    CosetTable(
                        num_generators=m,
                        entries=tuple(tuple(flat[i : i + width]) for i in range(0, limit, width)),
                    )
                )
        # take the next candidate of the innermost frame that has one left
        while stack:
            pos, candidates, mark, nc = stack[-1]
            if len(trail) > mark:
                for i in trail[mark:]:
                    table[i] = -1
                del trail[mark:]
            b = next(candidates, None)
            if b is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"node budget {budget} exceeded at index {n}")
            if b == nc * width:
                nc += 1
                if len(table) < b + width:
                    table.extend([-1] * width)
            col = pos % width
            a = pos - col
            i2 = b + (col ^ 1)
            table[pos] = b
            table[i2] = a
            trail.append(pos)
            trail.append(i2)
            pending.append((a, col))
            pending.append((b, col ^ 1))
            if not propagate():
                pending.clear()
            elif not (classes and row0_rerooting_smaller(nc * width)):
                break  # descend: scan on from pos in the extended table
        else:
            return results


def _rerooting_orbit_size(flat: list[int], n: int, width: int, *, least_only: bool) -> int:
    """Number of cosets whose re-rooting gives this complete table back,
    or 0 when ``least_only`` and some re-rooting is smaller in scan order.

    A re-rooting equal to the table is an automorphism of the coset
    action, and automorphisms carry a coset to one with the same
    re-rooting, so one coset per orbit of the automorphisms found so far
    is compared (union-find over the cosets; ``done`` marks an orbit
    already decided, ``size`` counts its cosets)."""
    parent = list(range(n))
    size = [1] * n
    done = [False] * n
    done[0] = True

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in range(1, n):
        root = find(r)
        if done[root]:
            continue
        done[root] = True
        label = [-1] * n
        label[r] = 0
        order = [r]
        diff = 0
        for i in range(n):
            base = order[i] * width
            for c in range(width):
                x = flat[base + c]
                v = label[x]
                if v < 0:
                    v = label[x] = len(order)
                    order.append(x)
                diff = v - flat[i * width + c]
                if diff:
                    break
            if diff:
                break
        if diff < 0 and least_only:
            return 0
        if diff == 0:
            for x, y in enumerate(label):
                x, y = find(x), find(y)
                if x != y:
                    if x > y:
                        x, y = y, x
                    parent[y] = x
                    size[x] += size[y]
                    done[x] = done[x] or done[y]
            if size[0] == n:
                break  # every re-rooting gives the table back
    return size[0]  # roots are least in their orbit, so 0 stays a root


def class_size(table: CosetTable) -> int:
    """Number of subgroups conjugate to the one the table encodes: n over
    the number of cosets whose re-rooting gives the same table."""
    width = 2 * table.num_generators
    flat = [x for row in table.entries for x in row]
    return table.n // _rerooting_orbit_size(flat, table.n, width, least_only=False)


def has_nontrivial_block_system(table: CosetTable) -> bool:
    """Whether the coset action preserves a partition other than the two
    trivial ones.  Runs the minimal-block closure seeded with each pair
    {0, beta}: the partition generated by one merged pair is the finest
    block system joining that pair, so the action is imprimitive exactly
    when some seed closes up short of the full coset set."""
    n = table.n
    gens = [table.generator_permutation(g) for g in range(table.num_generators)]
    for beta in range(1, n):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        stack = [(0, beta)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[max(rx, ry)] = min(rx, ry)
            for g in gens:
                stack.append((g[x], g[y]))
        block = sum(1 for x in range(n) if find(x) == find(0))
        if block < n:
            return True
    return False


def is_primitive(table: CosetTable) -> bool:
    """Primitivity of the (transitive) coset action; equivalently,
    maximality of the subgroup the table encodes."""
    if is_prime(table.n):
        # transitive actions of prime degree are primitive: block sizes
        # divide the degree
        return True
    return not has_nontrivial_block_system(table)


def _search_order(pres: GroupPresentation) -> GroupPresentation:
    """A copy of the presentation with one generator moved to the front:
    the first of those that occur with both signs in the most relators.
    The other generators keep their order.  On H_k this gives
    (a, t1, t2, b), whose class pass to index 14 visits 31% fewer nodes
    than (t1, t2, b, a) over H_-3..H_3; on G_k the order is unchanged."""
    both = [0] * pres.num_generators
    for rel in pres.relators:
        letters = set(rel)
        for g in {abs(l) for l in letters if -l in letters}:
            both[g - 1] += 1
    front = max(range(pres.num_generators), key=both.__getitem__, default=0)
    if front == 0:
        return pres
    order = [front] + [g for g in range(pres.num_generators) if g != front]
    new_index = {old: new + 1 for new, old in enumerate(order)}
    relators = tuple(
        tuple(new_index[l - 1] if l > 0 else -new_index[-l - 1] for l in rel)
        for rel in pres.relators
    )
    return GroupPresentation(tuple(pres.generators[g] for g in order), relators)


def oracle_max_count(pres: GroupPresentation, n: int, *, node_budget: int | None = None) -> int:
    """Number of maximal subgroups of index n, by exhaustive enumeration:
    conjugates are all maximal or all not, so each primitive class
    representative counts with the size of its class.

    The search runs on a copy of ``pres`` with its generators reordered
    (``_search_order``), since m_n does not depend on that order; the node
    budget counts the nodes of that search."""
    tables = low_index_subgroups(_search_order(pres), n, node_budget=node_budget, classes=True)
    return sum(class_size(t) for t in tables if is_primitive(t))


def oracle_max_counts(
    pres: GroupPresentation, nmax: int, *, node_budget: int | None = None
) -> dict[int, int | None]:
    """``oracle_max_count`` for every index 2..nmax from one search.

    Like ``oracle_max_count`` it searches the reordered copy of ``pres``,
    and the budget counts that search's nodes.  The budget keeps its
    per-index meaning: an index maps to None exactly when its own search
    would exceed the budget.  The index-n nodes are the pass's nodes with
    at most n cosets, so a pass within budget leaves out no index, and
    once one index runs out every larger index does."""
    try:
        tables = low_index_subgroups(
            _search_order(pres), nmax, node_budget=node_budget, upto=True, classes=True
        )
    except SearchBudgetExceeded:
        counts: dict[int, int | None] = dict.fromkeys(range(2, nmax + 1))
        for n in counts:
            try:
                counts[n] = oracle_max_count(pres, n, node_budget=node_budget)
            except SearchBudgetExceeded:
                break
        return counts
    counts = dict.fromkeys(range(2, nmax + 1), 0)
    for t in tables:
        if is_primitive(t):
            counts[t.n] += class_size(t)
    return counts
