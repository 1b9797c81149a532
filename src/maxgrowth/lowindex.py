"""Ground-truth subgroup enumeration via canonical coset tables.

``low_index_subgroups`` finds every subgroup of index exactly n (or, with
``upto``, of every index 2..n in one pass, as in Sims' low-index
procedure) of a finitely presented group by a backtracking search over
complete coset tables.  Tables are kept BFS-canonical: cosets are
numbered in first encounter order while scanning row 0, row 1, ... with
columns ordered g_1, g_1^-1, g_2, ...  Every subgroup has exactly one
canonical table, so emitting each complete canonical table once counts
subgroups, not conjugacy classes (no first-in-class pruning happens, on
purpose).

The search fills the first empty cell in scan order, trying existing
cosets in increasing order and then one fresh coset.  After every
definition, relator consequences are propagated eagerly: each cyclic
rotation of a relator starting at a freshly defined transition is scanned,
closing single gaps as forced deductions and abandoning the branch on any
contradiction (coincidences are handled by backtracking, never by table
merging, so tables stay injective).

Maximality is tested through the coset action: a subgroup is maximal iff
the action on its cosets is primitive, i.e. admits no nontrivial block
system.  Prime degree transitive actions are always primitive, so prime
index short-circuits to True.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .core import GroupPresentation, is_prime

DEFAULT_NODE_BUDGET = 10 ** 8
MAX_GENERATORS = 6
# a relator of L letters has L rotations of L letters, and propagation scans
# them all, so even index 2 costs about L^2 before the node budget can act;
# at 1,000 letters index 2 takes under a second
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
) -> list[CosetTable]:
    """All index-n subgroups of the presented group, as canonical tables,
    in deterministic (depth-first) order.  With ``upto`` the same search
    also keeps every complete table with 2..n - 1 cosets, so one call
    returns the subgroups of every index 2..n, in search order.  Any n >= 2
    is accepted; the node budget is what bounds the search.

    The index-j search visits exactly the nodes of this one whose tables
    have at most j cosets (a new coset is the only move the cap forbids),
    so filtering the ``upto`` result by index gives each index-j result,
    in the same order."""
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
    # rotations starting with that column
    rotations: list[list[tuple[int, ...]]] = [[] for _ in range(width)]
    for rel in pres.relators:
        cols = _relator_columns(rel)
        for i in range(len(cols)):
            rot = cols[i:] + cols[:i]
            rotations[rot[0]].append(rot)
    rotations = [sorted(set(bucket)) for bucket in rotations]

    table = [-1] * width  # grows one row per new coset, so memory follows the search, not n
    trail: list[int] = []
    pending: deque[tuple[int, int]] = deque()
    results: list[CosetTable] = []

    def fill(a: int, c: int, b: int) -> None:
        i1 = a * width + c
        i2 = b * width + (c ^ 1)
        table[i1] = b
        table[i2] = a
        trail.append(i1)
        trail.append(i2)
        pending.append((a, c))
        pending.append((b, c ^ 1))

    def propagate() -> bool:
        while pending:
            a, c = pending.popleft()
            for rot in rotations[c]:
                length = len(rot)
                f = a
                i = 0
                while i < length:
                    nxt = table[f * width + rot[i]]
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
                while j >= i:
                    prev = table[b * width + (rot[j] ^ 1)]
                    if prev < 0:
                        break
                    b = prev
                    j -= 1
                if j < i:
                    # gap of length zero between distinct cosets: the
                    # forward and backward traces can never be joined
                    return False
                if j == i:
                    fill(f, rot[i], b)  # single gap: forced deduction
        return True

    # Depth-first search with an explicit stack, so the depth (one level
    # per definition) is not bounded by the interpreter's recursion limit.
    # A frame is (first empty cell, its remaining candidates, trail length
    # and coset count on entry); before each candidate the table is rolled
    # back to the frame's entry state.
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
            candidates = [b for b in range(nc) if table[b * width + inverse_col] < 0]
            if nc < n:
                candidates.append(nc)
            stack.append((pos, iter(candidates), len(trail), nc))
        elif nc >= least:
            results.append(
                CosetTable(
                    num_generators=m,
                    entries=tuple(tuple(table[r * width : (r + 1) * width]) for r in range(nc)),
                )
            )
        # take the next candidate of the innermost frame that has one left
        while stack:
            pos, candidates, mark, nc = stack[-1]
            while len(trail) > mark:
                table[trail.pop()] = -1
            b = next(candidates, None)
            if b is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"node budget {budget} exceeded at index {n}")
            if b == nc:
                nc += 1
                if len(table) < nc * width:
                    table.extend([-1] * width)
            fill(pos // width, pos % width, b)
            if propagate():
                break  # descend: scan on from pos in the extended table
            pending.clear()
        else:
            return results


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


def oracle_max_count(pres: GroupPresentation, n: int, *, node_budget: int | None = None) -> int:
    """Number of maximal subgroups of index n, by exhaustive enumeration."""
    tables = low_index_subgroups(pres, n, node_budget=node_budget)
    return sum(1 for t in tables if is_primitive(t))


def oracle_max_counts(
    pres: GroupPresentation, nmax: int, *, node_budget: int | None = None
) -> dict[int, int | None]:
    """``oracle_max_count`` for every index 2..nmax from one search.

    The budget keeps its per-index meaning: an index maps to None exactly
    when its own search would exceed the budget.  The index-n nodes are
    the pass's nodes with at most n cosets, so a pass within budget leaves
    out no index, and once one index runs out every larger index does."""
    try:
        tables = low_index_subgroups(pres, nmax, node_budget=node_budget, upto=True)
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
            counts[t.n] += 1
    return counts
