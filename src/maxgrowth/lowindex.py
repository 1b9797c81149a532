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

The subtrees below a node are searched independently of each other (Sims
ch. 5), so one search is split over the CPUs this process may use, with
``os.fork``.  The first node at depth ``SPLIT_DEPTH`` forks the workers,
each a copy of the search at that node, and a search that never gets so
deep forks nothing.  Every worker walks the same tree above that depth,
so all of them number its depth-``SPLIT_DEPTH`` subtrees 0, 1, 2, ... in
search order alike.  A worker descends only into the subtrees it claims
from a counter shared through a pipe: worker i starts on subtree i and
claims the next unclaimed one each time it finishes one.  Worker 0 (the
caller) merges the tables by subtree, with a subtree's tables before the
tables found above the split depth that follow it in search order, which
only worker 0 keeps; the sort is stable and one worker finds all of a
subtree's tables in their search order, so the merged list is the serial
one.  A worker filters the tables it finds itself (``primitive`` keeps
the maximal ones only), before they get a merge key, so only the kept
tables cross the pipe; filtering a complete table, a leaf, changes no
node and no node count, and the kept tables stay in serial order.  The
nodes above the split depth are the same in every worker, so
the serial search's node count is those nodes plus each worker's nodes
below them, and the budget is checked against that total once the workers
are done: the split raises ``SearchBudgetExceeded`` exactly when the serial
search would.  A worker whose own nodes exceed the budget raises at once,
as the total exceeds it too.  A worker ends when worker 0 ends, also when
worker 0 is killed by a signal and runs no clean-up.  With one usable CPU,
without ``os.fork``, or while another thread is alive, the same loop runs
as the only worker.

Maximality is tested through the coset action: a subgroup is maximal iff
the action on its cosets is primitive, i.e. admits no nontrivial block
system.  Prime degree transitive actions are always primitive, so prime
index short-circuits to True.  Conjugate subgroups are all maximal or all
not, so the oracle counts m_n as the sum of class sizes over the
primitive class representatives, which its search returns alone
(``primitive``), each checked again by ``is_primitive``.  The oracle
searches a copy of the presentation with its generators reordered
(``_search_order``): m_n does not depend on that order, and the order
chosen visits fewer nodes.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import signal
import struct
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import NoReturn

from .core import GroupPresentation, MAX_RELATOR_LENGTH, is_prime

DEFAULT_NODE_BUDGET = 10 ** 8
MAX_GENERATORS = 6
# the depth of the subtrees a search is split into.  Every worker walks the
# whole tree above it, so it must be shallow enough for that walk to stay a
# small share of the search, and deep enough to give many more subtrees than
# workers, so that claiming them one at a time keeps every worker busy to
# the end.  On a 2-core VM, two workers take 0.55 of the serial wall time
# at depth 8, both on the class passes of G_3, G_4 and H_-3..H_3 to index
# 14 (1,908 subtrees) and of H_2 and H_3 to index 25 (490); at depth 6 the
# passes to 25 give 175 subtrees and take 0.66, and at depths 10 to 14 the
# walk above them raises the passes to 14 to 0.59-0.77.
SPLIT_DEPTH = 8
# the most processes a search is split over.  The split was measured on two
# CPUs only; with more, every extra worker walks the tree above SPLIT_DEPTH
# again and is one more fork of the caller, and whether that pays off on a
# search of a tenth of a second is unmeasured
MAX_WORKERS = 2


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
    primitive: bool = False,
) -> list[CosetTable]:
    """All index-n subgroups of the presented group, as canonical tables,
    in deterministic (depth-first) order.  With ``upto`` the same search
    also keeps every complete table with 2..n - 1 cosets, so one call
    returns the subgroups of every index 2..n, in search order.  With
    ``classes`` it keeps one table per conjugacy class instead: the least
    of the class in scan order, which ``class_size`` weighs.  With
    ``primitive`` it keeps only the tables whose coset action is
    primitive, i.e. the maximal subgroups; the test runs in the worker
    that finds the table, after the class test, and leaves the nodes, the
    node count and the order of the kept tables as they are.  Any n >= 2
    is accepted; the node budget is what bounds the search.

    The index-j search visits exactly the nodes of this one whose tables
    have at most j cosets (a new coset is the only move the cap forbids,
    and class pruning looks only at the partial table), so filtering the
    ``upto`` result by index gives each index-j result, in the same
    order.

    The search may be split over several processes (see the module
    docstring); the result and the node count are the serial search's.
    The node budget counts every worker's nodes: those above the split
    depth once, as every worker visits the same ones, and each worker's
    below it."""
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
    # rolled back to the frame's entry state.  A node's depth is the stack
    # length when it is entered.
    nc = 1  # cosets allocated so far
    nodes = 0
    pos = 0  # where the scan for the first empty cell starts
    stack: list[tuple[int, Iterator[int], int, int]] = []
    keys: list[int] = []  # per table: 2 * subtree, + 1 if found above SPLIT_DEPTH
    split: _Split | None = None  # made at the first node of depth SPLIT_DEPTH
    subtree = claimed = -1  # the last subtree numbered, and the last claimed
    # this worker's nodes below SPLIT_DEPTH, and the node count on entering
    # the subtree in hand
    deep = entered = 0
    try:
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
                keep = not classes or _rerooting_orbit_size(flat, nc, width, least_only=True)
                if keep and primitive:  # as is_primitive, on the flat table
                    keep = is_prime(nc) or not _has_block_system(flat, nc, width)
                if keep:
                    keys.append(2 * subtree + (len(stack) < SPLIT_DEPTH))
                    entries = tuple(tuple(flat[i : i + width]) for i in range(0, limit, width))
                    results.append(CosetTable(num_generators=m, entries=entries))
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
                    if len(stack) == SPLIT_DEPTH:
                        deep += nodes - entered  # the subtree in hand is done
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
                    if len(stack) != SPLIT_DEPTH:
                        break  # descend: scan on from pos in the extended table
                    # the root of the next subtree in search order
                    subtree += 1
                    if subtree > claimed:
                        if split is None:
                            split = _Split(_worker_count())
                            claimed = split.index
                        else:
                            claimed = split.claim()
                    if subtree == claimed:  # this worker's: descend; others': skip
                        entered = nodes
                        break
            else:
                break  # the stack is empty: the search is done
        if split is not None:
            if split.index:
                split.report((deep, [kt for kt in zip(keys, results) if kt[0] % 2 == 0]))
            outcomes = split.gather()
            if nodes + sum(d for d, _ in outcomes) > budget:
                raise SearchBudgetExceeded(f"node budget {budget} exceeded at index {n}")
            merged = list(zip(keys, results))
            for _, theirs in outcomes:
                merged += theirs
            merged.sort(key=itemgetter(0))  # stable: each key's tables come from one worker
            results = [t for _, t in merged]
    except BaseException as exc:
        if split is not None:
            if split.index:
                split.report(exc)
            split.abandon()
        raise
    return results


# the shared claim counter: the next unclaimed subtree
_TOKEN = struct.Struct("q")
_CLAIM_WAKE_S = 0.25  # how often a worker waiting for the counter checks its parent
_PR_SET_PDEATHSIG = 1  # prctl option: the signal a process gets when its parent ends


def _worker_count() -> int:
    """How many processes a search is split over: the CPUs this process may
    run on, at most ``MAX_WORKERS``, or 1 without ``os.fork`` or while
    another thread is alive (a forked child could find a lock held by a
    thread it does not have)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _end_with_parent(parent: int) -> None:
    """In a worker just forked from ``parent``: have the kernel kill it when
    the parent ends (Linux ``prctl``), so that a caller killed by a signal,
    which runs no clean-up, leaves no worker searching on.  Without
    ``prctl`` the worker ends at its next claim, or while it waits for one,
    instead."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (AttributeError, OSError):
        pass  # no prctl
    if os.getppid() != parent:
        os._exit(0)  # the parent ended before the request took effect


class _Split:
    """The workers of one split search.  The calling process is worker 0;
    the constructor forks workers 1..count - 1, each a copy of the search at
    the first subtree, and each returns from it with its own ``index``.
    Worker i starts on subtree i and claims the next unclaimed one whenever
    it finishes one.  With one worker nothing is forked, and the claims are
    1, 2, 3, ... in order."""

    def __init__(self, count: int):
        self.index = 0
        self.parent = os.getpid()
        self.children: list[tuple[int, int]] = []  # (pid, read end of its outcome pipe)
        self.token: tuple[int, int] | None = os.pipe()  # holds the claim counter
        os.set_blocking(self.token[0], False)  # a claim waits in select, not in read
        try:
            for index in range(1, count):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: split over the workers there are
                    os.close(r)
                    os.close(w)
                    break
                if pid == 0:
                    _end_with_parent(self.parent)
                    self.index, self.out = index, w
                    os.close(r)
                    for _, fd in self.children:
                        os.close(fd)
                    self.children = []
                    return
                os.close(w)
                self.children.append((pid, r))
        except BaseException:
            self.abandon()
            raise
        os.write(self.token[1], _TOKEN.pack(len(self.children) + 1))

    def claim(self) -> int:
        """Claim the next unclaimed subtree.  A worker i > 0 whose parent,
        worker 0, has ended ends here, also while it waits for the counter
        (the parent may have ended holding it): nobody would read its
        tables."""
        r, w = self.token
        while True:
            if self.index and os.getppid() != self.parent:
                os._exit(0)
            try:
                (claim,) = _TOKEN.unpack(os.read(r, _TOKEN.size))
                break
            except BlockingIOError:  # another worker holds the counter
                select.select([r], [], [], _CLAIM_WAKE_S)
        os.write(w, _TOKEN.pack(claim + 1))
        return claim

    def report(self, outcome) -> NoReturn:
        """Worker i > 0: send ``outcome`` (its deep nodes and keyed tables,
        or the exception it raised) to worker 0 and end the process."""
        try:
            try:
                data = pickle.dumps(outcome)
            except Exception:
                data = pickle.dumps(RuntimeError(f"search worker {self.index} failed: {outcome!r}"))
            with os.fdopen(self.out, "wb") as out:
                out.write(data)
        finally:
            os._exit(0)

    def gather(self) -> list[tuple[int, list[tuple[int, CosetTable]]]]:
        """Worker 0: read each child's outcome to the end, reap the child,
        and raise the exception a child raised, if any."""
        outcomes = []
        while self.children:
            pid, fd = self.children[-1]
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            self.children.pop()
            os.close(fd)
            os.waitpid(pid, 0)
            if not chunks:
                raise RuntimeError(f"search worker {pid} ended without an outcome")
            outcome = pickle.loads(b"".join(chunks))
            if isinstance(outcome, BaseException):
                raise outcome
            outcomes.append(outcome)
        self._close_token()
        return outcomes

    def abandon(self) -> None:
        """Worker 0: kill and reap every child not yet reaped."""
        for pid, fd in self.children:
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
        self.children = []
        self._close_token()

    def _close_token(self) -> None:
        if self.token is not None:
            for fd in self.token:
                os.close(fd)
            self.token = None


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


def _has_block_system(flat: list[int], n: int, width: int) -> bool:
    """``has_nontrivial_block_system`` on a complete table flattened row by
    row, ``width`` entries a row.  The partition generated by one merged
    pair joins all n cosets exactly when its closure makes n - 1 merges."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for beta in range(1, n):
        parent[:] = range(n)
        merges = 0
        stack = [(0, beta)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[max(rx, ry)] = min(rx, ry)
            merges += 1
            x *= width
            y *= width
            for c in range(0, width, 2):  # the generators' columns
                stack.append((flat[x + c], flat[y + c]))
        if merges < n - 1:
            return True
    return False


def has_nontrivial_block_system(table: CosetTable) -> bool:
    """Whether the coset action preserves a partition other than the two
    trivial ones.  Runs the minimal-block closure seeded with each pair
    {0, beta}: the partition generated by one merged pair is the finest
    block system joining that pair, so the action is imprimitive exactly
    when some seed closes up short of the full coset set."""
    flat = [x for row in table.entries for x in row]
    return _has_block_system(flat, table.n, 2 * table.num_generators)


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
    budget counts the nodes of that search.  The search returns the
    primitive representatives only, and ``is_primitive`` checks them
    again here."""
    tables = low_index_subgroups(
        _search_order(pres), n, node_budget=node_budget, classes=True, primitive=True
    )
    return sum(class_size(t) for t in tables if is_primitive(t))


def oracle_max_counts(
    pres: GroupPresentation, nmax: int, *, node_budget: int | None = None
) -> dict[int, int | None]:
    """``oracle_max_count`` for every index 2..nmax from one search.

    Like ``oracle_max_count`` it searches the reordered copy of ``pres``,
    and the budget counts that search's nodes, over every worker the
    search is split across, so a split search exceeds it exactly when
    the serial one would.  The budget keeps its per-index meaning: an
    index maps to None exactly when its own search would exceed the
    budget.  The index-n nodes are the pass's nodes with
    at most n cosets, so a pass within budget leaves out no index, and
    once one index runs out every larger index does."""
    try:
        tables = low_index_subgroups(
            _search_order(pres),
            nmax,
            node_budget=node_budget,
            upto=True,
            classes=True,
            primitive=True,
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
