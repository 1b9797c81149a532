import gc
import hashlib
import itertools
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from maxgrowth import lowindex
from maxgrowth.core import GroupPresentation, is_prime, make_gk, make_hk
from maxgrowth.formulas import max_count_gk, max_count_hk
from maxgrowth.lowindex import (
    MAX_RELATOR_LENGTH,
    CosetTable,
    SearchBudgetExceeded,
    class_size,
    has_nontrivial_block_system,
    is_primitive,
    low_index_subgroups,
    oracle_max_count,
    oracle_max_counts,
)

PASS_GROUPS = {f"G_{k}": make_gk(k) for k in (2, 3, 4)} | {
    f"H_{k}": make_hk(k)[0] for k in range(-3, 4)
}


def permuted(pres, order):
    """The presentation with its generators listed in ``order``."""
    new_index = {old: new + 1 for new, old in enumerate(order)}
    relators = tuple(
        tuple(new_index[l - 1] if l > 0 else -new_index[-l - 1] for l in rel)
        for rel in pres.relators
    )
    return GroupPresentation(tuple(pres.generators[g] for g in order), relators)


def counts_from_tables(tables, nmax):
    """m_n for n = 2..nmax from an ``upto``, ``classes`` search."""
    counts = dict.fromkeys(range(2, nmax + 1), 0)
    for t in tables:
        if is_primitive(t):
            counts[t.n] += class_size(t)
    return counts


def rerooted(table, r):
    """The canonical table of the stabilizer of coset r: r becomes coset 0
    and the rest are renumbered in first-encounter order."""
    order = [r]
    label = {r: 0}
    entries = []
    for source in order:
        row = []
        for target in table.entries[source]:
            if target not in label:
                label[target] = len(order)
                order.append(target)
            row.append(label[target])
        entries.append(tuple(row))
    return CosetTable(table.num_generators, tuple(entries))


def bfs_renumbering(table):
    """First-encounter numbering while scanning rows in column order."""
    order = {0: 0}
    for row in range(table.n):
        for col in range(2 * table.num_generators):
            target = table.entries[row][col]
            if target not in order:
                order[target] = len(order)
    return order


class TestTableValidity:
    def check(self, pres, n):
        tables = low_index_subgroups(pres, n)
        cols = 2 * pres.num_generators
        for t in tables:
            # complete, mutually inverse columns
            for g in range(pres.num_generators):
                perm = t.generator_permutation(g)
                inv = tuple(row[2 * g + 1] for row in t.entries)
                assert sorted(perm) == list(range(n))
                for x in range(n):
                    assert inv[perm[x]] == x
            # every relator closes from every coset
            for rel in pres.relators:
                for start in range(n):
                    coset = start
                    for letter in rel:
                        col = 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1
                        coset = t.entries[coset][col]
                    assert coset == start
            # canonical numbering is the BFS numbering
            renumber = bfs_renumbering(t)
            assert renumber == {i: i for i in range(n)}
            assert len(t.entries) == n and all(len(r) == cols for r in t.entries)
        # exactly one canonical table per subgroup: no duplicates
        assert len({t.entries for t in tables}) == len(tables)
        return tables

    def test_z(self):
        z = make_gk(1)
        for n in range(2, 13):
            assert len(self.check(z, n)) == 1

    def test_g2(self):
        g2 = make_gk(2)
        for n in range(2, 9):
            self.check(g2, n)

    def test_g3_and_h1(self):
        self.check(make_gk(3), 4)
        self.check(make_hk(1)[0], 4)

    def test_relator_order_does_not_matter(self):
        pres, _, _ = make_hk(3)
        shuffled = GroupPresentation(pres.generators, tuple(reversed(pres.relators)))
        for n in (2, 3, 4, 5):
            a = sorted(t.entries for t in low_index_subgroups(pres, n))
            b = sorted(t.entries for t in low_index_subgroups(shuffled, n))
            assert a == b

    def test_deterministic_output(self):
        pres, _, _ = make_hk(-1)
        first = [t.entries for t in low_index_subgroups(pres, 5)]
        second = [t.entries for t in low_index_subgroups(pres, 5)]
        assert first == second


class TestCounts:
    def test_z_has_one_subgroup_per_index(self):
        z = make_gk(1)
        for n in range(2, 13):
            assert len(low_index_subgroups(z, n)) == 1

    def test_g2_small_counts(self):
        g2 = make_gk(2)
        assert len(low_index_subgroups(g2, 2)) == 3  # index-2 subgroups live in Z x Z/2
        tables = low_index_subgroups(g2, 3)
        assert len(tables) == 4
        assert sum(1 for t in tables if is_primitive(t)) == 4
        assert len(low_index_subgroups(g2, 4)) >= 1
        assert oracle_max_count(g2, 4) == 0

    def test_records(self):
        tables = low_index_subgroups(make_gk(2), 4)
        assert tables and all(t.n == 4 and not is_primitive(t) for t in tables)

    def test_a_n_at_least_m_n(self):
        pres, _, _ = make_hk(2)
        for n in range(2, 7):
            assert len(low_index_subgroups(pres, n)) >= oracle_max_count(pres, n)


class TestPrimitivity:
    def test_z_index_4_is_imprimitive(self):
        table = low_index_subgroups(make_gk(1), 4)[0]
        assert has_nontrivial_block_system(table)
        assert not is_primitive(table)

    def test_h1_index_9_all_imprimitive(self):
        pres, _, _ = make_hk(1)
        tables = low_index_subgroups(pres, 9)
        assert tables  # index-9 subgroups do exist
        assert all(has_nontrivial_block_system(t) for t in tables)
        assert oracle_max_count(pres, 9) == 0

    def test_prime_shortcut_is_sound(self):
        # at prime index the block algorithm agrees with the shortcut
        for pres in (make_gk(2), make_gk(3), make_hk(0)[0], make_hk(3)[0]):
            for n in (2, 3, 5, 7):
                for t in low_index_subgroups(pres, n):
                    assert not has_nontrivial_block_system(t)
                    assert is_primitive(t)

    def test_block_system_on_known_action(self):
        # cyclic shift on 4 points: blocks {0,2},{1,3}
        table = CosetTable(1, ((1, 3), (2, 0), (3, 1), (0, 2)))
        assert has_nontrivial_block_system(table)
        # natural S_3 action on 3 points is primitive
        # (columns: transpositions (0 1) and (0 2), each self-inverse)
        table3 = CosetTable(2, ((1, 1, 2, 2), (0, 0, 1, 1), (2, 2, 0, 0)))
        assert not has_nontrivial_block_system(table3)


class TestOracleAgainstClosedForms:
    def test_g_family(self):
        for k, nmax in ((2, 8), (3, 6), (4, 4)):
            pres = make_gk(k)
            for n in range(2, nmax + 1):
                assert oracle_max_count(pres, n) == max_count_gk(k, n).count, (k, n)

    def test_h2_small(self):
        pres, _, _ = make_hk(2)
        assert oracle_max_count(pres, 2) == 7
        assert oracle_max_count(pres, 3) == 13
        assert oracle_max_count(pres, 4) == 0

    def test_congruence_mod_p(self):
        for k in (0, 2):
            pres, _, _ = make_hk(k)
            for p in (2, 3, 5):
                assert oracle_max_count(pres, p) % p == 1

    def test_h_family_spot_checks(self):
        for k in (-1, 3):
            pres, _, _ = make_hk(k)
            for n in (2, 3, 4, 5):
                assert oracle_max_count(pres, n) == max_count_hk(k, n).count, (k, n)


class TestLimits:
    def test_index_bound(self):
        # only n >= 2 is checked; the node budget bounds everything else
        z = make_gk(1)
        assert len(low_index_subgroups(z, 13)) == 1
        with pytest.raises(ValueError):
            low_index_subgroups(z, 1)
        # Z takes one search node per coset, so a huge index exhausts the
        # budget without a table sized by n
        with pytest.raises(SearchBudgetExceeded):
            low_index_subgroups(z, 10 ** 12, node_budget=100)

    def test_generator_cap(self):
        pres = GroupPresentation(tuple("abcdefg"), ())
        with pytest.raises(ValueError):
            low_index_subgroups(pres, 2)

    def test_node_budget(self):
        pres, _, _ = make_hk(2)
        with pytest.raises(SearchBudgetExceeded):
            low_index_subgroups(pres, 9, node_budget=10)
        # a generous budget succeeds
        assert low_index_subgroups(pres, 4, node_budget=10 ** 6) is not None


class TestOnePass:
    @pytest.mark.parametrize("name", PASS_GROUPS)
    def test_upto_matches_each_index(self, name):
        pres = PASS_GROUPS[name]
        tables = low_index_subgroups(pres, 12, upto=True)
        counts = oracle_max_counts(pres, 12)
        assert sorted(counts) == list(range(2, 13))
        assert all(2 <= t.n <= 12 for t in tables)
        for n in range(2, 13):
            single = low_index_subgroups(pres, n)
            # the same tables in the same order, so the same m_n
            assert [t for t in tables if t.n == n] == single, n
            assert counts[n] == sum(1 for t in single if is_primitive(t)), n

    def test_budget_skips_from_the_first_exhausted_index(self):
        pres, _, _ = make_hk(-2)
        expected = {}
        for n in range(2, 11):
            try:
                expected[n] = oracle_max_count(pres, n, node_budget=1000)
            except SearchBudgetExceeded:
                expected[n] = None
        counts = oracle_max_counts(pres, 10, node_budget=1000)
        assert counts == expected
        skipped = [n for n, count in counts.items() if count is None]
        assert skipped == list(range(skipped[0], 11)) and skipped[0] > 2
        assert counts[2] == max_count_hk(-2, 2).count

    def test_deep_search(self):
        # one search level per coset: index 1000 on Z is 1000 levels deep
        assert len(low_index_subgroups(make_gk(1), 1000)) == 1

    def test_search_leaves_no_reference_cycles(self):
        pres = make_gk(3)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            tables = low_index_subgroups(pres, 8)
            del tables
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_relator_length_cap(self):
        # Z/L on one generator: every rotation of a^L is a^L, so the cap is
        # checked without paying for L rotations
        at_cap = GroupPresentation(("a",), ((1,) * MAX_RELATOR_LENGTH,))
        assert len(low_index_subgroups(at_cap, 2)) == 1
        over_cap = GroupPresentation(("a",), ((1,) * (MAX_RELATOR_LENGTH + 1),))
        with pytest.raises(ValueError, match="relators of at most"):
            low_index_subgroups(over_cap, 2)
        with pytest.raises(ValueError, match="relators of at most"):
            oracle_max_counts(over_cap, 2)


class TestClasses:
    @pytest.mark.parametrize("name", PASS_GROUPS)
    def test_representatives_weigh_up_to_every_subgroup(self, name):
        pres = PASS_GROUPS[name]
        every = low_index_subgroups(pres, 12, upto=True)
        reps = low_index_subgroups(pres, 12, upto=True, classes=True)
        assert set(reps) <= set(every)
        for n in range(2, 13):
            subgroups = [t for t in every if t.n == n]
            classes = [t for t in reps if t.n == n]
            assert sum(map(class_size, classes)) == len(subgroups), n
            if n <= 8:
                # the same representatives as the index-n search alone
                assert classes == low_index_subgroups(pres, n, classes=True), n
        for t in reps:
            # least in scan order among its re-rootings, so least in its class
            assert all(t.entries <= rerooted(t, r).entries for r in range(t.n))

    def test_class_size_counts_distinct_conjugates(self):
        for pres in (make_gk(3), make_hk(1)[0]):
            for t in low_index_subgroups(pres, 8, upto=True):
                conjugates = {rerooted(t, r).entries for r in range(t.n)}
                assert class_size(t) == len(conjugates)

    def test_class_size_of_a_normal_subgroup(self):
        # every subgroup of Z is normal; the automorphisms found settle all
        # 1000 cosets after one comparison
        (table,) = low_index_subgroups(make_gk(1), 1000)
        start = time.perf_counter()
        assert class_size(table) == 1
        assert time.perf_counter() - start < 0.5

    def test_pruning_saves_nodes(self):
        # exact node counts of the index-n searches on H_1, n = 2..6
        pres, _, _ = make_hk(1)
        every, reps = (22, 86, 248, 637, 1387), (22, 78, 207, 524, 1174)
        for classes, counts in ((False, every), (True, reps)):
            for n, nodes in zip(range(2, 7), counts):
                low_index_subgroups(pres, n, node_budget=nodes, classes=classes)
                with pytest.raises(SearchBudgetExceeded):
                    low_index_subgroups(pres, n, node_budget=nodes - 1, classes=classes)


class TestSearchOrder:
    @pytest.mark.parametrize(
        "pres, nmax",
        [(make_hk(k)[0], 8) for k in (-2, 0, 3)] + [(make_gk(3), 10)],
        ids=["H_-2", "H_0", "H_3", "G_3"],
    )
    def test_generator_order_does_not_change_the_counts(self, pres, nmax):
        # the oracle searches a reordered copy, so m_n must not depend on
        # the generator order: every order gives the counts of the
        # caller's order, searched as given and through the oracle
        tables = low_index_subgroups(pres, nmax, upto=True, classes=True)
        expected = counts_from_tables(tables, nmax)
        assert oracle_max_counts(pres, nmax) == expected
        for order in itertools.permutations(range(pres.num_generators)):
            reordered = permuted(pres, order)
            searched = low_index_subgroups(reordered, nmax, upto=True, classes=True)
            assert counts_from_tables(searched, nmax) == expected, order
            assert oracle_max_counts(reordered, nmax) == expected, order

    def test_budget_counts_the_reordered_search(self):
        # H_1 is searched as (a, t1, t2, b): at index 3 that takes 95 nodes,
        # where the caller's order (t1, t2, b, a) takes 78
        pres, _, _ = make_hk(1)
        low_index_subgroups(pres, 3, node_budget=78, classes=True)
        assert oracle_max_count(pres, 3, node_budget=95) == max_count_hk(1, 3).count
        with pytest.raises(SearchBudgetExceeded):
            oracle_max_count(pres, 3, node_budget=94)
        assert oracle_max_counts(pres, 3, node_budget=94) == {2: 3, 3: None}


class TestCanonicalSearch:
    """The search contract, pinned on more groups than H_1: the exact node
    count of each index-n class search, and the exact table list of one
    ``upto`` class pass to index 10."""

    @pytest.mark.parametrize(
        "pres, budgets",
        [
            (make_hk(3)[0], (22, 93, 284, 752, 1700, 3238)),
            (make_gk(4), (37, 187, 594, 1403, 2659, 4368)),
        ],
        ids=["H_3", "G_4"],
    )
    def test_minimal_node_budgets(self, pres, budgets):
        for n, nodes in zip(range(2, 8), budgets):
            low_index_subgroups(pres, n, node_budget=nodes, classes=True)
            with pytest.raises(SearchBudgetExceeded):
                low_index_subgroups(pres, n, node_budget=nodes - 1, classes=True)

    # (number of tables, first 16 hex digits of the sha256 of the repr of
    # their entries, in order)
    PASS_DIGESTS = {
        "G_2": (40, "dab7bf26f101a2e5"),
        "G_3": (137, "5593e36729e3133d"),
        "G_4": (457, "64d7d329107ad67c"),
        "H_-3": (81, "7e7fa8aa813354ac"),
        "H_-2": (227, "3dc8ea409c4f01cb"),
        "H_-1": (81, "70b611d325501369"),
        "H_0": (145, "b16b740aaabb5d7a"),
        "H_1": (58, "28dfe04b55f65161"),
        "H_2": (326, "3b0cf6bdd9eb59e8"),
        "H_3": (59, "f3d0635b8b85aa59"),
    }

    @pytest.mark.parametrize("name", PASS_GROUPS)
    def test_class_pass_tables(self, name):
        tables = low_index_subgroups(PASS_GROUPS[name], 10, upto=True, classes=True)
        digest = hashlib.sha256(repr([t.entries for t in tables]).encode()).hexdigest()
        assert (len(tables), digest[:16]) == self.PASS_DIGESTS[name]


class TestSplitSearch:
    """One search split over 1, 2 and 3 forked workers returns the serial
    search's tables, in its order, and counts its nodes."""

    WORKERS = (1, 2, 3)
    # the node count of the upto=True, classes=True pass to index 12, as
    # the serial search counts it
    PASS_NODES = {
        "G_2": 420,
        "G_3": 3570,
        "G_4": 23762,
        "H_-3": 34200,
        "H_-2": 26620,
        "H_-1": 14284,
        "H_0": 18301,
        "H_1": 14273,
        "H_2": 30538,
        "H_3": 33423,
    }

    @staticmethod
    def force_workers(monkeypatch, count):
        monkeypatch.setattr(lowindex, "_worker_count", lambda: count)

    @staticmethod
    def record_forks(monkeypatch):
        """The pids of the children forked from here on."""
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @pytest.mark.parametrize("name", PASS_GROUPS)
    def test_class_pass_is_the_serial_one(self, name, monkeypatch):
        pres, nodes = PASS_GROUPS[name], self.PASS_NODES[name]
        passes = []
        for workers in self.WORKERS:
            self.force_workers(monkeypatch, workers)
            tables = low_index_subgroups(pres, 12, upto=True, classes=True, node_budget=nodes)
            passes.append([t.entries for t in tables])
            with pytest.raises(SearchBudgetExceeded):
                low_index_subgroups(pres, 12, upto=True, classes=True, node_budget=nodes - 1)
        assert passes[1] == passes[0] and passes[2] == passes[0]

    @pytest.mark.parametrize(
        "pres, nodes", [(make_hk(3)[0], 14328), (make_gk(4), 12990)], ids=["H_3", "G_4"]
    )
    @pytest.mark.parametrize("workers", WORKERS)
    def test_minimal_node_budget(self, pres, nodes, workers, monkeypatch):
        # the serial index-10 class search visits exactly `nodes` nodes
        self.force_workers(monkeypatch, workers)
        low_index_subgroups(pres, 10, node_budget=nodes, classes=True)
        with pytest.raises(SearchBudgetExceeded):
            low_index_subgroups(pres, 10, node_budget=nodes - 1, classes=True)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_budget_exceeded_in_one_workers_half(self, workers, monkeypatch):
        # Z's tree is a path with a leaf at every depth: subtree 0 is a
        # leaf, and worker 1 takes subtree 1, the rest of the path, alone
        self.force_workers(monkeypatch, workers)
        pids = self.record_forks(monkeypatch)
        with pytest.raises(SearchBudgetExceeded, match="node budget 100 exceeded"):
            low_index_subgroups(make_gk(1), 10 ** 12, node_budget=100)
        assert len(pids) == workers - 1

    def test_a_shallow_search_forks_nothing(self, monkeypatch):
        self.force_workers(monkeypatch, 2)
        pids = self.record_forks(monkeypatch)
        assert len(low_index_subgroups(make_gk(2), 2)) == 3
        assert pids == []
        assert len(low_index_subgroups(make_gk(1), 30)) == 1
        assert len(pids) == 1

    @pytest.mark.parametrize("workers", (2, 3))
    def test_parent_failure_kills_and_reaps_the_workers(self, workers, monkeypatch):
        # worker 1 walks Z's path towards index 10^12, far beyond the time
        # the alarm gives it; the alarm raises in worker 0 while it waits
        class Alarm(Exception):
            pass

        def ring(signum, frame):
            raise Alarm

        self.force_workers(monkeypatch, workers)
        pids = self.record_forks(monkeypatch)
        previous = signal.signal(signal.SIGALRM, ring)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(Alarm):
                low_index_subgroups(make_gk(1), 10 ** 12)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 10
        assert len(pids) == workers - 1
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)  # already reaped

    def test_a_workers_error_reaches_the_parent(self, monkeypatch):
        parent = os.getpid()
        orbit_size = lowindex._rerooting_orbit_size

        def failing_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                raise ArithmeticError("in a worker")
            return orbit_size(*args, **kwargs)

        self.force_workers(monkeypatch, 2)
        monkeypatch.setattr(lowindex, "_rerooting_orbit_size", failing_in_a_child)
        with pytest.raises(ArithmeticError, match="in a worker"):
            low_index_subgroups(make_hk(3)[0], 10, classes=True)

    # a caller that prints the pid of each worker it forks, then searches
    # on; with "claims" and "holding" its workers do not ask the kernel to
    # end them with it, and so end only at a claim; with "holding" the
    # caller takes the claim counter at its first claim, prints "held" and
    # keeps it, so that its worker ends while waiting for the counter
    KILLED_CALLER = """
import os, select, sys, time
from maxgrowth import lowindex
from maxgrowth.core import make_gk, make_hk

lowindex._worker_count = lambda: 2
if sys.argv[1] != "kernel":
    lowindex._end_with_parent = lambda parent: None
if sys.argv[1] == "holding":
    claim = lowindex._Split.claim

    def holding_claim(split):
        if split.index:
            return claim(split)
        while True:
            select.select([split.token[0]], [], [])
            try:
                os.read(split.token[0], lowindex._TOKEN.size)
                break
            except BlockingIOError:  # the worker took it first
                pass
        print("held", flush=True)
        time.sleep(600)

    lowindex._Split.claim = holding_claim
fork = os.fork

def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

os.fork = announcing_fork
lowindex.low_index_subgroups({search})
"""

    @staticmethod
    def state(pid):
        """The process's state letter in /proc, or None once it is gone."""
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return None

    @classmethod
    def ended(cls, pid):
        """Whether the process has ended: it is gone, or a zombie left to
        whichever process adopted it."""
        return cls.state(pid) in (None, "Z")

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
    @pytest.mark.parametrize(
        "ending, search",
        [
            # Z's path below SPLIT_DEPTH is one subtree: worker 1 never claims
            ("kernel", "make_gk(1), 10 ** 12"),
            ("claims", "make_hk(3)[0], 30, classes=True"),
            ("holding", "make_hk(3)[0], 30, classes=True"),
        ],
    )
    def test_a_killed_caller_leaves_no_worker(self, ending, search):
        src = os.path.dirname(os.path.dirname(lowindex.__file__))
        caller = subprocess.Popen(
            [sys.executable, "-c", self.KILLED_CALLER.format(search=search), ending],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            worker = int(caller.stdout.readline())
            if ending == "holding":
                assert caller.stdout.readline() == b"held\n"
                # kill the caller once its worker sleeps, waiting for the counter
                deadline = time.monotonic() + 10
                while self.state(worker) == "R" and time.monotonic() < deadline:
                    time.sleep(0.02)
        finally:
            caller.kill()  # SIGKILL: the caller runs no clean-up
            caller.wait()
            caller.stdout.close()
        try:
            deadline = time.monotonic() + 10
            while not self.ended(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert self.ended(worker)
        finally:
            if not self.ended(worker):
                os.kill(worker, signal.SIGKILL)

    def test_serial_while_another_thread_is_alive(self):
        cpus = len(os.sched_getaffinity(0))
        assert lowindex._worker_count() == min(cpus, lowindex.MAX_WORKERS)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert lowindex._worker_count() == 1
        finally:
            stop.set()
            thread.join()


class TestPrimitiveFilter:
    """``primitive=True`` keeps the primitive tables of the search that keeps
    them all, in its order, tested in whichever worker finds each table,
    and visits the same nodes."""

    @pytest.mark.parametrize("name", PASS_GROUPS)
    def test_class_pass_keeps_the_primitive_subsequence(self, name, monkeypatch):
        pres, nodes = PASS_GROUPS[name], TestSplitSearch.PASS_NODES[name]
        every = low_index_subgroups(pres, 12, upto=True, classes=True)
        expected = [t for t in every if is_primitive(t)]
        assert 0 < len(expected) < len(every)
        for workers in TestSplitSearch.WORKERS:
            TestSplitSearch.force_workers(monkeypatch, workers)
            kept = low_index_subgroups(
                pres, 12, upto=True, classes=True, primitive=True, node_budget=nodes
            )
            assert kept == expected, workers
            with pytest.raises(SearchBudgetExceeded):
                low_index_subgroups(
                    pres, 12, upto=True, classes=True, primitive=True, node_budget=nodes - 1
                )

    def test_every_subgroup_of_one_index(self):
        # H_1 has 11 subgroups of index 4, 4 of them maximal
        pres = make_hk(1)[0]
        every = low_index_subgroups(pres, 4)
        kept = low_index_subgroups(pres, 4, primitive=True)
        assert (len(every), len(kept)) == (11, 4)
        assert kept == [t for t in every if is_primitive(t)]
        assert oracle_max_count(pres, 4) == len(kept) == max_count_hk(1, 4).count
