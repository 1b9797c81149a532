"""Spans around the calls into each layer of maxgrowth, for the traced run.

A ``Tracer`` wraps every public function and every public method of a
public class defined in the layer modules, and rebinds each wrapped name
in every ``maxgrowth`` module that holds it, so calls between modules go
through the wrapper.  Each call records one span (name, start, end,
parent span, op id) in memory; the op id is the number of stdout lines
written so far.  Leaving the ``with`` block restores the originals.
Nothing inside the package is edited.
"""

from __future__ import annotations

import gzip
import inspect
import operator
import sys
from array import array
from collections import Counter
from functools import update_wrapper
from time import perf_counter

LAYERS = ("core", "linalg", "formulas", "modules", "derivations", "recursion", "lowindex", "cli")

# spans whose results are also tallied: sum(tally(result)) per name
RESULT_TALLIES = {
    "modules.maximal_submodules": len,
    "lowindex.low_index_subgroups": len,
    "lowindex.is_primitive": bool,
}

# functions reported with their call count and self time
FUNCTIONS = (
    "core.classify_index",
    "core.is_prime",
    "core.primes_dividing",
    "formulas.max_count_hk",
    "formulas.max_count_gk",
    "formulas.noniso_certificate",
    "modules.ModuleAction.satisfies",
    "modules.maximal_submodules",
    "modules.invariant_subspaces",
    "modules.quotient_action",
    "derivations.count_derivations",
    "recursion.hk_lattice_extension",
    "recursion.max_count_split",
    "lowindex.low_index_subgroups",
    "lowindex.is_primitive",
)
# functions reported with their self time only
SELF_ONLY = ("recursion.recursive_hk", "recursion.recursive_gk")

PER_LAYER_UNITS = {
    **{f"{name}.{stat}": unit for name in FUNCTIONS for stat, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.self_s": "s" for name in SELF_ONLY},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "linalg.calls": "count",
    "recursion.validations_per_cell": "ratio",
    "modules.submodules_found": "count",
    "lowindex.tables": "count",
    "lowindex.tables_per_s": "1/s",
    "lowindex.maximal_ratio": "ratio",
    "lowindex.budget_exceeded": "count",
    "lowindex.self_frac": "ratio",
    "core.primes_dividing.self_frac": "ratio",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}

# what each workload should show; printed by the traced run, never gating
ISOLATION = {
    "sweep": (
        ("lowindex.low_index_subgroups.calls", "==", 0),
        ("core.primes_dividing.calls", "==", 0),
    ),
    "oracle": (("lowindex.self_frac", ">=", 0.9),),
    "certify": (
        ("lowindex.low_index_subgroups.calls", "==", 0),
        ("core.primes_dividing.self_frac", ">", 0.5),
    ),
}


def _targets():
    """(span name, owner, attribute, function) for every traced callable."""
    for layer in LAYERS:
        module = sys.modules[f"maxgrowth.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{attr}.{meth}", obj, meth, fn


class Tracer:
    """Records spans while active; ``clock.lines`` supplies the op id."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.tallies: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "maxgrowth"]
        for name, owner, attr, fn in list(_targets()):
            wrapped = self._wrap(name, fn)
            holders = [owner] if inspect.isclass(owner) else package
            for holder in holders:
                if vars(holder).get(attr) is fn:
                    self._undo.append((holder, attr, fn))
                    setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tally = RESULT_TALLIES.get(name)
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack, lines = self.starts, self.ends, self._stack, self.clock.lines
        tallies, raised = self.tallies, self.raised

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(len(lines))
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if tally is not None:
                tallies[name] += tally(result)
            return result

        return update_wrapper(traced, fn)

    def self_times(self) -> tuple[Counter[str], Counter[str]]:
        """Calls and summed self time per span name.  A span's self time is
        its duration minus the durations of its child spans."""
        n = len(self.starts)
        child = [0.0] * n
        self_by_id = [0.0] * len(self.names)
        calls_by_id = [0] * len(self.names)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        for i in range(n - 1, -1, -1):  # children follow their parent
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
            self_by_id[name_ids[i]] += duration - child[i]
            calls_by_id[name_ids[i]] += 1
        calls = Counter(dict(zip(self.names, calls_by_id)))
        self_s = Counter(dict(zip(self.names, self_by_id)))
        return calls, self_s

    def layer_metrics(self, cells: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every metric of ``PER_LAYER_UNITS``; ``cells`` is the number of
        verify cells the traced pass ran."""
        calls, self_s = self.self_times()
        total_self = sum(self_s.values())

        def layer_sum(counter, layer):
            return sum(v for name, v in counter.items() if name.split(".")[0] == layer)

        def share(part, whole):
            return part / whole if whole else 0.0

        values = {}
        for name in FUNCTIONS:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        for name in SELF_ONLY:
            values[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = layer_sum(self_s, layer)
        tables = self.tallies["lowindex.low_index_subgroups"]
        values.update(
            {
                "linalg.calls": layer_sum(calls, "linalg"),
                "recursion.validations_per_cell": share(calls["modules.ModuleAction.satisfies"], cells),
                "modules.submodules_found": self.tallies["modules.maximal_submodules"],
                "lowindex.tables": tables,
                "lowindex.tables_per_s": share(tables, self_s["lowindex.low_index_subgroups"]),
                "lowindex.maximal_ratio": share(self.tallies["lowindex.is_primitive"], tables),
                "lowindex.budget_exceeded": self.raised[
                    "lowindex.low_index_subgroups", "SearchBudgetExceeded"
                ],
                "lowindex.self_frac": share(values["lowindex.self_s"], total_self),
                "core.primes_dividing.self_frac": share(self_s["core.primes_dividing"], total_self),
                "trace.spans": len(self.starts),
                "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
            }
        )
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: span,name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            names = self.names
            for i, (nid, start, end, parent, op) in enumerate(
                zip(self.name_ids, self.starts, self.ends, self.parents, self.ops)
            ):
                out.write(f"{i},{names[nid]},{start:.9f},{end:.9f},{parent},{op}\n")


def isolation_report(workload: str, metrics: dict) -> list[str]:
    """One line per expected isolation property of the workload."""
    compare = {"==": operator.eq, ">=": operator.ge, ">": operator.gt}
    lines = []
    for name, op, bound in ISOLATION.get(workload, ()):
        value = metrics[name]["value"]
        verdict = "ok" if compare[op](value, bound) else "VIOLATED"
        lines.append(f"isolation: {name} = {value:.6g} (expected {op} {bound}) {verdict}")
    return lines
