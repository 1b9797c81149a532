"""Command-line front door: growth tables, verification campaigns,
non-isomorphism certificates and growth degrees.

Tables and verdicts go to stdout; diagnostics go to stderr.  Exit status
is 0 when every computed route agrees, 1 on any inter-method
disagreement, 2 on usage errors.  The environment variable
MAXGROWTH_NODE_BUDGET overrides the node budget of the enumeration
oracle; a cell whose search exceeds the budget is skipped rather than
failing the run: ``verify`` reports it as SKIPPED, and ``table`` leaves
out its oracle row and names the skipped n on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass

from .core import GroupPresentation, GroupSpec, hk_action_matrices, make_gk, make_hk
from .formulas import max_count_gk, max_count_hk, mdeg, noniso_certificate
from .lowindex import DEFAULT_INDEX_BOUND, SearchBudgetExceeded, oracle_max_count
from .recursion import recursive_gk, recursive_hk

METHODS = ("formula", "recursion", "oracle")
USAGE_ERROR = 2


@dataclass(frozen=True)
class TableRow:
    """One emitted table entry; rows for the same n must agree on count
    across every method that ran."""

    n: int
    count: int
    case: str
    method: str


def _presentation(family: str, k: int) -> GroupPresentation:
    if family == "gk":
        return make_gk(k)
    return make_hk(k)[0]


def _formula(family: str, k: int, n: int):
    return max_count_gk(k, n) if family == "gk" else max_count_hk(k, n)


def _recursion(family: str, k: int, n: int) -> int:
    return recursive_gk(k, n) if family == "gk" else recursive_hk(k, n)


def _node_budget() -> int | None:
    raw = os.environ.get("MAXGROWTH_NODE_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MAXGROWTH_NODE_BUDGET must be an integer, got {raw!r}")


def _check_k(family: str, k: int) -> None:
    GroupSpec(family, k)  # raises ValueError on a bad combination


def _parse_k_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
    else:
        lo = hi = int(text)  # a bare integer is the one-element range
    if lo > hi:
        raise ValueError(f"empty k range {text!r}")
    return lo, hi


def _emit_rows(rows, fmt: str, out) -> None:
    if fmt == "csv":
        print("n,count,case,method", file=out)
        for row in rows:
            print(f"{row.n},{row.count},{row.case},{row.method}", file=out)
    else:
        for row in rows:
            print(json.dumps(asdict(row)), file=out)


def cmd_table(args, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    _check_k(args.family, args.k)
    if args.nmax < 2:
        raise ValueError(f"--nmax must be >= 2, got {args.nmax}")
    methods = []
    for name in args.methods.split(","):
        name = name.strip()
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {','.join(METHODS)}")
        if name not in methods:
            methods.append(name)
    budget = _node_budget()
    pres = _presentation(args.family, args.k) if "oracle" in methods else None
    index_bound = max(DEFAULT_INDEX_BOUND, args.nmax)
    rows = []
    disagree = False
    for n in range(2, args.nmax + 1):
        growth = _formula(args.family, args.k, n)
        counts = {}
        for method in methods:
            if method == "formula":
                counts[method] = growth.count
            elif method == "recursion":
                counts[method] = _recursion(args.family, args.k, n)
            else:
                try:
                    counts[method] = oracle_max_count(
                        pres, n, node_budget=budget, index_bound=index_bound
                    )
                except SearchBudgetExceeded as exc:
                    print(f"n={n} oracle=SKIPPED: {exc}", file=err)
        if len(set(counts.values())) > 1:
            disagree = True
        for method, count in counts.items():
            rows.append(TableRow(n=n, count=count, case=growth.case_tag, method=method))
    _emit_rows(rows, args.format, out)
    if disagree:
        print("inter-method disagreement detected", file=err)
        return 1
    return 0


def cmd_verify(args, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    k_lo, k_hi = _parse_k_range(args.k)
    # the valid k of each family form an interval, so the ends decide the range
    for k in (k_lo, k_hi):
        _check_k(args.family, k)
        if args.family == "hk":
            hk_action_matrices(k)  # rejects |k| >= 2^63 before the first line
    if args.nmax < 2:
        raise ValueError(f"--nmax must be >= 2, got {args.nmax}")
    budget = _node_budget()
    index_bound = max(DEFAULT_INDEX_BOUND, args.oracle_nmax)
    cells = passes = fails = skips = 0
    for k in range(k_lo, k_hi + 1):
        pres = _presentation(args.family, k) if args.oracle_nmax >= 2 else None
        for n in range(2, args.nmax + 1):
            cells += 1
            formula_count = _formula(args.family, k, n).count
            recursion_count = _recursion(args.family, k, n)
            values = {formula_count, recursion_count}
            oracle_text = ""
            if 2 <= n <= args.oracle_nmax:
                try:
                    oracle_count = oracle_max_count(
                        pres, n, node_budget=budget, index_bound=index_bound
                    )
                    values.add(oracle_count)
                    oracle_text = f" oracle={oracle_count}"
                except SearchBudgetExceeded:
                    skips += 1
                    oracle_text = " oracle=SKIPPED"
            verdict = "PASS" if len(values) == 1 else "FAIL"
            if verdict == "PASS":
                passes += 1
            else:
                fails += 1
            print(
                f"k={k} n={n} formula={formula_count} "
                f"recursion={recursion_count}{oracle_text} {verdict}",
                file=out,
            )
    print(
        f"summary: cells={cells} pass={passes} fail={fails} oracle_skipped={skips}",
        file=out,
    )
    return 0 if fails == 0 else 1


def cmd_noniso(args, out=None, err=None) -> int:
    out = out or sys.stdout
    cert = noniso_certificate(args.i, args.j)
    if args.format == "json":
        if cert is None:
            print(json.dumps({"certificate": None}), file=out)
        else:
            print(
                json.dumps(
                    {
                        "certificate": {
                            "i": cert.i,
                            "j": cert.j,
                            "p": cert.p,
                            "side": cert.side,
                            "count_i": cert.count_i,
                            "count_j": cert.count_j,
                        }
                    }
                ),
                file=out,
            )
    else:
        if cert is None:
            print("no certificate from this criterion", file=out)
        else:
            print(
                f"certificate: p={cert.p} side={cert.side} "
                f"m_p(H_{cert.i})={cert.count_i} m_p(H_{cert.j})={cert.count_j}",
                file=out,
            )
    return 0


def cmd_mdeg(args, out=None, err=None) -> int:
    out = out or sys.stdout
    _check_k(args.family, args.k)
    value = mdeg(GroupSpec(args.family, args.k), args.limit)
    print(
        f"family={args.family} k={args.k} exact={value.exact} "
        f"empirical_slope={value.empirical_slope:.6f}",
        file=out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxgrowth",
        description="Exact maximal subgroup growth of the polycyclic families G_k and H_k.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print m_n for 2 <= n <= nmax")
    table.add_argument("--family", choices=("gk", "hk"), required=True)
    table.add_argument("--k", type=int, required=True)
    table.add_argument("--nmax", type=int, required=True)
    table.add_argument("--methods", default="formula,recursion")
    table.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    table.set_defaults(run=cmd_table)

    verify = sub.add_parser("verify", help="cross-check the computation routes")
    verify.add_argument("--family", choices=("gk", "hk"), required=True)
    verify.add_argument("--k", required=True, help="inclusive range a..b (or a single k)")
    verify.add_argument("--nmax", type=int, required=True)
    verify.add_argument("--oracle-nmax", type=int, default=0, dest="oracle_nmax")
    verify.set_defaults(run=cmd_verify)

    noniso = sub.add_parser("noniso", help="non-isomorphism certificate for (H_i, H_j)")
    noniso.add_argument("--i", type=int, required=True)
    noniso.add_argument("--j", type=int, required=True)
    noniso.add_argument("--format", choices=("text", "json"), default="text")
    noniso.set_defaults(run=cmd_noniso)

    deg = sub.add_parser("mdeg", help="exact and empirical growth degree")
    deg.add_argument("--family", choices=("gk", "hk"), required=True)
    deg.add_argument("--k", type=int, required=True)
    deg.add_argument("--limit", type=int, default=10_000)
    deg.set_defaults(run=cmd_mdeg)

    return parser


def _glue_negative_k(argv: list[str]) -> list[str]:
    # argparse lexes "-4..6" as an option; rejoin "--k -4..6" as "--k=-4..6"
    out = []
    i = 0
    while i < len(argv):
        if (
            argv[i] == "--k"
            and i + 1 < len(argv)
            and re.fullmatch(r"-\d+(\.\.-?\d+)?", argv[i + 1])
        ):
            out.append(f"--k={argv[i + 1]}")
            i += 2
            continue
        out.append(argv[i])
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_negative_k(list(argv)))
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
