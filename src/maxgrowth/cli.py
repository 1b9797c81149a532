"""Command-line front door: growth tables, verification campaigns,
non-isomorphism certificates and growth degrees.

Tables and verdicts go to stdout; diagnostics go to stderr.  Exit status
is 0 when every computed route agrees, 1 on any inter-method
disagreement, and 2 on usage errors, also from ``noniso`` when some k -+ 2
has a prime factor of at least MR_BOUND ~ 3.3 * 10^24 (Miller-Rabin is
proven only below it).  The recursion takes any prime.  The environment
variable MAXGROWTH_NODE_BUDGET overrides the node budget of the
enumeration oracle; a value that is not an integer of at least 1 is a
usage error.  A cell whose oracle search exceeds the budget is skipped
rather than failing the run: ``verify`` reports it as SKIPPED, and
``table`` leaves out its oracle row and names the skipped n on stderr.
A cell is skipped exactly when a search for its index alone would exceed
the budget.  With the oracle on, a k whose presentation has more
generators or a longer relator than the oracle takes (G_k with k > 6,
H_k with |k| > 996) is a usage error, raised before the first line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass

from .core import GroupPresentation, GroupSpec, MAX_RELATOR_LENGTH, make_gk, make_hk
from .formulas import max_count_gk, max_count_hk, mdeg, noniso_certificate
from .lowindex import DEFAULT_NODE_BUDGET, MAX_GENERATORS, oracle_max_counts
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


def _node_budget() -> int:
    raw = os.environ.get("MAXGROWTH_NODE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"MAXGROWTH_NODE_BUDGET must be an integer, got {raw!r}")
    if budget < 1:
        raise ValueError(f"MAXGROWTH_NODE_BUDGET must be at least 1, got {raw!r}")
    return budget


def _check_oracle_k(family: str, k: int) -> None:
    # G_k has k generators, H_k four
    if family == "gk" and k > MAX_GENERATORS:
        raise ValueError(f"the oracle takes at most {MAX_GENERATORS} generators; G_{k} has {k}")
    # H_k spells out t2^k in a relator of |k| + 4 letters; G_k's have 4
    if family == "hk" and abs(k) + 4 > MAX_RELATOR_LENGTH:
        raise ValueError(
            f"the oracle takes relators of at most {MAX_RELATOR_LENGTH} letters; "
            f"H_{k} has one of {abs(k) + 4}"
        )


def _parse_k_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
    else:
        lo = hi = int(text)  # a bare integer is the one-element range
    if lo > hi:
        raise ValueError(f"empty k range {text!r}")
    return lo, hi


def _cross_check(family: str, k: int, nmax: int, recursion: bool, oracle_nmax: int, budget: int):
    """Yield, for each n = 2..nmax of (family, k): n, the formula's
    GrowthValue, the recursion's count (None unless ``recursion``), the
    oracle's count (None past ``oracle_nmax`` or past the budget), and
    whether the oracle ran out of budget at n.  The oracle runs one pass,
    to ``oracle_nmax``."""
    oracle = {}
    if oracle_nmax >= 2:
        oracle = oracle_max_counts(_presentation(family, k), oracle_nmax, node_budget=budget)
    for n in range(2, nmax + 1):
        found = oracle.get(n)
        yield (
            n,
            _formula(family, k, n),
            _recursion(family, k, n) if recursion else None,
            found,
            found is None and n in oracle,
        )


def cmd_table(args) -> int:
    GroupSpec(args.family, args.k)  # raises ValueError on a bad combination
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
    oracle_nmax = 0
    if "oracle" in methods:
        _check_oracle_k(args.family, args.k)
        oracle_nmax = args.nmax
    rows = []
    disagree = False
    for n, growth, recursion, oracle, skipped in _cross_check(
        args.family, args.k, args.nmax, "recursion" in methods, oracle_nmax, budget
    ):
        if skipped:
            print(
                f"n={n} oracle=SKIPPED: node budget {budget} exceeded at index {n}",
                file=sys.stderr,
            )
        ran = {"formula": growth.count, "recursion": recursion, "oracle": oracle}
        counts = {method: ran[method] for method in methods if ran[method] is not None}
        if len(set(counts.values())) > 1:
            disagree = True
        for method, count in counts.items():
            rows.append(TableRow(n=n, count=count, case=growth.case_tag, method=method))
    if args.format == "csv":
        print("n,count,case,method")
        for row in rows:
            print(f"{row.n},{row.count},{row.case},{row.method}")
    else:
        for row in rows:
            print(json.dumps(asdict(row)))
    if disagree:
        print("inter-method disagreement detected", file=sys.stderr)
    return 1 if disagree else 0


def cmd_verify(args) -> int:
    k_lo, k_hi = _parse_k_range(args.k)
    # the valid k of each family form an interval, so the ends decide the range
    for k in (k_lo, k_hi):
        GroupSpec(args.family, k)
    if args.nmax < 2:
        raise ValueError(f"--nmax must be >= 2, got {args.nmax}")
    oracle_nmax = min(args.nmax, args.oracle_nmax)
    if oracle_nmax >= 2:
        for k in (k_lo, k_hi):
            _check_oracle_k(args.family, k)
    budget = _node_budget()
    cells = fails = skips = 0
    for k in range(k_lo, k_hi + 1):
        for n, growth, recursion, oracle, skipped in _cross_check(
            args.family, k, args.nmax, True, oracle_nmax, budget
        ):
            cells += 1
            values = {growth.count, recursion}
            oracle_text = ""
            if skipped:
                skips += 1
                oracle_text = " oracle=SKIPPED"
            elif oracle is not None:
                values.add(oracle)
                oracle_text = f" oracle={oracle}"
            verdict = "PASS"
            if len(values) > 1:
                verdict = "FAIL"
                fails += 1
            print(
                f"k={k} n={n} formula={growth.count} "
                f"recursion={recursion}{oracle_text} {verdict}"
            )
    print(f"summary: cells={cells} pass={cells - fails} fail={fails} oracle_skipped={skips}")
    return 0 if fails == 0 else 1


def cmd_noniso(args) -> int:
    cert = noniso_certificate(args.i, args.j)
    if args.format == "json":
        print(json.dumps({"certificate": None if cert is None else asdict(cert)}))
    elif cert is None:
        print("no certificate from this criterion")
    else:
        print(
            f"certificate: p={cert.p} side={cert.side} "
            f"m_p(H_{cert.i})={cert.count_i} m_p(H_{cert.j})={cert.count_j}"
        )
    return 0


def cmd_mdeg(args) -> int:
    value = mdeg(GroupSpec(args.family, args.k), args.limit)
    print(
        f"family={args.family} k={args.k} exact={value.exact} "
        f"empirical_slope={value.empirical_slope:.6f}"
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


_PARSER = build_parser()  # parse_args starts every call from a fresh namespace


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
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_glue_negative_k(list(argv)))
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
