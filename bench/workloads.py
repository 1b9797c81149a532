"""Seeded inputs and output checks for the benchmark workloads.

A workload is a list of calls into ``maxgrowth.cli.main``.  Every call
lists the ops it must report, in order: one ``verify`` cell ``(k, n,
oracle_ran)`` per stdout line, or one ``noniso`` certificate ``(i, j)``.
The inputs depend only on the seed, so a run is replayed by rerunning the
seed or by passing a recorded argv to ``python -m maxgrowth``.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from dataclasses import dataclass

# The odd primes 3..13.  Every certify input i has i + 2 divisible by it, so
# factoring i + 2 by trial division is cheap and the cost of an op is set by
# the smaller factor of the semiprime i - 2.  Those factors are spread evenly
# over [low, 1.5 low), one per stratum, so every seed gets the same spread of
# op costs, and the median op does not jump with the speed of the machine.
SMOOTH_PART = 3 * 5 * 7 * 11 * 13

# One oracle k from each cost tier.  Oracle cost grows with |k| (a relator
# has |k| letters) and is nearly symmetric in the sign, so every seed gives
# about the same work while still covering k = 0, the special k = +-2 and
# both signs.
ORACLE_HK_TIERS = ((-1, 0, 1), (-2, 2), (-3, 3))

VERIFY_LINE = re.compile(
    r"k=(-?\d+) n=(\d+) formula=(\d+) recursion=(\d+)(?: oracle=(\d+|SKIPPED))? (PASS|FAIL)"
)
SUMMARY_LINE = re.compile(r"summary: cells=(\d+) pass=(\d+) fail=(\d+) oracle_skipped=(\d+)")


@dataclass(frozen=True)
class Call:
    """One ``maxgrowth.cli.main`` invocation and the ops it must report."""

    argv: tuple[str, ...]
    ops: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]

    @property
    def ops_per_pass(self) -> int:
        return sum(len(call.ops) for call in self.calls)


def verify_call(family: str, k_lo: int, k_hi: int, nmax: int, oracle_nmax: int = 0) -> Call:
    k_arg = str(k_lo) if k_lo == k_hi else f"{k_lo}..{k_hi}"
    argv = ("verify", "--family", family, f"--k={k_arg}", "--nmax", str(nmax))
    if oracle_nmax:
        argv += ("--oracle-nmax", str(oracle_nmax))
    ops = tuple(
        (k, n, int(n <= oracle_nmax)) for k in range(k_lo, k_hi + 1) for n in range(2, nmax + 1)
    )
    return Call(argv, ops)


def noniso_call(i: int, j: int) -> Call:
    return Call(("noniso", f"--i={i}", f"--j={j}", "--format", "json"), ((i, j),))


def sweep(seed: int, *, nmax: int = 1000, drawn: int = 19, gk_max: int = 6) -> Workload:
    """Formula and recursion routes, no oracle: H_k at k = +-2 plus
    ``drawn`` seeded k in [-1000, 1000], and G_1..G_gk_max, all at
    n = 2..nmax.  The median cell is a composite n, the tail a prime n."""
    rng = random.Random(seed)
    ks = [2, -2] + rng.sample([k for k in range(-1000, 1001) if abs(k) != 2], drawn)
    calls = [verify_call("hk", k, k, nmax) for k in ks]
    calls.append(verify_call("gk", 1, gk_max, nmax))
    return Workload("sweep", tuple(calls))


def oracle(
    seed: int, *, hk_nmax: int = 14, gk_lo: int = 3, gk_hi: int = 4, gk_nmax: int = 14
) -> Workload:
    """All three routes with the oracle on every cell: one seeded H_k per
    tier of ``ORACLE_HK_TIERS`` and G_gk_lo..G_gk_hi."""
    rng = random.Random(seed)
    ks = [rng.choice(tier) for tier in ORACLE_HK_TIERS]
    calls = [verify_call("hk", k, k, hk_nmax, hk_nmax) for k in ks]
    calls.append(verify_call("gk", gk_lo, gk_hi, gk_nmax, gk_nmax))
    return Workload("oracle", tuple(calls))


def certify(seed: int, *, pairs: int = 20, low: int = 10**6) -> Workload:
    """``noniso`` on ``pairs`` seeded pairs whose i - 2 and j - 2 are
    semiprimes with factors in [low, 4 low), plus the every-prime cases
    i = 2 and j = -2, plus i = j, which must give no certificate."""
    rng = random.Random(seed)
    used: set[int] = set()
    count = 2 * pairs + 3
    values = [
        _semiprime_plus_two(rng, low + low * t // (2 * count), 2 * low, used)
        for t in range(count)
    ]
    ij = [(values[2 * t], values[2 * t + 1]) for t in range(pairs)]
    ij += [(2, values[-3]), (values[-2], -2), (values[-1], values[-1])]
    return Workload("certify", tuple(noniso_call(i, j) for i, j in ij))


WORKLOADS = {"sweep": sweep, "oracle": oracle, "certify": certify}


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's own check, independent of maxgrowth."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, math.isqrt(n) + 1, 2))


def _semiprime_plus_two(rng: random.Random, q_from: int, r_from: int, used: set[int]) -> int:
    """i = q * r + 2 with primes q_from <= q (the first prime after a random
    start in the next 1% of q_from) < r_from <= r (the first suitable prime
    after a random start below 2 r_from), and SMOOTH_PART | i + 2; q and r
    are new to ``used``."""
    q = rng.randrange(q_from, q_from + q_from // 100) | 1
    while not is_prime(q) or q in used:
        q += 2
    # q * r + 4 = 0 (mod SMOOTH_PART); r odd, so step over both residues
    residue = -4 * pow(q, -1, SMOOTH_PART) % SMOOTH_PART
    r = rng.randrange(r_from, 2 * r_from)
    r += (residue - r) % SMOOTH_PART
    if r % 2 == 0:
        r += SMOOTH_PART
    while not is_prime(r) or r in used:
        r += 2 * SMOOTH_PART
    used.update((q, r))
    return q * r + 2


def check_call(call: Call, lines: list[str], status) -> int:
    """Number of the call's ops whose output is missing or wrong.

    ``status`` is the return value of ``main``, or the exception it raised.
    """
    if call.argv[0] == "verify":
        return _check_verify(call, lines, status)
    return _check_noniso(call, lines, status)


def _check_verify(call: Call, lines: list[str], status) -> int:
    cells = len(call.ops)
    summary = SUMMARY_LINE.fullmatch(lines[-1]) if lines else None
    if (
        status != 0
        or summary is None
        or len(lines) != cells + 1
        or summary.groups() != (str(cells), str(cells), "0", "0")
    ):
        return cells
    return sum(not _verify_line_ok(line, op) for line, op in zip(lines, call.ops))


def _verify_line_ok(line: str, op: tuple[int, ...]) -> bool:
    match = VERIFY_LINE.fullmatch(line)
    if match is None:
        return False
    k, n, formula, recursion, oracle_count, verdict = match.groups()
    counts = {formula, recursion} if oracle_count is None else {formula, recursion, oracle_count}
    return (
        (int(k), int(n), int(oracle_count is not None)) == op
        and len(counts) == 1
        and verdict == "PASS"
    )


def _check_noniso(call: Call, lines: list[str], status) -> int:
    ((i, j),) = call.ops
    if status != 0 or len(lines) != 1:
        return 1
    return int(not _noniso_line_ok(i, j, lines[0]))


@functools.cache  # every pass prints the same line; check it once
def _noniso_line_ok(i: int, j: int, line: str) -> bool:
    try:
        cert = json.loads(line)["certificate"]
    except (ValueError, KeyError, TypeError):
        return False
    if i == j:
        return cert is None
    return certificate_ok(i, j, cert)


def _separates(q: int, a: int, b: int) -> bool:
    return (a % q == 0) != (b % q == 0)


def _without_common_primes(a: int, b: int) -> int:
    """|a| with every prime factor it shares with b divided out (a, b != 0)."""
    g = math.gcd(a, b)
    while g > 1:
        a //= g
        g = math.gcd(a, g)
    return abs(a)


def _has_prime_factor_below(n: int, p: int) -> bool:
    """Whether n >= 1 has a prime factor smaller than p, by trial division
    up to min(p, sqrt(n)): a divisor found there has a prime factor below
    p; if none is found below sqrt(n), n is 1 or prime."""
    for d in range(2, min(p, math.isqrt(n) + 1)):
        if n % d == 0:
            return True
    return 1 < n < p


def _smaller_prime_separates(p: int, a: int, b: int) -> bool:
    """Whether some prime q < p divides exactly one of a and b."""
    if a == 0 and b == 0:
        return False
    if a == 0 or b == 0:
        # the separating primes are those not dividing the nonzero one
        other = abs(a or b)
        return any(other % q for q in range(2, p) if is_prime(q))
    return _has_prime_factor_below(_without_common_primes(a, b), p) or _has_prime_factor_below(
        _without_common_primes(b, a), p
    )


def certificate_ok(i: int, j: int, cert) -> bool:
    """Whether ``cert`` is a valid witness that H_i and H_j differ: p is
    prime, divides exactly one number on the stated side, no smaller prime
    separates either side, the minus side wins ties, and the counts differ."""
    if not isinstance(cert, dict):
        return False
    try:
        p, side, count_i, count_j = cert["p"], cert["side"], cert["count_i"], cert["count_j"]
        echoed = (cert["i"], cert["j"])
    except KeyError:
        return False
    sides = {"minus": (i - 2, j - 2), "plus": (i + 2, j + 2)}
    if echoed != (i, j) or side not in sides or not isinstance(p, int) or not is_prime(p):
        return False
    if not _separates(p, *sides[side]):
        return False
    if side == "plus" and _separates(p, *sides["minus"]):
        return False
    if any(_smaller_prime_separates(p, *pair) for pair in sides.values()):
        return False
    return count_i != count_j
