"""Benchmark of the maxgrowth command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

It imports ``maxgrowth`` from ``src/`` of the checkout it sits in and calls
``maxgrowth.cli.main`` in this process, one call after another, with the
argv lists of the chosen workload (see ``workloads.py``).  An op is one
``verify`` cell or one ``noniso`` certificate; its latency runs from the
previous stdout line of the same call (or the start of the call) to the
line that reports it.  Every output is checked.

With ``--trace 0`` it repeats the workload's op list until ``--seconds``
have passed (at least ``MIN_PASSES`` times) and reports the end-to-end
metrics.  Set-up time is measured by starting this script with
``--setup-only`` before each pass and after the last.  With ``--trace 1``
it runs the list once untraced and once traced and reports the per-layer
metrics of ``tracing.py``.  The last stdout line is one JSON object; the full
record, with machine facts and the generated inputs, goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Workload, check_call

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3
# The tail is the highest of these with at least ten samples beyond it.
# p99.9 is left out: on a shared virtual machine it is set by pauses of the
# host, not by the program.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class LineClock:
    """Stand-in for stdout that keeps every line with the time it ended."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps = array("d")
        self._partial: list[str] = []

    def write(self, text: str) -> int:
        if "\n" not in text:  # print() writes the text and its newline apart
            self._partial.append(text)
            return len(text)
        now = perf_counter()
        *complete, rest = text.split("\n")
        for piece in complete:
            self._partial.append(piece)
            self.lines.append("".join(self._partial))
            self.stamps.append(now)
            self._partial = []
        if rest:
            self._partial.append(rest)
        return len(text)

    def flush(self) -> None:
        pass


def load_cli():
    """``maxgrowth.cli`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from maxgrowth import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import maxgrowth from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: maxgrowth was imported from {cli.__file__}, not {src}")
    return cli


def run_pass(cli, workload: Workload, clock: LineClock) -> tuple[float, array, int]:
    """Run the op list once; return wall seconds, op latencies and failed ops."""
    records = []
    begin = perf_counter()
    for call in workload.calls:
        first = len(clock.lines)
        start = perf_counter()
        try:
            with redirect_stdout(clock):
                status = cli.main(list(call.argv))
        except (Exception, SystemExit) as exc:  # a failed op, not a failed benchmark
            traceback.print_exc()
            status = exc
        records.append((call, first, start, status))
    wall = perf_counter() - begin

    latencies = array("d")
    failed = 0
    ends = [first for _, first, _, _ in records[1:]] + [len(clock.lines)]
    for (call, first, start, status), end in zip(records, ends):
        previous = start
        for stamp in clock.stamps[first : min(end, first + len(call.ops))]:
            latencies.append(stamp - previous)
            previous = stamp
        failed += check_call(call, clock.lines[first:end], status)
    return wall, latencies, failed


def tail_latency(samples) -> tuple[float, float]:
    """(percentile, value): the highest of ``TAIL_PERCENTILES`` that leaves
    at least ten samples above it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= 10), TAIL_PERCENTILES[-1])
    return pct, ordered[max(1, math.ceil(pct / 100 * n)) - 1]


def time_setup(args) -> float:
    """Seconds from starting this script to the moment it could run the
    first op: interpreter start, the maxgrowth import, argument parsing and
    input generation."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-only",
    ]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up run exited with {proc.returncode}")
    return elapsed


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_run(cli, workload: Workload, seconds: int, setup_probe) -> dict:
    """Repeat the op list for ``seconds`` (at least ``MIN_PASSES`` times)
    and compute every end-to-end metric.  ``setup_probe()`` times one
    set-up; it runs before each pass and after the last, so set-up is
    sampled across the whole run."""
    setup = [setup_probe()]
    walls: list[float] = []
    durations: list[float] = []
    latencies = array("d")
    failed = 0
    begin = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - begin + statistics.median(durations) <= seconds:
        started = perf_counter()
        wall, lat, bad = run_pass(cli, workload, LineClock())
        setup.append(setup_probe())
        durations.append(perf_counter() - started)
        walls.append(wall)
        latencies += lat
        failed += bad
    # before the statistics below, whose sorted copies would raise the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.fmean(walls)
    tail_pct, tail = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "ops_per_s": workload.ops_per_pass / wall_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "attempted": workload.ops_per_pass * len(walls),
        "failed": failed,
        "values": values,
        "setup_s_samples": setup,
        "passes_wall_s": walls,
        "tail": {"percentile": tail_pct, "samples": len(latencies)},
    }


def traced_run(cli, workload: Workload, out_dir: Path) -> dict:
    """One untraced pass, then one traced pass whose spans go to ``out_dir``."""
    from tracing import Tracer, isolation_report

    untraced_wall, _, failed = run_pass(cli, workload, LineClock())
    clock = LineClock()
    with Tracer(clock) as tracer:
        traced_wall, _, bad = run_pass(cli, workload, clock)
    cells = sum(len(call.ops) for call in workload.calls if call.argv[0] == "verify")
    metrics = tracer.layer_metrics(cells, traced_wall, untraced_wall)
    spans_path = out_dir / f"{workload.name}.spans.csv.gz"
    tracer.write_spans(spans_path)
    return {
        "attempted": 2 * workload.ops_per_pass,
        "failed": failed + bad,
        "metrics": metrics,
        "passes_wall_s": {"untraced": untraced_wall, "traced": traced_wall},
        "spans_file": spans_path.name,
        "isolation": isolation_report(workload.name, metrics),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only", action="store_true", help="stop after set-up (used to time set-up)"
    )
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy reads these when it is first imported, inside load_cli
    os.environ.update({var: "1" for var in THREAD_VARS})
    cli = load_cli()
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    facts = machine_facts(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    notes = {}
    if args.trace:
        run = traced_run(cli, workload, OUT_DIR)
        metrics = run["metrics"]
    else:
        run = timed_run(cli, workload, args.seconds, lambda: time_setup(args))
        values = run.pop("values")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        notes["op_tail_ms"] = f"(p{run['tail']['percentile']:g} of {run['tail']['samples']} op samples)"
    failed_frac = run["failed"] / run["attempted"]

    print(f"maxgrowth benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']} {notes.get(name, '')}".rstrip())
    print(f"{'failed_frac':40s} {failed_frac:>16.6f} ratio ({run['failed']} of {run['attempted']} ops)")
    for line in run.get("isolation", ()):
        print(line)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "facts": facts,
        "failed_frac": failed_frac,
        **run,
        "metrics": metrics,
        "inputs": [list(call.argv) for call in workload.calls],
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
