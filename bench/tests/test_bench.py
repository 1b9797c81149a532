"""Tiny-size smoke test of the benchmark harness.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sweep": lambda seed: workloads.sweep(seed, nmax=12, drawn=2, gk_max=3),
    "oracle": lambda seed: workloads.oracle(seed, hk_nmax=5, gk_lo=2, gk_hi=2, gk_nmax=6),
    "certify": lambda seed: workloads.certify(seed, pairs=2, low=10**4),
}


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def test_inputs_depend_only_on_the_seed():
    for name, build in workloads.WORKLOADS.items():
        assert build(7) == build(7), name
        assert build(7) != build(8) or name == "oracle", name


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_checks_every_op(cli, name):
    workload = TINY[name](3)
    result = run.timed_run(cli, workload, seconds=0, setup_probe=lambda: 0.5)
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES * workload.ops_per_pass
    assert result["setup_s_samples"] == [0.5] * (run.MIN_PASSES + 1)
    assert set(result["values"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in result["values"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(cli, name, tmp_path):
    result = run.traced_run(cli, TINY[name](3), tmp_path)
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert result["failed"] == 0
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert (tmp_path / result["spans_file"]).stat().st_size > 0
    assert metrics["cli.self_s"] > 0
    if name == "oracle":
        assert metrics["lowindex.low_index_subgroups.calls"] > 0
        assert metrics["lowindex.tables"] >= metrics["lowindex.is_primitive.calls"] > 0
    else:
        assert metrics["lowindex.low_index_subgroups.calls"] == 0
    if name == "certify":
        assert metrics["core.primes_dividing.calls"] == 4 * len(TINY[name](3).calls)
    else:
        assert metrics["core.primes_dividing.calls"] == 0
    # the tracer restores every rebound name on exit
    from maxgrowth import core, formulas

    assert formulas.classify_index is core.classify_index
    assert not hasattr(core.classify_index, "__wrapped__")


def test_failed_ops_are_counted(cli):
    bad = workloads.Call(("verify", "--family", "hk", "--k=3", "--nmax", "5"), ((3, 2, 0),))
    assert workloads.check_call(bad, ["k=3 n=2 formula=3 recursion=3 PASS"], 0) == 1
    good = workloads.verify_call("hk", 3, 3, 3)
    lines = ["k=3 n=2 formula=3 recursion=3 PASS", "k=3 n=3 formula=4 recursion=4 PASS"]
    summary = "summary: cells=2 pass=2 fail=0 oracle_skipped=0"
    assert workloads.check_call(good, lines + [summary], 0) == 0
    assert workloads.check_call(good, lines + [summary], 1) == 2
    assert workloads.check_call(good, [lines[0], lines[0], summary], 0) == 1


def test_certificate_check_rejects_wrong_witnesses(cli):
    from maxgrowth.formulas import noniso_certificate

    i, j = 7, 15  # i - 2 = 5, j - 2 = 13, i + 2 = 9, j + 2 = 17: p = 3 on the plus side
    cert = asdict(noniso_certificate(i, j))
    assert workloads.certificate_ok(i, j, cert)
    changes = ({"p": 5}, {"p": 9}, {"p": 17}, {"side": "minus"}, {"count_j": cert["count_i"]}, {"j": 16})
    for change in changes:
        assert not workloads.certificate_ok(i, j, {**cert, **change}), change


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_latency([float(x) for x in range(100)]) == (90.0, 89.0)
    assert run.tail_latency([float(x) for x in range(20_000)]) == (99.0, 19_799.0)
    assert run.tail_latency([1.0, 2.0, 3.0])[0] == 50.0


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
