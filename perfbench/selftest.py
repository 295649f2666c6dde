"""Self-test of the benchmark harness on small grids.

Run from the repository root (it is not collected by the repository's own
test suite, whose file pattern it does not match):

    python3 -m pytest -q perfbench/selftest.py

It checks that every metric named in BENCHMARK.json prints with its unit,
that counts repeat exactly across two traced runs with the same seed, that
span self times add up to the traced op time, and that the benchmark
refuses to run without the engine's sources.  Ops on these grids may miss
the full-size acceptance tolerances; only the harness is under test here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL_N = 65
SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".products", ".nodes", ".bytes", ".evals")

_runs = {}


def bench(workload, trace, tag=0):
    """(stdout lines, summary, trace document) of one small-grid run, cached."""
    key = (workload, trace, tag)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
             "--grid-n", str(SMALL_N)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        lines = done.stdout.strip().splitlines()
        doc = None
        if trace:
            doc = json.loads((HERE / "out" / f"trace-{workload}-seed{SEED}.json").read_text())
        _runs[key] = (lines, json.loads(lines[-1]), doc)
    return _runs[key]


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    lines, summary, _ = bench(workload, trace)
    expected = declared(section)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["error_rate"] == "ratio" and printed["ops"] == "count"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_with_the_same_seed(workload):
    first = bench(workload, 1)[1]["metrics"]
    second = bench(workload, 1, tag=1)[1]["metrics"]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_add_up_to_the_op_time(workload):
    trace = bench(workload, 1)[2]
    for op in trace["ops"]:
        root = next(s for s in trace["spans"] if s["id"] == op["span"])
        total = sum(s["self_s"] for s in trace["spans"] if s["op"] == op["op"])
        total += sum(k["self_s"] for k in trace["kernels"] if k["op"] == op["op"])
        assert len(trace["spans"]) > 1
        assert total == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-9)


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "permutability",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
