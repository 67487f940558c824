"""Smoke tests of the benchmark: every workload at its tiny ``--smoke`` size.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

The checks of a workload need its full size to hold (the tiny runs hold too
few trials), so these tests check the output's shape, not ``correct``.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    assert {(name, unit) for name, unit in declared.items()} <= printed


def test_same_seed_gives_same_trials():
    digests = []
    for _ in range(2):
        done = run(ROOT, "--workload", "constrained", "--seed", "9", "--seconds", "1",
                   "--trace", "0", "--smoke")
        assert done.returncode == 0, done.stderr
        line = next(l for l in done.stdout.splitlines() if l.startswith("fingerprint:"))
        digests.append(json.loads(line.split(":", 1)[1])["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_package_source():
    (ROOT / ".bench_results").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_results"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
