"""Layered benchmark of the cuckoo package.

Run from the repository root:

    python3 bench/run.py --workload multimodal --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``multimodal``, ``constrained`` and ``grid`` (see
``workloads.py`` for what each runs and why).  The workload's trials derive
from ``--seed``.  Trials run back to back for ``--seconds`` seconds with no
tracing; their outputs are checked.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
  including ``setup_s``: the median, over several fresh interpreters, of the
  time to import the package and build the workload's problems and spec.
  Every time is scaled by the host's speed around it, as a fixed reference
  measures it (see ``workloads.py`` and :func:`measure_setup`).
* ``--trace 1`` then reruns part of the timed trials at the same seeds with
  every layer boundary traced (``tracer.py``), checks that each traced
  trial's layer self times add up to the wall time the harness recorded for
  it, times the layer functions in isolation (``micro.py``) and reports the
  per-layer metrics.
* ``--smoke`` shrinks every workload to a few small trials, for the
  benchmark's own tests.

Every metric is printed by name with its unit, followed by the environment
stamp and the quality fingerprint.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
same result is stored under ``.bench_results/`` with the stamp and the
fingerprint, as are the spans of a traced run.  The program is imported from
``src/`` of the checkout this file sits in; without it the run fails before
printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5
# A trial's root span also covers the call into ``_execute_trial`` and the
# tracer's own bookkeeping around it, outside the trial's own clock.
SELF_TIME_TOLERANCE_S = 1e-3
SETUP_CHILD = """\
import sys, time
started = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
workloads.build({workload!r}, {seed!r}, {smoke!r})
print(time.perf_counter() - started)
"""
IMPORT_REFERENCE_CHILD = """\
import time
started = time.perf_counter()
import argparse, asyncio, csv, email.mime.multipart, http.server, json, sqlite3, tarfile, unittest
import xml.dom.minidom
print(time.perf_counter() - started)
"""
IMPORT_REFERENCE_S = 0.085


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("multimodal", "constrained", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _child_seconds(code: str) -> float:
    """The time a fresh interpreter running ``code`` prints last."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Median host-speed-scaled set-up time over fresh interpreters.

    Importing is mostly file and page work, which the host's slow phases
    (see ``workloads.py``) slow less than they slow the reference loop used
    there.  So each set-up runs between two fresh interpreters on the same
    core that import a fixed set of standard-library modules, and is scaled
    by IMPORT_REFERENCE_S (those imports' time on the undisturbed host) over
    their mean time.  One untimed run of each warms the file cache.
    """
    code = SETUP_CHILD.format(bench=str(BENCH), src=str(SRC), workload=workload, seed=seed, smoke=smoke)
    _child_seconds(code)
    _child_seconds(IMPORT_REFERENCE_CHILD)
    cores = os.sched_getaffinity(0)
    samples = []
    try:
        for i in range(2 if smoke else SETUP_REPEATS):
            os.sched_setaffinity(0, {sorted(cores)[i % len(cores)]})
            before = _child_seconds(IMPORT_REFERENCE_CHILD)
            elapsed = _child_seconds(code)
            after = _child_seconds(IMPORT_REFERENCE_CHILD)
            samples.append(elapsed * IMPORT_REFERENCE_S / ((before + after) / 2))
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(load: tuple) -> dict:
    import numpy
    import workloads

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": workloads.nproc(),
        "loadavg_at_start": list(load),
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    load = os.getloadavg()
    if not (SRC / "cuckoo" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cuckoo
    import workloads

    if Path(cuckoo.__file__).resolve().parent != SRC / "cuckoo":
        print(f"error: imported cuckoo from {cuckoo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        wl = workloads.build(args.workload, args.seed, args.smoke)
        run = workloads.timed(wl, args.seconds, scratch)
        # before any set-up interpreter runs, so that only the workload's own
        # processes count
        peak_mb = peak_rss_mb()
        trials = run["trials"]
        attempted = sum(rep["size"] for rep in run["reps"]) if "reps" in run else len(trials)
        ok = sum(t["ok"] for t in trials)
        failures = list(run["failures"]) + workloads.workload_checks(wl, trials)
        notes = {}
        if args.trace:
            from micro import measure
            from tracer import Tracer

            tracer = Tracer()
            passes = workloads.traced(wl, run, tracer, scratch)
            workers = wl.grid["workers"] if wl.grid else 1
            traced_runs = passes["calls"] + (passes["serial"] if wl.grid else [])
            attempted += sum(call["size"] for call in traced_runs)
            ok += sum(t["ok"] for call in traced_runs for t in call["trials"])
            failures += [f for call in traced_runs for f in call["failures"]]
            walls = [wall for call in passes["calls"] for wall in call.get("walls_in_order", [])]
            failures += tracer.check_trials("harness.trial", walls, SELF_TIME_TOLERANCE_S)
            notes.update(traced_trials=len(tracer.trials))
            values = workloads.per_layer(tracer, passes, workers)
            values.update(measure(args.seed))
            tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            values, notes = workloads.end_to_end(run)
            values["setup_s"] = measure_setup(args.workload, args.seed, args.smoke)
            values["peak_rss_mb"] = peak_mb
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise SystemExit(f"non-finite metrics: {bad}")
    failed = attempted - ok
    for t in trials:
        if not t["ok"]:
            failures.append(f"{t['cell']} seed {t['seed']}: {'; '.join(t['faults'])}")
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = environment(load)
    quality = workloads.fingerprint(wl, trials)
    for name in units:
        print(f"{name:44s} {values[name]:.6g} {units[name]}")
    for key, value in notes.items():
        print(f"note {key}: {value}")
    print("environment:", json.dumps(env))
    print("fingerprint:", json.dumps(quality))
    for failure in failures:
        print("check failed:", failure)
    stored = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "fingerprint": quality, "notes": notes, "check_failures": failures, "result": result,
              "trials": [[t["cell"], t["seed"], t["evaluations"], repr(t["best"]), t["wall"], t["scale"]]
                         for t in trials]}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(stored, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
