"""The benchmark's hooks into the program, checked without running the benchmark.

A traced benchmark run wraps program functions by module and name (see
``bench/workloads.py``); a refactor that renames or removes one fails
here, not only in a ``--trace 1`` run.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_every_traced_function_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    targets = workloads._span_targets()
    assert targets
    missing = [f"{module.__name__}.{attribute}" for module, attribute, _ in targets
               if not callable(getattr(module, attribute, None))]
    assert not missing, f"the traced benchmark wraps functions that do not exist: {', '.join(missing)}"
