"""The benchmark's hooks into the program, checked without running the benchmark.

A traced benchmark run wraps program functions by module and name (see
``bench/workloads.py``), and the micro timings call program functions in
the forms they time (see ``bench/micro.py``); a refactor that renames or
removes one fails here, not only in a benchmark run.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import cuckoo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(monkeypatch, path: Path):
    """Import a benchmark module from its file, running only its top level."""
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    targets = load(monkeypatch, BENCH / "workloads.py")._span_targets()
    assert targets
    missing = [f"{module.__name__}.{attribute}" for module, attribute, _ in targets
               if not callable(getattr(module, attribute, None))]
    assert not missing, f"the traced benchmark wraps functions that do not exist: {', '.join(missing)}"


def test_the_micro_timings_call_what_exists(monkeypatch):
    micro = load(monkeypatch, BENCH / "micro.py")
    imported = [alias.name for node in ast.walk(ast.parse((BENCH / "micro.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "cuckoo" for alias in node.names]
    assert "sample_levy_vector" in imported
    missing = [name for name in imported if not hasattr(cuckoo, name)]
    assert not missing, f"the micro timings import names that do not exist: {', '.join(missing)}"
    # the one-vector form, which only the micro timings call
    for d in (4, 10):
        assert micro.sample_levy_vector(d, micro.LevyConfig(), np.random.default_rng(0)).shape == (d,)
