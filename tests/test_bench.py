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
from cuckoo.harness import spec_from_dict, spec_to_dict
from cuckoo.problems import Problem, corpus, evaluate

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


def test_the_benchmark_spec_layouts_parse(monkeypatch, tmp_path):
    # the grid's dict and the dicts that the traced runs of the other workloads build
    workloads = load(monkeypatch, BENCH / "workloads.py")
    grid = workloads.build("grid", 1, smoke=True).grid
    assert "cuckoo" in grid["algorithms"] and {"name": "welded_beam"} in grid["problems"]
    traced = []
    monkeypatch.setattr(workloads, "traced_grid_call", lambda wl, tracer, seed, out, spec: traced.append(spec))
    for name in ("multimodal", "constrained"):
        workloads.traced(workloads.build(name, 1, smoke=True), {"trials": []}, None, tmp_path)
    assert len(traced) == 4
    assert all(spec["workers"] == 1 and "params" in spec["algorithms"][0] for spec in traced)
    for layout in [grid, *traced]:
        spec = spec_from_dict({**layout, "output": str(tmp_path / "out")})
        assert spec_from_dict(spec_to_dict(spec)) == spec


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


class PassThrough:
    """A tracer that records nothing: each wrapped callable calls the original."""

    @staticmethod
    def wrap(name, fn):
        return lambda *args, **kwargs: fn(*args, **kwargs)


def test_the_traced_problems_score_as_the_originals(monkeypatch):
    workloads = load(monkeypatch, BENCH / "workloads.py")
    # x[1] within 2e-4 of the equality's surface, where a second fold would change its value
    equality = Problem("equality", [(-1.0, 1.0), (-2e-4, 2e-4)], objective=lambda x: x[0] * x[0] + x[1],
                       inequality_constraints=(lambda x: x[0] - 0.5,), equality_constraints=(lambda x: x[1],))
    rng = np.random.default_rng(0)
    for problem in [*corpus(), equality]:
        traced = workloads._traced_problem(PassThrough(), problem)
        # the stored constraints are wrapped once each: an equality is not folded again
        assert len(traced.inequality_constraints) == len(problem.inequality_constraints)
        assert traced.equality_constraints == ()
        X = rng.uniform(problem.lower, problem.upper, size=(25, problem.dimension))
        value, feasible = evaluate(traced, X[0])
        expected, expected_feasible = evaluate(problem, X[0])
        assert (value.hex(), feasible) == (expected.hex(), expected_feasible), problem.name
        values, feasible = evaluate(traced, X)
        expected, expected_feasible = evaluate(problem, X)
        assert values.tobytes() == expected.tobytes() and feasible.tolist() == expected_feasible.tolist()
        # the constrained workload's feasibility check reads each constraint as a float
        for g in problem.inequality_constraints:
            assert isinstance(float(g(X[0])), float)
