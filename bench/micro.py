"""Isolated per-call timings of the bottom layers.

``levy``: one ``sample_levy_vector`` call at d=10 and d=4.  ``problems``: the
raw objective and the penalized ``evaluate`` on each corpus problem, over
a fixed set of points drawn inside the bounds; the penalty share is their
difference.  Every loop is run once untimed to warm up, then timed several
times, and the fastest per-call time is reported: interference from other
processes only ever adds time.
"""

from __future__ import annotations

import time

import numpy as np

from cuckoo import LevyConfig, evaluate, get_problem, sample_levy_vector

PROBLEMS = (("sphere-5", "sphere", 5), ("rastrigin-10", "rastrigin", 10),
            ("rosenbrock-10", "rosenbrock", 10), ("ackley-10", "ackley", 10),
            ("spring_design", "spring_design", None), ("welded_beam", "welded_beam", None))
POINTS = 200
PASSES = 10
REPEATS = 9


def _per_call_us(loop, calls: int) -> float:
    loop()
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        loop()
        samples.append((time.perf_counter() - started) / calls * 1e6)
    return min(samples)


def measure(seed: int) -> dict[str, float]:
    """Fastest microseconds per call, keyed by metric name."""
    out = {}
    cfg = LevyConfig()
    for dim in (10, 4):
        rng = np.random.default_rng(seed)

        def levy_loop(dim=dim, rng=rng):
            for _ in range(2000):
                sample_levy_vector(dim, cfg, rng)

        out[f"levy.sample_levy_vector.d{dim}.us"] = _per_call_us(levy_loop, 2000)

    for label, name, dimension in PROBLEMS:
        problem = get_problem(name, dimension)
        rng = np.random.default_rng(seed)
        points = [rng.uniform(problem.lower, problem.upper) for _ in range(POINTS)]
        objective = problem.objective

        def objective_loop():
            for _ in range(PASSES):
                for x in points:
                    objective(x)

        def evaluate_loop():
            for _ in range(PASSES):
                for x in points:
                    evaluate(problem, x)

        raw = _per_call_us(objective_loop, PASSES * POINTS)
        full = _per_call_us(evaluate_loop, PASSES * POINTS)
        out[f"problems.objective.{label}.us"] = raw
        out[f"problems.evaluate.{label}.us"] = full
        out[f"problems.penalty.{label}.us"] = full - raw
    return out
