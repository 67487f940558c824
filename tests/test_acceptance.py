"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints one PASS/FAIL line with the measured quantities (run
pytest with -s to watch them).  The whole module takes about half a
minute on 2 cores; the multimodal and constrained-design cells dominate.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cuckoo.baselines import HillClimbParams, hill_climb_restart
from cuckoo.core import (
    AlgorithmParams,
    StopCriterion,
    abandon_fraction,
    abandonment_count,
    cuckoo_search,
    initialize,
    local_walk,
    step_scale,
)
from cuckoo.harness import lower_median, run_experiment, spec_from_dict
from cuckoo.levy import LevyConfig, sample_step_length
from cuckoo.problems import BEST_KNOWN, Problem, evaluate, get_problem, problem_names


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _fitted_tail_slope(draws: np.ndarray, min_step: float) -> float:
    # log-log slope of the empirical CCDF over [10*min_step, 1000*min_step];
    # thresholds with fewer than 10 exceedances are too noisy to fit
    thresholds = np.geomspace(10.0 * min_step, 1000.0 * min_step, 25)
    ccdf = np.array([(draws > t).mean() for t in thresholds])
    keep = ccdf * draws.size >= 10
    return float(np.polyfit(np.log10(thresholds[keep]), np.log10(ccdf[keep]), 1)[0])


def test_criterion_1_tail_law():
    min_step = 1e-3
    slopes = {}
    for i, lam in enumerate((1.2, 1.5, 2.0)):
        cfg = LevyConfig(tail_exponent=lam, min_step=min_step)
        draws = sample_step_length(cfg, np.random.default_rng(101 + i), size=1_000_000)
        slopes[lam] = _fitted_tail_slope(draws, min_step)
    ok = all(abs(slopes[lam] + lam) <= 0.2 for lam in slopes)
    detail = ", ".join(f"lambda={lam}: slope={slope:.3f}" for lam, slope in slopes.items())
    _verdict(ok, "criterion 1 (tail law)", detail)


def test_criterion_2_gate_semantics():
    box = Problem("box", [(-50.0, 50.0)] * 20, objective=lambda x: 0.0)
    params = AlgorithmParams(p_a=0.25, alpha=0.1, stop=StopCriterion(max_evaluations=10))
    rng = np.random.default_rng(7)
    x_i = np.zeros(20)
    x_j, x_k = np.full(20, 2.0), np.full(20, 1.0)
    scale = step_scale(box, params)
    moved = total = 0
    for _ in range(5_000):  # 100k gate draws
        candidate = x_i + local_walk(rng.random(21), params, scale)[0] * (x_j - x_k)
        moved += int(np.count_nonzero(candidate != x_i))
        total += 20
    fraction = moved / total

    closed = AlgorithmParams(p_a=0.0, alpha=0.1, stop=StopCriterion(max_evaluations=10))
    small = Problem("box3", [(-50.0, 50.0)] * 3, objective=lambda x: 0.0)
    rng = np.random.default_rng(8)
    scale = step_scale(small, closed)
    identical = all(
        np.array_equal(p + local_walk(rng.random(4), closed, scale)[0] * (q - r), p)
        for p, q, r in (
            (rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3))
            for _ in range(100_000)
        )
    )

    open_gate = AlgorithmParams(p_a=1.0, alpha=0.1, stop=StopCriterion(max_evaluations=10))
    four = Problem("box4", [(-50.0, 50.0)] * 4, objective=lambda x: 0.0)
    x_j4 = np.array([1.0, 0.0, 2.0, 0.0])
    x_k4 = np.array([0.5, 0.0, 2.0, -3.0])  # components 0 and 3 differ
    rng = np.random.default_rng(9)
    scale = step_scale(four, open_gate)
    all_differing_moved = all(
        (0.0 + local_walk(rng.random(5), open_gate, scale)[0] * (x_j4 - x_k4) != 0.0).tolist()
        == [True, False, False, True]
        for _ in range(1_000)
    )

    ok = abs(fraction - 0.25) <= 0.01 and identical and all_differing_moved
    _verdict(
        ok,
        "criterion 2 (gate semantics)",
        f"gate fraction={fraction:.4f} (target 0.25 +- 0.01), "
        f"p_a=0 identity on 100000 trials={identical}, "
        f"p_a=1 moves exactly the differing components={all_differing_moved}",
    )


def test_criterion_3_elitism_randomized():
    master = np.random.default_rng(20260816)
    names = problem_names()
    violations = 0
    for _ in range(100):
        name = names[int(master.integers(len(names)))]
        dimension = None if name in ("spring_design", "welded_beam") else int(master.integers(2, 13))
        problem = get_problem(name, dimension)
        stop = StopCriterion(
            max_evaluations=int(master.integers(200, 1200)),
            stagnation_window=int(master.integers(5, 40)) if master.random() < 0.3 else None,
        )
        params = AlgorithmParams(
            n=int(master.integers(3, 41)),
            p_a=float(master.random()),
            alpha=None if master.random() < 0.5 else float(master.uniform(1e-3, 1.0)),
            levy=LevyConfig(
                tail_exponent=float(master.uniform(1.05, 3.0)),
                min_step=float(10.0 ** master.uniform(-4.0, -1.0)),
            ),
            stop=stop,
            compare_to="random" if master.random() < 0.8 else "parent",
        )
        result = cuckoo_search(problem, params, seed=int(master.integers(2**31)))
        if any(b > a for a, b in zip(result.history, result.history[1:])):
            violations += 1
        if result.history[-1] != result.best_objective:
            violations += 1
    _verdict(
        violations == 0,
        "criterion 3 (elitism)",
        f"nonincreasing-history violations over 100 randomized runs: {violations}",
    )


def test_criterion_4_sphere_convergence():
    problem = get_problem("sphere", 10)
    stop = StopCriterion(max_evaluations=50_000, target_objective=1e-5)
    params = AlgorithmParams(n=25, p_a=0.25, stop=stop)  # alpha defaults to range/100
    results = cuckoo_search(problem, params, seed=range(30))
    successes = sum(result.best_objective < 1e-5 for result in results)
    evals = [r.evaluations for r in results if r.best_objective < 1e-5]
    ok = successes >= math.ceil(0.95 * 30)
    _verdict(
        ok,
        "criterion 4 (sphere convergence)",
        f"{successes}/30 runs reached 1e-5 within 50000 evaluations "
        f"(median evaluations {lower_median(evals) if evals else 'NA'})",
    )


def test_criterion_5_multimodal_advantage():
    problem = get_problem("rastrigin", 10)
    stop = StopCriterion(max_evaluations=100_000, target_objective=1.0)
    # range/100 steps are too timid to hop between rastrigin's basins;
    # range/10 is the standard coarse setting for multimodal landscapes
    width = float(problem.upper[0] - problem.lower[0])
    cs_params = AlgorithmParams(n=25, p_a=0.25, alpha=width / 10.0, stop=stop)
    hc_params = HillClimbParams(stop=stop)

    cs_finals = [result.best_objective for result in cuckoo_search(problem, cs_params, seed=range(30))]
    hc_finals = [hill_climb_restart(problem, hc_params, seed=seed).best_objective for seed in range(30)]
    cs_successes = sum(value < 1.0 for value in cs_finals)
    hc_successes = sum(value < 1.0 for value in hc_finals)
    cs_median = lower_median(cs_finals)
    hc_median = lower_median(hc_finals)
    ok = cs_successes > hc_successes and cs_median < hc_median
    _verdict(
        ok,
        "criterion 5 (multimodal advantage)",
        f"success {cs_successes}/30 vs {hc_successes}/30, "
        f"median final {cs_median:.4g} vs {hc_median:.4g}",
    )


@pytest.mark.parametrize("name", ["spring_design", "welded_beam"])
def test_criterion_6_constrained_designs(name):
    problem = get_problem(name)
    reference = float(problem.objective(np.asarray(BEST_KNOWN[name][0], dtype=float)))
    params = AlgorithmParams(stop=StopCriterion(max_evaluations=100_000))
    results = cuckoo_search(problem, params, seed=range(30))
    feasible = [r for r in results if r.best_feasible]
    rate = len(feasible) / 30
    best = min((r.best_objective for r in feasible), default=float("inf"))
    gap = abs(best - reference) / reference
    ok = rate >= 0.8 and gap <= 0.05
    _verdict(
        ok,
        f"criterion 6 (constraints, {name})",
        f"feasible {len(feasible)}/30, best feasible {best:.8f} "
        f"vs reference {reference:.8f} (gap {gap:.2%})",
    )


def test_criterion_7_determinism_and_accounting(tmp_path):
    spec_dict = {
        "problems": [{"name": "sphere", "dimension": 3}, {"name": "rastrigin", "dimension": 3}],
        "algorithms": [
            {"name": "cuckoo", "params": {"n": 10}},
            {"name": "hill_climb"},
        ],
        "trials": 2,
        "base_seed": 7,
        "stop": {"max_evaluations": 600},
    }
    run_experiment(spec_from_dict({**spec_dict, "output": str(tmp_path / "a")}))
    run_experiment(spec_from_dict({**spec_dict, "output": str(tmp_path / "b")}))
    mismatches = []
    files = sorted((tmp_path / "a" / "records").glob("*.tsv"))
    for tsv_a in files:
        if tsv_a.read_bytes() != (tmp_path / "b" / "records" / tsv_a.name).read_bytes():
            mismatches.append(tsv_a.name)

    accounting_failures = []
    for name in problem_names():
        problem = get_problem(name)
        calls = {"n": 0}
        inner = problem.objective

        def counting(x, _inner=inner, _calls=calls):
            _calls["n"] += x.shape[1] if x.ndim == 2 else 1  # points, not calls
            return _inner(x)

        counted = Problem(
            problem.name,
            problem.bounds,
            counting,
            inequality_constraints=problem.inequality_constraints,
            equality_constraints=problem.equality_constraints,
        )
        calls["n"] = 0
        result = cuckoo_search(
            counted, AlgorithmParams(stop=StopCriterion(max_evaluations=800)), seed=3
        )
        if calls["n"] != result.evaluations:
            accounting_failures.append(f"cuckoo/{name}: {calls['n']} != {result.evaluations}")
        calls["n"] = 0
        result = hill_climb_restart(
            counted, HillClimbParams(stop=StopCriterion(max_evaluations=500)), seed=3
        )
        if calls["n"] != result.evaluations:
            accounting_failures.append(f"hill_climb/{name}: {calls['n']} != {result.evaluations}")

    ok = not mismatches and not accounting_failures
    _verdict(
        ok,
        "criterion 7 (determinism and accounting)",
        f"{len(files)} record files byte-compared, mismatches={mismatches or 'none'}; "
        f"instrumented-count failures={accounting_failures or 'none'}",
    )


def test_criterion_8_abandonment_contract():
    problem = get_problem("sphere", 3)
    master = np.random.default_rng(99)
    checked = failures = 0
    for n in range(3, 51):
        for p_a in (0.0, 0.1, 0.25, 0.5, 1.0):
            expected = math.ceil(Fraction(str(p_a)) * n)
            params = AlgorithmParams(n=n, p_a=p_a, stop=StopCriterion(max_evaluations=10))
            rng = np.random.default_rng(int(master.integers(2**31)))
            pop = initialize(problem, params, [rng])
            before_positions = [x.copy() for x in pop.X]
            before_objectives = pop.F.tolist()
            before_best = (pop.best_position.copy(), pop.best_objective.copy())
            before_evaluations = pop.evaluations

            count = abandonment_count(params.p_a, n)
            X = problem.lower + problem.width * rng.random((count, problem.dimension))
            abandon_fraction(pop, X, *evaluate(problem, X))

            changed = {
                i
                for i in range(n)
                if not np.array_equal(pop.X[i], before_positions[i])
            }
            worst = set(sorted(range(n), key=lambda i: before_objectives[i])[n - expected :])
            coherent = all(
                pop.F[i] == evaluate(problem, pop.X[i])[0]
                for i in changed
            )
            checked += 1
            if not (
                len(changed) == expected
                and changed == worst
                and pop.evaluations == before_evaluations + expected
                and pop.best_objective[0] == before_best[1][0]
                and np.array_equal(pop.best_position, before_best[0])
                and coherent
            ):
                failures += 1
    _verdict(
        failures == 0,
        "criterion 8 (abandonment contract)",
        f"exhaustive sweep n in 3..50 x p_a in {{0, 0.1, 0.25, 0.5, 1}}: "
        f"{checked} cases, {failures} failures",
    )
