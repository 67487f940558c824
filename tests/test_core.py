"""Optimizer mechanics: walks, selection, abandonment, the main loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cuckoo.core import (
    AlgorithmParams,
    Nest,
    StopCriterion,
    abandon_fraction,
    abandonment_count,
    cuckoo_search,
    draw_partners,
    global_walk,
    greedy_select,
    initialize,
    local_walk,
    step_scale,
)
from cuckoo.levy import LevyConfig
from cuckoo.problems import PenaltyConfig, Problem, evaluate, get_problem


def unit_box(dimension, lo=0.0, hi=1.0):
    return Problem(
        "box", [(lo, hi)] * dimension, objective=lambda x: float(np.sum(x * x))
    )


def budget(n):
    return StopCriterion(max_evaluations=n)


class TestConfigs:
    def test_params_validation(self):
        AlgorithmParams()  # defaults are valid
        with pytest.raises(ValueError):
            AlgorithmParams(n=1)
        with pytest.raises(ValueError):
            AlgorithmParams(p_a=1.5)
        with pytest.raises(ValueError):
            AlgorithmParams(p_a=-0.1)
        with pytest.raises(ValueError):
            AlgorithmParams(alpha=0.0)
        with pytest.raises(ValueError):
            AlgorithmParams(compare_to="best")

    def test_stop_validation(self):
        with pytest.raises(ValueError):
            StopCriterion()
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=0)
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=100, stagnation_window=0)
        StopCriterion(target_objective=0.5)

    @pytest.mark.parametrize(
        "stop, best, evaluations, stall, expected",
        [
            # target over budget over stagnation
            (StopCriterion(100, 1.0, 3), 0.5, 100, 3, "target"),
            (StopCriterion(100, 1.0, 3), 2.0, 100, 3, "max_evaluations"),
            (StopCriterion(100, 1.0, 3), 2.0, 99, 3, "stagnation"),
            (StopCriterion(100, 1.0, 3), 2.0, 99, 2, None),
            # no stall count given: stagnation is not checked
            (StopCriterion(100, 1.0, 3), 2.0, 99, None, None),
            (StopCriterion(100, None, 3), 2.0, 100, None, "max_evaluations"),
            (StopCriterion(None, 1.0, None), 1.0, 10**9, None, "target"),
        ],
    )
    def test_stop_reason_precedence(self, stop, best, evaluations, stall, expected):
        assert stop.reason(best, evaluations, stall) == expected

    def test_step_scale_default_and_override(self):
        problem = get_problem("rosenbrock", 4)  # width 15 per coordinate
        params = AlgorithmParams(stop=budget(100))
        assert np.allclose(step_scale(problem, params), 0.15)
        params = AlgorithmParams(alpha=0.7, stop=budget(100))
        assert np.all(step_scale(problem, params) == 0.7)


class TestInitialize:
    def test_contract(self):
        problem = unit_box(2)
        params = AlgorithmParams(n=3, stop=budget(100))
        pop = initialize(problem, params, np.random.default_rng(0))
        assert len(pop.nests) == 3
        assert pop.evaluations == 3
        for nest in pop.nests:
            assert np.all(nest.position >= 0.0) and np.all(nest.position <= 1.0)
            assert nest.objective == evaluate(problem, nest.position)[0]
        assert pop.best.objective == min(nest.objective for nest in pop.nests)
        # the record is a copy, not an alias into the population
        assert all(pop.best.position is not nest.position for nest in pop.nests)

    def test_draw_order_one_block_per_nest(self):
        problem = unit_box(4, lo=-2.0, hi=3.0)
        params = AlgorithmParams(n=3, stop=budget(100))
        pop = initialize(problem, params, np.random.default_rng(8))
        replay = np.random.default_rng(8)
        for nest in pop.nests:
            assert np.array_equal(nest.position, replay.uniform(problem.lower, problem.upper))


class TestGlobalWalk:
    def test_replay_frozen(self):
        problem = unit_box(1, lo=-1.0, hi=1.0)
        params = AlgorithmParams(alpha=0.1, stop=budget(100))
        x = np.array([0.5])
        candidate = global_walk(x, problem, params, np.random.default_rng(7))
        assert candidate[0] == pytest.approx(0.4998076674135267, abs=1e-15)
        for seed, expected in ((11, 0.5001096087090473), (42, 0.5002694871571326)):
            candidate = global_walk(x, problem, params, np.random.default_rng(seed))
            assert candidate[0] == pytest.approx(expected, abs=1e-15)

    def test_consumes_one_signed_vector(self):
        problem = unit_box(5, lo=-100.0, hi=100.0)
        params = AlgorithmParams(alpha=2.0, stop=budget(100))
        x = np.full(5, 1.5)
        rng = np.random.default_rng(21)
        candidate = global_walk(x, problem, params, rng)
        replay = np.random.default_rng(21)
        magnitudes = 1e-3 * (1.0 - replay.random(5)) ** (-1.0 / 1.5)
        signs = np.where(replay.random(5) < 0.5, 1.0, -1.0)
        assert np.array_equal(candidate, x + 2.0 * signs * magnitudes)
        assert rng.random() == replay.random()

    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_stays_in_bounds(self, seed, alpha):
        problem = unit_box(3, lo=-0.5, hi=2.0)
        params = AlgorithmParams(alpha=alpha, stop=budget(100))
        x = np.array([0.0, 1.0, 2.0])
        candidate = global_walk(x, problem, params, np.random.default_rng(seed))
        assert np.all(candidate >= -0.5) and np.all(candidate <= 2.0)


class TestLocalWalk:
    def test_draw_order_scalar_then_gates(self):
        problem = unit_box(3, lo=-10.0, hi=10.0)
        params = AlgorithmParams(alpha=1.0, stop=budget(100))
        x_i = np.zeros(3)
        x_j = np.array([1.0, 2.0, 3.0])
        x_k = np.array([0.5, -1.0, 3.0])
        candidate = local_walk(x_i, x_j, x_k, problem, params, np.random.default_rng(123))
        replay = np.random.default_rng(123)
        s = replay.random()
        assert s == pytest.approx(0.6823518632481435, abs=1e-15)
        gate = replay.random(3) < 0.25
        scale = np.full(3, 1.0)
        assert np.array_equal(candidate, x_i + scale * s * gate * (x_j - x_k))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_identity_when_gate_closed(self, seed):
        problem = unit_box(4, lo=-5.0, hi=5.0)
        params = AlgorithmParams(p_a=0.0, stop=budget(100))
        rng = np.random.default_rng(seed)
        x_i = rng.uniform(-5.0, 5.0, 4)
        x_j = rng.uniform(-5.0, 5.0, 4)
        x_k = rng.uniform(-5.0, 5.0, 4)
        assert np.array_equal(local_walk(x_i, x_j, x_k, problem, params, rng), x_i)

    @given(seed=st.integers(0, 2**32 - 1), p_a=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_identity_when_partners_match(self, seed, p_a):
        problem = unit_box(3, lo=-5.0, hi=5.0)
        params = AlgorithmParams(p_a=p_a, stop=budget(100))
        rng = np.random.default_rng(seed)
        x_i = rng.uniform(-5.0, 5.0, 3)
        x_j = rng.uniform(-5.0, 5.0, 3)
        assert np.array_equal(local_walk(x_i, x_j, x_j.copy(), problem, params, rng), x_i)

    def test_open_gate_moves_only_differing_components(self):
        problem = unit_box(4, lo=-5.0, hi=5.0)
        params = AlgorithmParams(p_a=1.0, stop=budget(100))
        x_i = np.zeros(4)
        x_j = np.array([1.0, 0.0, 2.0, 0.0])
        x_k = np.array([0.5, 0.0, 2.0, -3.0])  # differs in components 0 and 3
        for seed in range(25):
            candidate = local_walk(x_i, x_j, x_k, problem, params, np.random.default_rng(seed))
            moved = candidate != x_i
            assert moved.tolist() == [True, False, False, True]

    def test_dimension_mismatch(self):
        problem = unit_box(3)
        params = AlgorithmParams(stop=budget(100))
        with pytest.raises(ValueError):
            local_walk(np.zeros(3), np.zeros(2), np.zeros(3), problem, params, np.random.default_rng(0))


class TestSelectionAndPartners:
    def test_greedy_select(self):
        a = Nest(np.zeros(1), 1.0, True)
        b = Nest(np.ones(1), 2.0, True)
        assert greedy_select(a, b) is a
        assert greedy_select(b, a) is a
        tied = Nest(np.full(1, 9.0), 1.0, False)
        assert greedy_select(tied, a) is a  # ties keep the incumbent

    def test_partners_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            j, k = draw_partners(6, rng)
            assert 0 <= j < 6 and 0 <= k < 6 and j != k

    def test_partners_uniform_over_ordered_pairs(self):
        rng = np.random.default_rng(1)
        n, draws = 5, 40_000
        counts = np.zeros((n, n))
        for _ in range(draws):
            j, k = draw_partners(n, rng)
            counts[j, k] += 1
        observed = counts[~np.eye(n, dtype=bool)]
        result = stats.chisquare(observed)
        assert result.pvalue > 1e-3

    def test_partners_two_nests(self):
        rng = np.random.default_rng(2)
        pairs = {draw_partners(2, rng) for _ in range(50)}
        assert pairs == {(0, 1), (1, 0)}


class TestAbandonment:
    def test_count_values(self):
        assert abandonment_count(0.25, 20) == 5
        assert abandonment_count(0.25, 25) == 7  # 6.25 rounds up
        assert abandonment_count(0.1, 30) == 3
        assert abandonment_count(0.06, 50) == 3  # 3.0000000000000004 must stay 3
        assert abandonment_count(0.2, 35) == 7
        assert abandonment_count(0.0, 10) == 0
        assert abandonment_count(1.0, 10) == 10

    def test_replaces_exactly_the_worst(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=8, p_a=0.25, stop=budget(10_000))
        rng = np.random.default_rng(5)
        pop = initialize(problem, params, rng)
        before = [(nest.position.copy(), nest.objective) for nest in pop.nests]
        worst_two = sorted(range(8), key=lambda i: before[i][1])[-2:]
        best_before = (pop.best.position.copy(), pop.best.objective)

        abandon_fraction(pop, problem, params, rng)

        changed = [
            i for i in range(8) if not np.array_equal(pop.nests[i].position, before[i][0])
        ]
        assert sorted(changed) == sorted(worst_two)
        assert pop.evaluations == 8 + 2
        assert pop.best.objective == best_before[1]
        assert np.array_equal(pop.best.position, best_before[0])
        for i in changed:
            nest = pop.nests[i]
            assert np.all(nest.position >= problem.lower)
            assert np.all(nest.position <= problem.upper)
            assert nest.objective == evaluate(problem, nest.position)[0]

    @given(
        n=st.integers(3, 50),
        p_a=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_abandonment_property(self, n, p_a, seed):
        from fractions import Fraction

        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=n, p_a=p_a, stop=budget(10_000))
        rng = np.random.default_rng(seed)
        pop = initialize(problem, params, rng)
        before = [nest.position.copy() for nest in pop.nests]
        best_before = (pop.best.position.copy(), pop.best.objective)

        abandon_fraction(pop, problem, params, rng)

        expected = math.ceil(Fraction(str(p_a)) * n)
        changed = sum(
            not np.array_equal(pop.nests[i].position, before[i]) for i in range(n)
        )
        assert changed == expected
        assert pop.evaluations == n + expected
        assert pop.best.objective == best_before[1]
        assert np.array_equal(pop.best.position, best_before[0])

    def test_zero_fraction_is_noop(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=5, p_a=0.0, stop=budget(10_000))
        rng = np.random.default_rng(6)
        pop = initialize(problem, params, rng)
        abandon_fraction(pop, problem, params, rng)
        assert pop.evaluations == 5
        # the no-op path consumed nothing from the stream
        replay = np.random.default_rng(6)
        for _ in range(5):
            replay.uniform(problem.lower, problem.upper)
        assert rng.random() == replay.random()


class TestSearchLoop:
    def test_history_contract(self):
        problem = get_problem("rastrigin", 4)
        params = AlgorithmParams(stop=budget(2_000))
        result = cuckoo_search(problem, params, seed=3)
        assert result.terminated_by == "max_evaluations"
        assert len(result.history) == len(result.history_evaluations)
        assert result.history[0] >= result.history[-1]
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))
        assert all(a < b for a, b in zip(result.history_evaluations, result.history_evaluations[1:]))
        assert result.history[-1] == result.best_objective
        assert result.history_evaluations[-1] == result.evaluations
        assert result.history_evaluations[0] == params.n

    def test_budget_overshoot_bound(self):
        problem = get_problem("ackley", 3)
        for max_evals in (30, 77, 150, 999):
            params = AlgorithmParams(stop=budget(max_evals))
            result = cuckoo_search(problem, params, seed=1)
            allowance = params.n + abandonment_count(params.p_a, params.n)
            assert max_evals <= result.evaluations <= max_evals + allowance
            assert result.terminated_by == "max_evaluations"

    def test_target_met_at_initialization(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(stop=StopCriterion(max_evaluations=10_000, target_objective=1e9))
        result = cuckoo_search(problem, params, seed=0)
        assert result.terminated_by == "target"
        assert result.evaluations == params.n
        assert len(result.history) == 1

    def test_target_precedence_over_budget(self):
        problem = get_problem("sphere", 2)
        stop = StopCriterion(max_evaluations=25, target_objective=1e9)
        result = cuckoo_search(problem, AlgorithmParams(stop=stop), seed=0)
        assert result.terminated_by == "target"

    def test_stagnation_on_flat_objective(self):
        flat = Problem("flat", [(0.0, 1.0)] * 3, objective=lambda x: 1.0)
        stop = StopCriterion(max_evaluations=100_000, stagnation_window=4)
        result = cuckoo_search(flat, AlgorithmParams(stop=stop), seed=0)
        assert result.terminated_by == "stagnation"
        assert len(result.history) == 1 + 4
        assert result.best_objective == 1.0

    def test_determinism(self):
        problem = get_problem("rosenbrock", 5)
        params = AlgorithmParams(stop=budget(1_500))
        a = cuckoo_search(problem, params, seed=9)
        b = cuckoo_search(problem, params, seed=9)
        assert a.history == b.history
        assert np.array_equal(a.best_position, b.best_position)
        assert a.evaluations == b.evaluations
        c = cuckoo_search(problem, params, seed=10)
        assert a.history != c.history

    def test_result_position_cache_coherent(self):
        problem = get_problem("spring_design")
        params = AlgorithmParams(stop=budget(3_000))
        result = cuckoo_search(problem, params, seed=4)
        value, feasible = evaluate(problem, result.best_position)
        assert value == result.best_objective
        assert feasible == result.best_feasible
        assert np.all(result.best_position >= problem.lower)
        assert np.all(result.best_position <= problem.upper)

    def test_parent_comparison_mode(self):
        problem = get_problem("sphere", 3)
        params = AlgorithmParams(compare_to="parent", stop=budget(2_000))
        result = cuckoo_search(problem, params, seed=2)
        assert result.terminated_by == "max_evaluations"
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_evaluation_accounting_instrumented(self):
        problem = get_problem("sphere", 4)
        calls = {"n": 0}
        inner = problem.objective

        def counting(x):
            calls["n"] += 1
            return inner(x)

        counted = Problem(problem.name, problem.bounds, counting)
        params = AlgorithmParams(stop=budget(700))
        result = cuckoo_search(counted, params, seed=0)
        assert calls["n"] == result.evaluations

    def test_custom_levy_config_flows_through(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(
            levy=LevyConfig(tail_exponent=2.5, min_step=1e-2), stop=budget(600)
        )
        result = cuckoo_search(problem, params, seed=0)
        base = cuckoo_search(problem, AlgorithmParams(stop=budget(600)), seed=0)
        assert result.history != base.history

    def test_penalty_config_flows_through(self):
        problem = get_problem("spring_design")
        params = AlgorithmParams(stop=budget(500))
        light = cuckoo_search(problem, params, seed=1, penalty=PenaltyConfig(penalty_weight=1.0))
        heavy = cuckoo_search(problem, params, seed=1, penalty=PenaltyConfig(penalty_weight=1e12))
        # infeasible bests are scored differently under the two weights
        assert light.history != heavy.history
