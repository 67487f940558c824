"""Hill-climbing baseline: move rule, restarts, shared run contracts."""

import hashlib

import numpy as np
import pytest

import cuckoo.baselines
from cuckoo.baselines import MOVE_BLOCK, HillClimbParams, hill_climb_restart
from cuckoo.core import StopCriterion
from cuckoo.problems import Problem, evaluate, get_problem


def budget(n):
    return StopCriterion(max_evaluations=n)


class TestParams:
    def test_validation(self):
        HillClimbParams()
        with pytest.raises(ValueError):
            HillClimbParams(step_fraction=0.0)
        with pytest.raises(ValueError):
            HillClimbParams(step_fraction=1.5)
        with pytest.raises(ValueError):
            HillClimbParams(shrink_factor=1.0)
        with pytest.raises(ValueError):
            HillClimbParams(shrink_factor=0.0)
        with pytest.raises(ValueError):
            HillClimbParams(stall_limit=0)


class TestRunContracts:
    def test_history_keeps_rows_where_best_changes(self):
        problem = get_problem("sphere", 4)
        values = []
        inner = problem.objective

        def recording(x):
            values.append(float(inner(x)))
            return values[-1]

        recorded = Problem(problem.name, problem.bounds, recording)
        result = hill_climb_restart(recorded, HillClimbParams(stop=budget(500)), seed=0)
        assert result.terminated_by == "max_evaluations"
        assert result.evaluations == 500  # checked per evaluation, never overshoots
        # replay the best-so-far curve from every evaluation: the history is
        # its change points plus the last evaluation, and loses nothing of it
        best, rows = float("inf"), []
        for count, value in enumerate(values, start=1):
            if value < best:
                best = value
                rows.append((best, count))
        if rows[-1][1] != 500:
            rows.append((best, 500))
        assert list(zip(result.history, result.history_evaluations)) == rows
        assert len(rows) < 500
        assert all(a > b for a, b in zip(result.history, result.history[1:-1]))
        assert result.history[-1] == result.best_objective

    def test_history_ends_on_an_improvement_without_a_duplicate_row(self):
        problem = get_problem("sphere", 2)
        stop = StopCriterion(max_evaluations=100_000, target_objective=0.5)
        result = hill_climb_restart(problem, HillClimbParams(stop=stop), seed=1)
        assert result.terminated_by == "target"
        assert result.history_evaluations[-1] == result.evaluations
        assert result.history[-2] > result.history[-1]

    def test_determinism_and_seed_sensitivity(self):
        problem = get_problem("rastrigin", 3)
        params = HillClimbParams(stop=budget(800))
        a = hill_climb_restart(problem, params, seed=5)
        b = hill_climb_restart(problem, params, seed=5)
        assert a.history == b.history
        assert np.array_equal(a.best_position, b.best_position)
        assert a.history != hill_climb_restart(problem, params, seed=6).history

    def test_target_termination(self):
        problem = get_problem("sphere", 2)
        stop = StopCriterion(max_evaluations=100_000, target_objective=0.5)
        result = hill_climb_restart(problem, HillClimbParams(stop=stop), seed=1)
        assert result.terminated_by == "target"
        assert result.best_objective <= 0.5
        assert result.evaluations < 100_000

    def test_target_precedence_over_budget(self):
        problem = get_problem("sphere", 2)
        stop = StopCriterion(max_evaluations=1, target_objective=1e9)
        result = hill_climb_restart(problem, HillClimbParams(stop=stop), seed=0)
        assert result.terminated_by == "target"
        assert result.evaluations == 1

    def test_stagnation_termination(self):
        flat = Problem("flat", [(0.0, 1.0)] * 2, objective=lambda x: 7.0)
        stop = StopCriterion(max_evaluations=100_000, stagnation_window=25)
        result = hill_climb_restart(flat, HillClimbParams(stop=stop), seed=2)
        assert result.terminated_by == "stagnation"
        # first evaluation sets the best, then 25 non-improving ones
        assert result.evaluations == 26

    @pytest.mark.parametrize("seed", [True, range(3), [1, 2], 1.0], ids=["bool", "range", "list", "float"])
    def test_a_seed_that_is_not_one_integer_is_refused(self, seed):
        # cuckoo search runs one trial per seed of a sequence; hill climbing
        # runs one seed per call, so a sequence must not become one climb
        with pytest.raises(TypeError, match="one seed per call"):
            hill_climb_restart(get_problem("sphere", 2), HillClimbParams(stop=budget(10)), seed=seed)

    def test_the_loop_calls_evaluate_through_the_module(self, monkeypatch):
        # the traced benchmark wraps cuckoo.baselines.evaluate: a loop that
        # bound it at import would move its time into the loop's own
        shapes = []

        def counting(problem, x, penalty):
            shapes.append(np.shape(x))
            return evaluate(problem, x, penalty)

        monkeypatch.setattr(cuckoo.baselines, "evaluate", counting)
        result = hill_climb_restart(get_problem("rastrigin", 3), HillClimbParams(stop=budget(700)), seed=1)
        assert result.evaluations == 700
        assert shapes == [(3,)] * 700

    def test_best_position_cache_coherent(self):
        problem = get_problem("welded_beam")
        result = hill_climb_restart(problem, HillClimbParams(stop=budget(2_000)), seed=3)
        value, feasible = evaluate(problem, result.best_position)
        assert value == result.best_objective
        assert feasible == result.best_feasible
        assert np.all(result.best_position >= problem.lower)
        assert np.all(result.best_position <= problem.upper)


class TestMoveRule:
    def test_accepted_values_strictly_decrease_within_a_climb(self):
        # replay the rule from outside: a move is accepted only if strictly
        # better, and stall_limit rejections in a row end the climb; every
        # recorded point must fit that replay
        problem = get_problem("ackley", 5)
        params = HillClimbParams(stop=budget(3_000))
        for seed in range(6):
            seen = []

            def recording(x):
                seen.append((x.copy(), problem.objective(x)))
                return seen[-1][1]

            hill_climb_restart(Problem(problem.name, problem.bounds, recording), params, seed=seed)
            climbs, current, failures = [], None, 0
            for point, value in seen:
                if current is None or failures >= params.stall_limit:
                    if current is not None:
                        assert np.all(point != current)  # a restart redraws every coordinate
                    current, failures = point, 0
                    climbs.append([value])
                    continue
                assert np.sum(point != current) <= 1  # a move starts from the last accepted point
                if value < climbs[-1][-1]:
                    current, failures = point, 0
                    climbs[-1].append(value)
                else:
                    failures += 1
            assert len(climbs) >= 2
            for values in climbs:
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_moves_touch_one_coordinate(self):
        problem = get_problem("sphere", 6)
        seen = []
        inner = problem.objective

        def recording(x):
            seen.append(x.copy())
            return inner(x)

        recorded = Problem(problem.name, problem.bounds, recording)
        # huge stall limit: a single climb covers the whole budget
        params = HillClimbParams(stall_limit=10_000, stop=budget(300))
        hill_climb_restart(recorded, params, seed=4)
        current, current_value = seen[0], inner(seen[0])
        for point in seen[1:]:
            assert np.sum(point != current) <= 1
            value = inner(point)
            if value < current_value:
                current, current_value = point, value

    def test_all_evaluations_inside_bounds(self):
        problem = get_problem("rosenbrock", 3)
        seen = []
        inner = problem.objective

        def recording(x):
            seen.append(x.copy())
            return inner(x)

        recorded = Problem(problem.name, problem.bounds, recording)
        hill_climb_restart(recorded, HillClimbParams(stop=budget(1_000)), seed=7)
        stacked = np.array(seen)
        assert np.all(stacked >= problem.lower)
        assert np.all(stacked <= problem.upper)

    def test_restart_after_stall_draws_fresh_point(self):
        seen = []

        def recording(x):
            seen.append(x.copy())
            return 1.0

        recorded = Problem("flat", [(0.0, 1.0)] * 4, recording)
        params = HillClimbParams(stall_limit=5, stop=budget(18))
        hill_climb_restart(recorded, params, seed=8)
        # flat objective: every move is rejected, so each climb is 1 fresh
        # start plus 5 rejected moves, and climbs start at 0, 6 and 12
        assert len(seen) == 18
        for index in range(1, 18):
            if index % 6 == 0:
                assert np.sum(seen[index] != seen[index - 6]) == 4  # a restart changes all
            else:
                assert np.sum(seen[index] != seen[index - index % 6]) <= 1  # a move, one

    def test_draw_order_restarts_and_move_blocks(self):
        # rebuild every evaluated point from a second generator in the
        # documented order: the first restart point, then blocks of
        # MOVE_BLOCK coordinates followed by MOVE_BLOCK uniforms, kept across
        # the later restarts, whose points come from the stream in between
        problem = get_problem("sphere", 3)
        params = HillClimbParams(stall_limit=8, stop=budget(1_500))
        seen = []

        def recording(x):
            seen.append(x.copy())
            return problem.objective(x)

        hill_climb_restart(Problem(problem.name, problem.bounds, recording), params, seed=9)
        replay = np.random.default_rng(9)
        lower, upper = problem.lower, problem.upper
        start_step = (params.step_fraction * (upper - lower)).tolist()
        moves, blocks, restarts, current = [], 0, 0, None
        for point in seen:
            if current is None:
                expected = lower + (upper - lower) * replay.random(3)
                restarts += 1
                scale, failures = 1.0, 0
            else:
                if not moves:
                    coords = replay.integers(3, size=MOVE_BLOCK).tolist()
                    moves = list(zip(coords, replay.random(MOVE_BLOCK).tolist()))[::-1]
                    blocks += 1
                coord, u = moves.pop()
                half = start_step[coord] * scale
                expected = current.copy()
                moved = current.item(coord) + (-half + 2.0 * half * u)
                expected[coord] = min(max(moved, lower[coord]), upper[coord])
            assert np.array_equal(point, expected)
            value = problem.objective(point)
            if current is None or value < current_value:
                current, current_value, failures = point, value, 0
            else:
                failures += 1
                scale *= params.shrink_factor
                if failures >= params.stall_limit:
                    current = None
        assert len(seen) == 1_500 and blocks >= 3 and restarts >= 3


# sha256 of results frozen before the loop was rewritten for speed, for the
# stops and params that the golden grid (default params, budget and target
# stops) does not reach
FROZEN = {
    "stagnation-mid-run": ("rastrigin", 5, 2, {}, {"stagnation_window": 3000}, "stagnation",
                           "9f9f347efc79ad3098625e5bb1a3d52000ff15e132807f8313bde5c3084a668f"),
    "target-on-a-move": ("rastrigin", 2, 0, {}, {"target_objective": 0.5}, "target",
                         "a7ba09796dc13c48fb69b92f397d69940c0057b29522a4703a9f47767b23e19a"),
    "stall-limit-1": ("ackley", 5, 3, {"stall_limit": 1}, {}, "max_evaluations",
                      "1b0ba61e30d7b7aaa8064fcd64cf80d0eec1aeaaaad191d292f9a7c3a65d447a"),
    "shrink-0.9": ("rosenbrock", 5, 4, {"shrink_factor": 0.9}, {}, "max_evaluations",
                   "ff4570cc594e4c8da2db5c51c1c82c48cb470401de66a4e650b62864cf8f6198"),
    "step-fraction-1": ("rastrigin", 5, 5, {"step_fraction": 1.0}, {}, "max_evaluations",
                        "1f412f8d0f105a7249ff09cdba4346f3f05d654bc5a993e31e451263603ee157"),
    "welded-beam": ("welded_beam", None, 6, {}, {}, "max_evaluations",
                    "c2a3a87f14b9ed18c801085f59ae8b60624e92dcaeb1435d4bad5697280939d8"),
}


def digest(result):
    """sha256 over history, history_evaluations, best_objective, best_position's bytes, terminated_by."""
    fields = (result.history, result.history_evaluations, result.best_objective, result.terminated_by)
    return hashlib.sha256(repr(fields).encode() + result.best_position.tobytes()).hexdigest()


@pytest.mark.parametrize("case", FROZEN)
def test_results_match_frozen_digests(case):
    name, dimension, seed, params, stop, reason, expected = FROZEN[case]
    problem = get_problem(name, dimension) if dimension else get_problem(name)
    stop = StopCriterion(max_evaluations=20_000, **stop)
    result = hill_climb_restart(problem, HillClimbParams(stop=stop, **params), seed=seed)
    assert result.terminated_by == reason
    assert digest(result) == expected
