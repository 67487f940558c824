"""Optimizer mechanics: walks, selection, abandonment, the main loop."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from cuckoo import core
from cuckoo.core import (
    AlgorithmParams,
    Population,
    StopCriterion,
    abandon_fraction,
    abandonment_count,
    cuckoo_search,
    global_walk,
    initialize,
    local_walk,
    partner_pairs,
    step_scale,
    winning_bids,
)
from cuckoo.levy import LevyConfig
from cuckoo.problems import EvaluationError, PenaltyConfig, Problem, evaluate, get_problem


def unit_box(dimension, lo=0.0, hi=1.0):
    return Problem(
        "box", [(lo, hi)] * dimension, objective=lambda x: np.sum(x * x, axis=0)
    )


def budget(n):
    return StopCriterion(max_evaluations=n)


def abandon(pop, problem, count, rng):
    """Abandon the worst ``count`` nests for fresh ones, drawn and scored as cuckoo_search does."""
    X = core._fresh_nests(problem.lower, problem.width, count, rng)
    return abandon_fraction(pop, X, *evaluate(problem, X))


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
        # every rule has a budget
        for budgetless in ({}, {"target_objective": 0.5}, {"stagnation_window": 5}):
            with pytest.raises(TypeError):
                StopCriterion(**budgetless)
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=None)
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=0)
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=100, stagnation_window=0)
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=True)  # a bool is not a count
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=100.0)
        with pytest.raises(ValueError):
            StopCriterion(max_evaluations=100, stagnation_window=False)
        StopCriterion(max_evaluations=np.int64(5))

    @pytest.mark.parametrize(
        "stop, best, evaluations, stall, expected",
        [
            # target over budget over stagnation
            (StopCriterion(100, 1.0, 3), 0.5, 100, 3, "target"),
            (StopCriterion(100, 1.0, 3), 2.0, 100, 3, "max_evaluations"),
            (StopCriterion(100, 1.0, 3), 2.0, 99, 3, "stagnation"),
            (StopCriterion(100, 1.0, 3), 2.0, 99, 2, None),
            (StopCriterion(100, None, 3), 2.0, 100, 0, "max_evaluations"),
            (StopCriterion(10**9, 1.0, None), 1.0, 10**9, 0, "target"),
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
        assert pop.X.shape == (3, 2) and pop.F.shape == pop.feasible.shape == (3,)
        assert pop.evaluations == 3
        assert np.all(pop.X >= 0.0) and np.all(pop.X <= 1.0)
        for x, value, feasible in zip(pop.X, pop.F, pop.feasible):
            assert (value, feasible) == evaluate(problem, x)
        assert pop.best_objective == pop.F.min()
        assert isinstance(pop.best_objective, float)
        assert np.array_equal(pop.best_position, pop.X[np.argmin(pop.F)])
        # the record is a copy, not a view into the population
        assert not np.shares_memory(pop.best_position, pop.X)

    def test_draw_order_one_block_per_nest(self):
        problem = unit_box(4, lo=-2.0, hi=3.0)
        params = AlgorithmParams(n=3, stop=budget(100))
        pop = initialize(problem, params, np.random.default_rng(8))
        replay = np.random.default_rng(8)
        for x in pop.X:
            assert np.array_equal(x, replay.uniform(problem.lower, problem.upper))


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

    def test_batch_draws_magnitudes_then_signs(self):
        problem = unit_box(3, lo=-100.0, hi=100.0)
        params = AlgorithmParams(alpha=0.5, stop=budget(100))
        X = np.arange(12.0).reshape(4, 3)
        rng = np.random.default_rng(22)
        candidates = global_walk(X, problem, params, rng)
        replay = np.random.default_rng(22)
        magnitudes = 1e-3 * (1.0 - replay.random((4, 3))) ** (-1.0 / 1.5)
        signs = np.where(replay.random((4, 3)) < 0.5, 1.0, -1.0)
        assert np.array_equal(candidates, X + 0.5 * signs * magnitudes)
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

    def test_batch_draw_order_factors_then_gates(self):
        problem = unit_box(3, lo=-10.0, hi=10.0)
        params = AlgorithmParams(alpha=1.0, stop=budget(100))
        rng = np.random.default_rng(5)
        X_i, X_j, X_k = (rng.uniform(-10.0, 10.0, (4, 3)) for _ in range(3))
        candidates = local_walk(X_i, X_j, X_k, problem, params, rng)
        replay = np.random.default_rng(5)
        for _ in range(3):
            replay.uniform(-10.0, 10.0, (4, 3))
        s = replay.random(4)
        gate = replay.random((4, 3)) < 0.25
        expected = np.clip(X_i + s[:, None] * gate * (X_j - X_k), -10.0, 10.0)
        assert np.array_equal(candidates, expected)
        assert rng.random() == replay.random()

    def test_dimension_mismatch(self):
        problem = unit_box(3)
        params = AlgorithmParams(stop=budget(100))
        with pytest.raises(ValueError):
            local_walk(np.zeros(3), np.zeros(2), np.zeros(3), problem, params, np.random.default_rng(0))
        with pytest.raises(ValueError):
            local_walk(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)), problem, params,
                       np.random.default_rng(0))


class TestSelectionAndPartners:
    def test_greedy_select(self):
        # candidates 0, 2, 3 bid for slot 1 (2 and 3 tie), 1 for slot 0, 4 for slot 2
        targets = np.array([1, 0, 1, 1, 2])
        values = np.array([5.0, 9.0, 4.0, 4.0, 3.0])
        assert winning_bids(targets, values).tolist() == [1, 2, 4]  # ties: lowest index
        pop = Population(
            X=np.zeros((3, 1)),
            F=np.array([9.0, 6.0, 3.0]),
            feasible=np.zeros(3, dtype=bool),
            best_position=np.zeros(1),
            best_objective=3.0,
            best_feasible=False,
            evaluations=3,
        )
        won = winning_bids(targets, values)
        candidates = np.arange(5.0)[:, None] + 10.0
        pop.replace(targets[won], candidates[won], values[won], np.ones(5, dtype=bool)[won])
        # slot 0 ties and keeps its nest; slot 1 takes candidate 2; slot 2 ties too
        assert pop.X[:, 0].tolist() == [0.0, 12.0, 0.0]
        assert pop.F.tolist() == [9.0, 4.0, 3.0]
        assert pop.feasible.tolist() == [False, True, False]
        pop.record_best()
        assert pop.best_objective == 3.0  # a tie does not replace the record

    def test_partners_valid(self):
        rng = np.random.default_rng(0)
        j, k = partner_pairs(6, 2000, rng)
        assert np.all((0 <= j) & (j < 6) & (0 <= k) & (k < 6) & (j != k))

    def test_partners_uniform_over_ordered_pairs(self):
        rng = np.random.default_rng(1)
        n, draws = 5, 40_000
        counts = np.zeros((n, n))
        j, k = partner_pairs(n, draws, rng)
        np.add.at(counts, (j, k), 1)
        observed = counts[~np.eye(n, dtype=bool)]
        result = stats.chisquare(observed)
        assert result.pvalue > 1e-3

    def test_partners_two_nests(self):
        rng = np.random.default_rng(2)
        j, k = partner_pairs(2, 50, rng)
        assert set(zip(j.tolist(), k.tolist())) == {(0, 1), (1, 0)}

    def test_partner_draw_order(self):
        # one block of 2m uniforms: j = floor(u * n) from the first m, then
        # k = floor(u * (n - 1)) from the last m, shifted up where it reaches j
        rng = np.random.default_rng(3)
        j, k = partner_pairs(7, 9, rng)
        replay = np.random.default_rng(3)
        u = replay.random(18)
        expected_j = np.floor(u[:9] * 7)
        expected_k = np.floor(u[9:] * 6)
        assert np.array_equal(j, expected_j)
        assert np.array_equal(k, expected_k + (expected_k >= expected_j))
        assert rng.random() == replay.random()

    def test_largest_uniform_floors_below_n(self):
        # rng.random() < 1; even its largest value, times n, floors to n - 1
        n = np.arange(2, 10**6 + 1)
        assert np.array_equal(np.floor(np.nextafter(1.0, 0.0) * n), n - 1)

    def test_defenders_uniform(self, monkeypatch):
        n, seen = 5, []

        def recording(targets, values):
            seen.append(targets.copy())
            return winning_bids(targets, values)

        monkeypatch.setattr(core, "winning_bids", recording)
        cuckoo_search(get_problem("sphere", 2), AlgorithmParams(n=n, stop=budget(40_000)), seed=0)
        defenders = np.concatenate(seen)
        assert len(defenders) > 15_000
        result = stats.chisquare(np.bincount(defenders, minlength=n))
        assert result.pvalue > 1e-3


class TestUniformStream:
    @given(
        block=st.integers(1, 40),
        sizes=st.lists(
            st.one_of(st.integers(0, 90), st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)),
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # sizes 0, inside a block, across a block boundary, larger than a block
    @example(block=6, sizes=[0, 4, 5, 20, (2, 3), (0, 4), 1, (2, 2, 5)], seed=1)
    @settings(max_examples=200, deadline=None)
    def test_serves_what_the_generator_draws(self, block, sizes, seed):
        stream = core._UniformStream(np.random.default_rng(seed), block)
        rng = np.random.default_rng(seed)
        for size in sizes:
            got, want = stream.random(size), rng.random(size)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @given(
        block=st.integers(1, 40),
        sizes=st.lists(
            st.one_of(st.integers(0, 90), st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple)),
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 3),
        drop=st.integers(0, 12),
    )
    @example(block=6, sizes=[0, 4, 5, 20, (2, 3), (0, 4), 1, (2, 2, 5)], seed=1, trials=3, drop=3)
    @settings(max_examples=200, deadline=None)
    def test_stacked_stream_serves_each_generator(self, block, sizes, seed, trials, drop):
        # row t of every request is what generator t alone draws; after the
        # first trial leaves at request ``drop``, the others read on unchanged
        seeds = [seed + t for t in range(trials)]
        stream = core._StackedStream([np.random.default_rng(s) for s in seeds], block)
        rngs = [np.random.default_rng(s) for s in seeds]
        for i, size in enumerate(sizes):
            if i == drop and len(rngs) > 1:
                stream.keep(np.arange(len(rngs)) > 0)
                rngs = rngs[1:]
            got = stream.random(size)
            assert got.shape == (len(rngs),) + (size if isinstance(size, tuple) else (size,))
            for row, rng in zip(got, rngs):
                assert row.tobytes() == rng.random(size).tobytes()


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
        before_X, before_F = pop.X.copy(), pop.F.copy()
        worst_two = sorted(range(8), key=lambda i: before_F[i])[-2:]
        best_before = (pop.best_position.copy(), pop.best_objective)

        abandon(pop, problem, abandonment_count(params.p_a, 8), rng)

        changed = [i for i in range(8) if not np.array_equal(pop.X[i], before_X[i])]
        assert sorted(changed) == sorted(worst_two)
        assert pop.evaluations == 8 + 2
        assert pop.best_objective == best_before[1]
        assert np.array_equal(pop.best_position, best_before[0])
        for i in changed:
            assert np.all(pop.X[i] >= problem.lower)
            assert np.all(pop.X[i] <= problem.upper)
            assert (pop.F[i], pop.feasible[i]) == evaluate(problem, pop.X[i])

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
        before = pop.X.copy()
        best_before = (pop.best_position.copy(), pop.best_objective)

        abandon(pop, problem, abandonment_count(p_a, n), rng)

        expected = math.ceil(Fraction(str(p_a)) * n)
        changed = sum(not np.array_equal(pop.X[i], before[i]) for i in range(n))
        assert changed == expected
        assert pop.evaluations == n + expected
        assert pop.best_objective == best_before[1]
        assert np.array_equal(pop.best_position, best_before[0])

    def test_zero_fraction_is_noop(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=5, p_a=0.0, stop=budget(10_000))
        rng = np.random.default_rng(6)
        pop = initialize(problem, params, rng)
        abandon(pop, problem, abandonment_count(params.p_a, 5), rng)
        assert pop.evaluations == 5
        # the no-op path consumed nothing from the stream
        replay = np.random.default_rng(6)
        for _ in range(5):
            replay.uniform(problem.lower, problem.upper)
        assert rng.random() == replay.random()

    def test_limit_replaces_only_the_worst(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=8, p_a=0.5, stop=budget(10_000))
        rng = np.random.default_rng(7)
        pop = initialize(problem, params, rng)
        before_X, before_F = pop.X.copy(), pop.F.copy()
        abandon(pop, problem, 3, rng)  # fewer than ceil(p_a * n) = 4
        changed = [i for i in range(8) if not np.array_equal(pop.X[i], before_X[i])]
        assert sorted(changed) == sorted(np.argsort(before_F, kind="stable")[-3:].tolist())
        assert pop.evaluations == 8 + 3


class TestSearchLoop:
    def test_draw_order_first_iteration(self, monkeypatch):
        self.check_first_iteration(monkeypatch, target=None)

    def test_draw_order_first_iteration_with_target(self, monkeypatch):
        # a target the run cannot reach keeps one batch per phase
        self.check_first_iteration(monkeypatch, target=-1.0)

    @staticmethod
    def check_first_iteration(monkeypatch, target):
        # a budget of one whole iteration, rebuilt from a second generator in
        # the documented order: initial block, Levy block, defenders,
        # partners, step factors and gates, abandonment block; without a
        # target the local walk and the fresh nests are scored as one batch
        problem = unit_box(3, lo=-2.0, hi=3.0)
        stop = StopCriterion(max_evaluations=6 + 6 + 6 + 2, target_objective=target)
        params = AlgorithmParams(n=6, alpha=0.5, stop=stop)
        batches = []

        def recording(problem, X, penalty):
            batches.append(X.copy())
            return evaluate(problem, X, penalty)

        monkeypatch.setattr(core, "evaluate", recording)
        result = cuckoo_search(problem, params, seed=4)
        replay = np.random.default_rng(4)
        lower, upper = problem.lower, problem.upper
        initial = lower + 5.0 * replay.random((6, 3))
        X, F = initial.copy(), evaluate(problem, initial)[0]
        magnitudes, signs = replay.random((2, 6, 3))
        step = np.where(signs < 0.5, 1.0, -1.0) * 1e-3 * (1.0 - magnitudes) ** (-1.0 / 1.5)
        candidates = np.clip(X + 0.5 * step, lower, upper)
        bids = evaluate(problem, candidates)[0]
        defenders = np.floor(replay.random(6) * 6).astype(int)
        for slot in set(defenders.tolist()):
            c = min(np.flatnonzero(defenders == slot), key=lambda c: bids[c])
            if bids[c] < F[slot]:
                X[slot], F[slot] = candidates[c], bids[c]
        u = replay.random(12)
        j, k = np.floor(u[:6] * 6).astype(int), np.floor(u[6:] * 5).astype(int)
        k += k >= j
        u = replay.random(6 + 18)
        gate = u[6:].reshape(6, 3) < 0.25
        local = np.clip(X + 0.5 * u[:6, None] * gate * (X[j] - X[k]), lower, upper)
        improved = evaluate(problem, local)[0] < F
        X[improved] = local[improved]
        fresh = lower + 5.0 * replay.random((2, 3))
        if target is None:
            expected = (initial, candidates, np.concatenate((local, fresh)))
        else:
            expected = (initial, candidates, local, fresh)
        assert len(batches) == len(expected)
        for batch, points in zip(batches, expected):
            assert np.array_equal(batch, points)
        assert result.evaluations == 20
        assert result.best_objective == min(evaluate(problem, b)[0].min() for b in batches)

    @given(
        name=st.sampled_from(["sphere", "rosenbrock", "ackley", "rastrigin", "spring_design",
                              "welded_beam", "nan_corner"]),
        n=st.integers(2, 12),
        p_a=st.sampled_from([0.0, 0.25, 1.0]),
        compare_to=st.sampled_from(["random", "parent"]),
        extra=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_unreachable_target_changes_nothing(self, name, n, p_a, compare_to, extra, seed):
        # without a target the local walk and the fresh nests share one
        # evaluate call; with one they take two, and the run must not tell
        if name == "nan_corner":
            problem = Problem("nan_corner", [(0.0, 1.0)] * 2,
                              objective=lambda x: np.where(x[0] > 0.98, np.nan, x[0] + x[1] * x[1]))
        else:
            problem = get_problem(name, 3 if name in ("sphere", "rosenbrock", "ackley", "rastrigin") else None)
        outcomes = []
        for target in (None, -1.0):
            stop = StopCriterion(max_evaluations=n + extra, target_objective=target)
            params = AlgorithmParams(n=n, p_a=p_a, compare_to=compare_to, stop=stop)
            try:
                r = cuckoo_search(problem, params, seed=seed)
            except EvaluationError as exc:
                outcomes.append((str(exc), exc.x.tolist()))
            else:
                outcomes.append((r.best_position.tolist(), r.best_objective, r.best_feasible, r.history,
                                 r.history_evaluations, r.evaluations, r.seed, r.terminated_by))
        assert outcomes[0] == outcomes[1]

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
        # the bound is zero: the phase that reaches the budget is cut to it
        problem = get_problem("ackley", 3)
        for max_evals in (26, 30, 57, 77, 150, 999):
            params = AlgorithmParams(stop=budget(max_evals))
            result = cuckoo_search(problem, params, seed=1)
            assert result.evaluations == max_evals
            assert result.history_evaluations[-1] == max_evals
            assert result.terminated_by == "max_evaluations"
        # the initial population is evaluated whole, whatever the budget
        result = cuckoo_search(problem, AlgorithmParams(stop=budget(10)), seed=1)
        assert result.evaluations == 25 and len(result.history) == 1

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
        flat = Problem("flat", [(0.0, 1.0)] * 3, objective=lambda x: 1.0 + 0.0 * x[0])
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
        self.check_accounting(StopCriterion(max_evaluations=700), "max_evaluations", 2)

    @pytest.mark.parametrize(
        "stop, terminated_by, per_iteration",
        [
            (StopCriterion(max_evaluations=700, target_objective=-1.0), "max_evaluations", 3),
            (StopCriterion(max_evaluations=100_000, target_objective=1e-3), "target", 3),
            (StopCriterion(max_evaluations=100_000, stagnation_window=5), "stagnation", 2),
        ],
        ids=["unreached-target", "target", "stagnation"],
    )
    def test_evaluation_accounting_other_stops(self, stop, terminated_by, per_iteration):
        self.check_accounting(stop, terminated_by, per_iteration)

    @staticmethod
    def check_accounting(stop, terminated_by, per_iteration):
        problem = get_problem("sphere", 4)
        calls = {"calls": 0, "points": 0}
        # a flat objective never improves, so only it can stagnate
        inner = (lambda x: 1.0 + 0.0 * x[0]) if stop.stagnation_window else problem.objective

        def counting(x):
            calls["calls"] += 1
            calls["points"] += x.shape[1]
            return inner(x)

        counted = Problem(problem.name, problem.bounds, counting)
        result = cuckoo_search(counted, AlgorithmParams(stop=stop), seed=0)
        assert result.terminated_by == terminated_by
        assert calls["points"] == result.evaluations
        if terminated_by == "max_evaluations":
            assert result.evaluations == 700
        # one batch for the initial population, then one per phase, with the
        # local walk and abandonment sharing one when no target is set; the
        # last iteration may stop after any of its phases
        iterations = len(result.history) - 1
        assert 1 + per_iteration * (iterations - 1) < calls["calls"] <= 1 + per_iteration * iterations

    def test_each_constraint_runs_once_per_batch(self):
        problem = get_problem("welded_beam")
        calls = {}

        def counted(key, fn):
            calls[key] = 0

            def wrapper(x):
                assert x.ndim == 2
                calls[key] += 1
                return fn(x)

            return wrapper

        constraints = tuple(
            counted(i, g) for i, g in enumerate(problem.inequality_constraints)
        )
        wrapped = Problem(
            problem.name,
            problem.bounds,
            counted("objective", problem.objective),
            inequality_constraints=constraints,
        )
        cuckoo_search(wrapped, AlgorithmParams(stop=budget(700)), seed=0)
        assert calls["objective"] > 1
        assert [calls[i] for i in range(7)] == [calls["objective"]] * 7

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


def outcome(result):
    """Every field of a RunResult, the position as bytes."""
    return (result.best_position.tobytes(), result.best_objective, result.best_feasible,
            result.history, result.history_evaluations, result.evaluations, result.seed,
            result.terminated_by)


class TestStack:
    @given(
        name=st.sampled_from(["sphere", "rastrigin", "spring_design", "welded_beam"]),
        n=st.integers(2, 12),
        p_a=st.sampled_from([0.0, 0.25, 1.0]),
        compare_to=st.sampled_from(["random", "parent"]),
        extra=st.integers(1, 600),
        target=st.sampled_from([None, 1.0, 20.0]),
        window=st.sampled_from([None, 1, 3]),
        seeds=st.sampled_from([1, 2, 5]).flatmap(
            lambda T: st.lists(st.integers(0, 2**32 - 1), min_size=T, max_size=T, unique=True)
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_trial_ends_as_it_would_alone(self, name, n, p_a, compare_to, extra, target, window, seeds):
        # budgets of n + extra cut phases part-way; targets and windows stop
        # trials at different iterations, and they leave the stack there
        problem = get_problem(name, 3 if name in ("sphere", "rastrigin") else None)
        stop = StopCriterion(max_evaluations=n + extra, target_objective=target, stagnation_window=window)
        params = AlgorithmParams(n=n, p_a=p_a, compare_to=compare_to, stop=stop)
        stacked = cuckoo_search(problem, params, seed=seeds)
        assert [outcome(r) for r in stacked] == [outcome(cuckoo_search(problem, params, seed=s)) for s in seeds]

    def test_trials_leave_the_stack_at_different_iterations(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=5, alpha=0.5, stop=StopCriterion(600, 0.01, 3))
        stacked = cuckoo_search(problem, params, seed=range(5))
        assert [(r.terminated_by, r.evaluations) for r in stacked] == [
            ("stagnation", 149), ("stagnation", 377), ("target", 507), ("stagnation", 269),
            ("max_evaluations", 600),
        ]
        assert [outcome(r) for r in stacked] == [outcome(cuckoo_search(problem, params, seed=s)) for s in range(5)]

    def test_one_seed_or_several(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(stop=budget(200))
        one = cuckoo_search(problem, params, seed=np.int64(3))
        assert isinstance(one, core.RunResult) and one.seed == 3
        assert [outcome(r) for r in cuckoo_search(problem, params, seed=[3])] == [outcome(one)]
        assert cuckoo_search(problem, params, seed=[]) == []
        # None draws fresh entropy, as numpy's default_rng(None) does
        fresh = cuckoo_search(problem, params, seed=None)
        assert isinstance(fresh, core.RunResult) and fresh.seed is None and fresh.evaluations == 200
        with pytest.raises(TypeError, match="seed must be an integer or a sequence of integers"):
            cuckoo_search(problem, params, seed=2.5)
