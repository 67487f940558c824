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


def skewed_box():
    """A box whose three coordinates have bounds of their own, least at its corner (0, 0, 3)."""
    return Problem("skewed box", [(-0.5, 2.0), (0.0, 1.0), (3.0, 4.0)], objective=lambda x: np.sum(x * x, axis=0))


def trio():
    """A stack of one trial of three nests at the origin, valued 4, 6 and 8, none feasible."""
    return Population(X=np.zeros((3, 2)), F=np.array([4.0, 6.0, 8.0]), feasible=np.zeros(3, dtype=bool),
                      best_position=np.zeros((1, 2)), best_objective=np.array([4.0]),
                      best_feasible=np.zeros(1, dtype=bool), evaluations=3)


def abandon(pop, problem, count, rng):
    """Abandon the worst ``count`` nests for fresh ones, drawn and scored as cuckoo_search does."""
    X = problem.lower + problem.width * rng.random((count, problem.dimension))
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
        pop = initialize(problem, params, [np.random.default_rng(0)])
        assert pop.X.shape == (3, 2) and pop.F.shape == pop.feasible.shape == (3,)
        assert pop.evaluations == 3
        assert np.all(pop.X >= 0.0) and np.all(pop.X <= 1.0)
        for x, value, feasible in zip(pop.X, pop.F, pop.feasible):
            assert (value, feasible) == evaluate(problem, x)
        # a list of one generator starts a stack of one trial
        assert pop.best_position.shape == (1, 2) and pop.best_objective.shape == pop.best_feasible.shape == (1,)
        assert pop.best_objective[0] == pop.F.min()
        assert np.array_equal(pop.best_position[0], pop.X[np.argmin(pop.F)])
        # the record is a copy, not a view into the population
        assert not np.shares_memory(pop.best_position, pop.X)

    def test_draw_order_one_block_per_nest(self):
        problem = unit_box(4, lo=-2.0, hi=3.0)
        params = AlgorithmParams(n=3, stop=budget(100))
        pop = initialize(problem, params, [np.random.default_rng(8)])
        replay = np.random.default_rng(8)
        for x in pop.X:
            assert np.array_equal(x, replay.uniform(problem.lower, problem.upper))

    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4), n=st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_a_stack_starts_each_trial_as_alone(self, seeds, n):
        problem = get_problem("ackley", 3)
        params = AlgorithmParams(n=n, stop=budget(100))
        stack = initialize(problem, params, [np.random.default_rng(s) for s in seeds])
        assert stack.best_position.shape == (len(seeds), 3) and stack.evaluations == n
        for t, seed in enumerate(seeds):
            alone = initialize(problem, params, [np.random.default_rng(seed)])
            rows = slice(t * n, t * n + n)
            assert stack.X[rows].tobytes() == alone.X.tobytes() and stack.F[rows].tobytes() == alone.F.tobytes()
            assert stack.feasible[rows].tolist() == alone.feasible.tolist()
            assert stack.best_position[t].tobytes() == alone.best_position.tobytes()
            assert (stack.best_objective[t], stack.best_feasible[t]) == (*alone.best_objective, *alone.best_feasible)


class TestGlobalWalk:
    def test_replay_frozen(self):
        problem = unit_box(1, lo=-1.0, hi=1.0)
        params = AlgorithmParams(alpha=0.1, stop=budget(100))
        x, scale = np.array([[0.5]]), step_scale(problem, params)
        for seed, expected in ((7, 0.4998076674135267), (11, 0.5001096087090473), (42, 0.5002694871571326)):
            candidate = x + global_walk(np.random.default_rng(seed).random((2, 1, 1)), params, scale)
            assert candidate[0, 0] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 4])
    def test_draws_magnitudes_then_signs(self, m):
        params = AlgorithmParams(alpha=0.5, stop=budget(100))
        u = np.random.default_rng(22).random((2, m, 3))
        replay = np.random.default_rng(22)
        magnitudes = 1e-3 * (1.0 - replay.random((m, 3))) ** (-1.0 / 1.5)
        signs = np.where(replay.random((m, 3)) < 0.5, 1.0, -1.0)
        assert np.array_equal(global_walk(u, params, np.full(3, 0.5)), 0.5 * signs * magnitudes)
        # B blocks at once give each block's steps
        blocks = np.stack([u, u[::-1]])
        assert np.array_equal(global_walk(blocks, params, np.full(3, 0.5)),
                              [global_walk(b, params, np.full(3, 0.5)) for b in blocks])

    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 50.0), compare_to=st.sampled_from(["random", "parent"]))
    @settings(max_examples=40, deadline=None)
    def test_stays_in_bounds(self, seed, alpha, compare_to):
        # every candidate the loop scores, of either walk, is clamped to its coordinates' bounds
        problem = skewed_box()
        params = AlgorithmParams(n=4, alpha=alpha, p_a=1.0, compare_to=compare_to, stop=budget(100))
        batches = []

        def recording(problem, X, penalty):
            batches.append(X.copy())
            return evaluate(problem, X, penalty)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "evaluate", recording)
            cuckoo_search(problem, params, seed=seed)
        points = np.concatenate(batches)
        assert len(points) == 100 and np.all(points >= problem.lower) and np.all(points <= problem.upper)

    def test_a_stack_stays_in_each_coordinates_bounds(self, monkeypatch):
        # a stack of 3 whose first two trials leave inside a block of 12 iterations, by
        # target and by window, and whose last trial's budget cuts its 13th iteration's
        # global walk to g = 2 of n = 4: every point scored lies within its own
        # coordinate's bounds, and the clamps put points on both bounds of each coordinate
        problem, scored = skewed_box(), []

        def recording(problem, X, penalty):
            scored.append(X.copy())
            return evaluate(problem, X, penalty)

        monkeypatch.setattr(core, "evaluate", recording)
        stop = StopCriterion(4 + 12 * 12 + 2, target_objective=9.05, stagnation_window=4)
        results = cuckoo_search(problem, AlgorithmParams(n=4, alpha=5.0, p_a=1.0, stop=stop), seed=[3, 1, 0])
        assert [(r.terminated_by, (r.evaluations - 4) // 12) for r in results] == [
            ("target", 5), ("stagnation", 9), ("max_evaluations", 12)
        ]
        assert scored[-1].shape == (2, 3)  # the cut global walk of the trial left
        points = np.concatenate(scored)
        assert len(points) == 3 * 4 + sum(r.evaluations - 4 for r in results)
        assert np.all(points >= problem.lower) and np.all(points <= problem.upper)
        assert np.all((points == problem.lower).any(axis=0)) and np.all((points == problem.upper).any(axis=0))


def local_candidates(x_i, x_j, x_k, params, rng, scale):
    """What the loop proposes from nests x_i with partners x_j and x_k, each (m, d), drawing from ``rng``."""
    m, d = x_i.shape
    return x_i + local_walk(rng.random(m * (d + 1)), params, scale) * (x_j - x_k)


class TestLocalWalk:
    @pytest.mark.parametrize("m", [1, 4])
    def test_draw_order_factors_then_gates(self, m):
        problem = unit_box(3, lo=-10.0, hi=10.0)
        params = AlgorithmParams(alpha=1.0, stop=budget(100))
        rng = np.random.default_rng(5)
        X_i, X_j, X_k = (rng.uniform(-10.0, 10.0, (m, 3)) for _ in range(3))
        candidates = local_candidates(X_i, X_j, X_k, params, rng, step_scale(problem, params))
        replay = np.random.default_rng(5)
        for _ in range(3):
            replay.uniform(-10.0, 10.0, (m, 3))
        s = replay.random(m)
        gate = replay.random((m, 3)) < 0.25
        assert np.array_equal(candidates, X_i + s[:, None] * gate * (X_j - X_k))
        assert rng.random() == replay.random()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_identity_when_gate_closed(self, seed):
        problem = unit_box(4, lo=-5.0, hi=5.0)
        params = AlgorithmParams(p_a=0.0, stop=budget(100))
        rng = np.random.default_rng(seed)
        x_i, x_j, x_k = (rng.uniform(-5.0, 5.0, (1, 4)) for _ in range(3))
        assert np.array_equal(local_candidates(x_i, x_j, x_k, params, rng, step_scale(problem, params)), x_i)

    @given(seed=st.integers(0, 2**32 - 1), p_a=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_identity_when_partners_match(self, seed, p_a):
        problem = unit_box(3, lo=-5.0, hi=5.0)
        params = AlgorithmParams(p_a=p_a, stop=budget(100))
        rng = np.random.default_rng(seed)
        x_i, x_j = (rng.uniform(-5.0, 5.0, (1, 3)) for _ in range(2))
        scale = step_scale(problem, params)
        assert np.array_equal(local_candidates(x_i, x_j, x_j.copy(), params, rng, scale), x_i)

    def test_open_gate_moves_only_differing_components(self):
        problem = unit_box(4, lo=-5.0, hi=5.0)
        params = AlgorithmParams(p_a=1.0, stop=budget(100))
        x_i = np.zeros((1, 4))
        x_j = np.array([[1.0, 0.0, 2.0, 0.0]])
        x_k = np.array([[0.5, 0.0, 2.0, -3.0]])  # differs in components 0 and 3
        scale = step_scale(problem, params)
        for seed in range(25):
            candidate = local_candidates(x_i, x_j, x_k, params, np.random.default_rng(seed), scale)
            moved = candidate != x_i
            assert moved.tolist() == [[True, False, False, True]]

    def test_dimension_mismatch(self):
        # the uniforms are m step factors and m * d gates: m * (d + 1) per row, d the length of scale
        params = AlgorithmParams(stop=budget(100))
        scale, u = np.ones(3), np.random.default_rng(0).random((2, 12))
        assert local_walk(u, params, scale).shape == (2, 3, 3)
        for width in (3, 5, 11):
            with pytest.raises(ValueError, match="m \\* \\(d \\+ 1\\)"):
                local_walk(u[:, :width], params, scale)


class TestSelectionAndPartners:
    def test_greedy_select(self):
        # candidates 0, 2, 3 bid for slot 1 (2 and 3 tie), 1 for slot 0, 4 for slot 2
        targets = np.array([1, 0, 1, 1, 2])
        values = np.array([5.0, 9.0, 4.0, 4.0, 3.0])
        assert winning_bids(targets, values).tolist() == [1, 2, 4]  # ties: lowest index
        pop = Population(  # a stack of one trial, whose records are arrays
            X=np.zeros((3, 1)),
            F=np.array([9.0, 6.0, 3.0]),
            feasible=np.zeros(3, dtype=bool),
            best_position=np.full((1, 1), -1.0),
            best_objective=np.array([3.0]),
            best_feasible=np.zeros(1, dtype=bool),
            evaluations=3,
        )
        won = winning_bids(targets, values)
        candidates = np.arange(5.0)[:, None] + 10.0
        pop.replace(targets, candidates, values, np.ones(5, dtype=bool), won)
        # slot 0 ties and keeps its nest; slot 1 takes candidate 2; slot 2 ties too
        assert pop.X[:, 0].tolist() == [0.0, 12.0, 0.0]
        assert pop.F.tolist() == [9.0, 4.0, 3.0]
        assert pop.feasible.tolist() == [False, True, False]
        pop.record()  # the loop's record rule
        # a tie does not replace the record
        assert pop.best_objective.tolist() == [3.0] and pop.best_position.tolist() == [[-1.0]]

    def test_replace_keeps_each_slots_winning_bid(self):
        # the global walk's call: candidates 1 and 3 bid the same value for slot 2, as two
        # candidates clamped to one corner do, and the lower index is kept; candidate 0
        # ties slot 0's nest, which stays; candidate 2 loses slot 2 to them
        pop = trio()
        targets, values = np.array([0, 2, 2, 2]), np.array([4.0, 1.0, 3.0, 1.0])
        candidates = np.arange(8.0).reshape(4, 2) + 10.0  # distinct rows, to show which is kept
        won = winning_bids(targets, values)
        assert won.tolist() == [0, 1]
        pop.replace(targets, candidates, values, np.array([True, True, True, False]), won)
        assert pop.X.tolist() == [[0.0, 0.0], [0.0, 0.0], [12.0, 13.0]]
        assert pop.F.tolist() == [4.0, 6.0, 1.0] and pop.feasible.tolist() == [False, False, True]

    @given(targets=st.lists(st.integers(0, 2), min_size=1, max_size=9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_replace_with_the_winners_indices_writes_what_their_rows_write(self, targets, seed):
        # values of four levels tie often, with each other and with the nests; the
        # local walk's call, every candidate a bidder, keeps the rule slot by slot
        rng = np.random.default_rng(seed)
        targets = np.array(targets)
        candidates = rng.random((len(targets), 2))
        values, feasible = rng.integers(3, 7, len(targets)).astype(float), rng.random(len(targets)) < 0.5
        won = winning_bids(targets, values)
        by_index, by_rows, by_slot = trio(), trio(), trio()
        by_index.replace(targets, candidates, values, feasible, won)
        by_rows.replace(targets[won], candidates[won], values[won], feasible[won])
        for c in won.tolist():
            if values[c] < by_slot.F[targets[c]]:
                slot = targets[c]
                by_slot.X[slot], by_slot.F[slot], by_slot.feasible[slot] = candidates[c], values[c], feasible[c]
        for pop in (by_index, by_rows):
            assert pop.X.tobytes() == by_slot.X.tobytes() and pop.F.tobytes() == by_slot.F.tobytes()
            assert pop.feasible.tolist() == by_slot.feasible.tolist()

    def test_partners_valid(self):
        rng = np.random.default_rng(0)
        j, k = partner_pairs(6, rng.random((2, 2000)))
        assert np.all((0 <= j) & (j < 6) & (0 <= k) & (k < 6) & (j != k))

    def test_partners_uniform_over_ordered_pairs(self):
        rng = np.random.default_rng(1)
        n, draws = 5, 40_000
        counts = np.zeros((n, n))
        j, k = partner_pairs(n, rng.random((2, draws)))
        np.add.at(counts, (j, k), 1)
        observed = counts[~np.eye(n, dtype=bool)]
        result = stats.chisquare(observed)
        assert result.pvalue > 1e-3

    def test_partners_two_nests(self):
        rng = np.random.default_rng(2)
        j, k = partner_pairs(2, rng.random((2, 50)))
        assert set(zip(j.tolist(), k.tolist())) == {(0, 1), (1, 0)}

    def test_partner_draw_order(self):
        # a block of 2m uniforms: j = floor(u * n) from the first m, then
        # k = floor(u * (n - 1)) from the last m, shifted up where it reaches j
        u = np.random.default_rng(3).random(18)
        j, k = partner_pairs(7, u.reshape(2, 9))
        expected_j = np.floor(u[:9] * 7)
        expected_k = np.floor(u[9:] * 6)
        assert np.array_equal(j, expected_j)
        assert np.array_equal(k, expected_k + (expected_k >= expected_j))
        # (..., 2, m) blocks give each block's pairs
        blocks = np.random.default_rng(4).random((3, 2, 2, 9))
        pairs = partner_pairs(7, blocks)
        assert pairs.shape == (3, 2, 2, 9)
        assert all(np.array_equal(pairs[a, b], partner_pairs(7, blocks[a, b])) for a in range(3) for b in range(2))

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
        sizes=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 40)), max_size=12),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 3),
        drop=st.integers(0, 12),
    )
    # empty requests, one iteration and several; one generator, then three
    @example(sizes=[(1, 0), (1, 4), (3, 5), (2, 20), (4, 0), (1, 1), (5, 7)], seed=1, trials=1, drop=12)
    @example(sizes=[(1, 0), (1, 4), (3, 5), (2, 20), (4, 0), (1, 1), (5, 7)], seed=1, trials=3, drop=3)
    @settings(max_examples=200, deadline=None)
    def test_stacked_stream_serves_each_generator(self, sizes, seed, trials, drop):
        # a stack's blocks of K iterations' uniforms: [k, t] of every block is
        # what generator t alone draws next; after the first trial leaves at
        # request ``drop``, the others read on unchanged
        seeds = [seed + t for t in range(trials)]
        stack = [np.random.default_rng(s) for s in seeds]
        rngs = [np.random.default_rng(s) for s in seeds]
        for i, (K, count) in enumerate(sizes):
            if i == drop and len(rngs) > 1:
                stack, rngs = stack[1:], rngs[1:]
            got = core._uniforms(stack, K, count)
            assert got.shape == (K, len(rngs), count) and got.flags.c_contiguous
            for t, rng in enumerate(rngs):
                assert got[:, t].tobytes() == rng.random((K, count)).tobytes()


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
        pop = initialize(problem, params, [rng])
        before_X, before_F = pop.X.copy(), pop.F.copy()
        worst_two = sorted(range(8), key=lambda i: before_F[i])[-2:]
        best_before = (pop.best_position.copy(), pop.best_objective.copy())

        abandon(pop, problem, abandonment_count(params.p_a, 8), rng)

        changed = [i for i in range(8) if not np.array_equal(pop.X[i], before_X[i])]
        assert sorted(changed) == sorted(worst_two)
        assert pop.evaluations == 8 + 2
        assert pop.best_objective[0] == best_before[1][0]
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
        pop = initialize(problem, params, [rng])
        before = pop.X.copy()
        best_before = (pop.best_position.copy(), pop.best_objective.copy())

        abandon(pop, problem, abandonment_count(p_a, n), rng)

        expected = math.ceil(Fraction(str(p_a)) * n)
        changed = sum(not np.array_equal(pop.X[i], before[i]) for i in range(n))
        assert changed == expected
        assert pop.evaluations == n + expected
        assert pop.best_objective[0] == best_before[1][0]
        assert np.array_equal(pop.best_position, best_before[0])

    @given(
        T=st.integers(1, 4),
        n=st.integers(2, 8),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_stack_abandons_each_trial_as_alone(self, T, n, data, seed):
        # few distinct values, so that ties are broken by slot order
        count = data.draw(st.integers(0, n))
        rng = np.random.default_rng(seed)
        F = rng.integers(0, 3, T * n).astype(float)
        X, fresh = rng.random((T * n, 2)), rng.random((T * count, 2))
        fresh_F = rng.random(T * count)
        records = (np.zeros((T, 2)), np.zeros(T), np.zeros(T, dtype=bool))
        stack = abandon_fraction(Population(X.copy(), F.copy(), F > 0, *records, n), fresh, fresh_F, fresh_F > 0.5)
        assert stack.evaluations == n + count
        for t in range(T):
            rows, new = slice(t * n, t * n + n), slice(t * count, t * count + count)
            alone = Population(X[rows].copy(), F[rows].copy(), F[rows] > 0, *(r[:1] for r in records), n)
            abandon_fraction(alone, fresh[new], fresh_F[new], fresh_F[new] > 0.5)
            assert stack.X[rows].tobytes() == alone.X.tobytes() and stack.F[rows].tobytes() == alone.F.tobytes()
            assert stack.feasible[rows].tolist() == alone.feasible.tolist()

    def test_zero_fraction_is_noop(self):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=5, p_a=0.0, stop=budget(10_000))
        rng = np.random.default_rng(6)
        pop = initialize(problem, params, [rng])
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
        pop = initialize(problem, params, [rng])
        before_X, before_F = pop.X.copy(), pop.F.copy()
        abandon(pop, problem, 3, rng)  # fewer than ceil(p_a * n) = 4
        changed = [i for i in range(8) if not np.array_equal(pop.X[i], before_X[i])]
        assert sorted(changed) == sorted(np.argsort(before_F, kind="stable")[-3:].tolist())
        assert pop.evaluations == 8 + 3


class TestSearchLoop:
    def test_draw_order_first_iteration(self, monkeypatch):
        self.check_first_iteration(monkeypatch, target=None)

    def test_draw_order_first_iteration_with_target(self, monkeypatch):
        # a target the run cannot reach changes neither the draws nor the batches
        self.check_first_iteration(monkeypatch, target=-1.0)

    @staticmethod
    def check_first_iteration(monkeypatch, target):
        # a budget of one whole iteration, rebuilt from a second generator in
        # the documented order: initial block, Levy block, defenders,
        # partners, step factors and gates, abandonment block; the local
        # walk and the fresh nests are scored as one batch
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
        expected = (initial, candidates, np.concatenate((local, fresh)))
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
        # the target is read only at the end of an iteration, so one the run
        # never reaches must change neither its draws nor its batches
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

    def test_gains_of_at_most_1e_12_are_stall_iterations(self):
        creeping = Problem("creeping", [(0.0, 1.0)] * 3, objective=lambda x: 1.0 - 1e-13 * x[0])
        stop = StopCriterion(max_evaluations=100_000, stagnation_window=4)
        result = cuckoo_search(creeping, AlgorithmParams(stop=stop), seed=0)
        assert result.terminated_by == "stagnation"
        assert len(result.history) == 1 + 4
        assert result.best_objective < result.history[0]

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
        self.check_accounting(StopCriterion(max_evaluations=700), "max_evaluations")

    @pytest.mark.parametrize(
        "stop, terminated_by",
        [
            (StopCriterion(max_evaluations=700, target_objective=-1.0), "max_evaluations"),
            (StopCriterion(max_evaluations=100_000, target_objective=1e-3), "target"),
            (StopCriterion(max_evaluations=100_000, stagnation_window=5), "stagnation"),
        ],
        ids=["unreached-target", "target", "stagnation"],
    )
    def test_evaluation_accounting_other_stops(self, stop, terminated_by):
        self.check_accounting(stop, terminated_by)

    @staticmethod
    def check_accounting(stop, terminated_by):
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
        # one batch for the initial population, then two per iteration, the
        # local walk and abandonment sharing one, whatever the stop rule; only
        # the budget can end an iteration after its first
        iterations = len(result.history) - 1
        assert 1 + 2 * (iterations - 1) < calls["calls"] <= 1 + 2 * iterations

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


class TestRecord:
    def test_the_first_least_nest_enters_the_record(self):
        # a stack of two trials: trial 0's two least nests tie, and the lower
        # slot is recorded; trial 1's least nests tie its record, which stays
        pop = Population(
            X=np.arange(16.0).reshape(8, 2),
            F=np.array([5.0, 2.0, 2.0, 7.0, 4.0, 1.0, 6.0, 1.0]),
            feasible=np.array([True, False, True, True, True, True, True, False]),
            best_position=np.full((2, 2), -1.0),
            best_objective=np.array([3.0, 1.0]),
            best_feasible=np.ones(2, dtype=bool),
            evaluations=4,
        )
        pop.record()
        assert pop.best_position.tolist() == [[2.0, 3.0], [-1.0, -1.0]]
        assert pop.best_objective.tolist() == [2.0, 1.0]
        assert pop.best_feasible.tolist() == [False, True]
        pop.X[0], pop.F[0] = -5.0, 2.0  # the next iteration ties the record in a lower slot
        pop.record()
        assert pop.best_position.tolist() == [[2.0, 3.0], [-1.0, -1.0]]

    @pytest.mark.parametrize("p_a", [0.25, 1.0])
    def test_the_record_is_the_least_value_evaluated(self, monkeypatch, p_a):
        # at p_a = 1 the abandonment replaces every nest, so the record is
        # also kept just before it
        seen = []

        def recording(problem, X, penalty):
            F, feasible = evaluate(problem, X, penalty)
            seen.extend(F.tolist())
            return F, feasible

        monkeypatch.setattr(core, "evaluate", recording)
        params = AlgorithmParams(n=6, p_a=p_a, stop=budget(500))
        for seed in range(5):
            seen.clear()
            assert cuckoo_search(get_problem("rastrigin", 3), params, seed=seed).best_objective == min(seen)

    @given(
        dimension=st.integers(1, 4),
        n=st.integers(2, 10),
        p_a=st.sampled_from([0.0, 0.25, 1.0]),
        compare_to=st.sampled_from(["random", "parent"]),
        extra=st.integers(1, 300),
        seeds=st.sampled_from([1, 3]).flatmap(
            lambda T: st.lists(st.integers(0, 2**32 - 1), min_size=T, max_size=T, unique=True)
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_ties_keep_a_consistent_record(self, dimension, n, p_a, compare_to, extra, seeds):
        # floor(4 x) takes a few values, so many nests tie exactly
        problem = Problem("floors", [(0.0, 1.0)] * dimension, objective=lambda x: np.floor(4 * x).sum(axis=0))
        params = AlgorithmParams(n=n, p_a=p_a, compare_to=compare_to, stop=budget(n + extra))
        for seed, result in zip(seeds, cuckoo_search(problem, params, seed=seeds)):
            assert evaluate(problem, result.best_position)[0] == result.best_objective
            assert all(a >= b for a, b in zip(result.history, result.history[1:]))
            assert result.history[-1] == result.best_objective
            assert outcome(result) == outcome(cuckoo_search(problem, params, seed=seed))

    @pytest.mark.parametrize("seed, trials", [(0, 1), ([0, 1, 2], 3)], ids=["one-seed", "stack-of-3"])
    def test_the_loop_calls_the_contract_functions(self, monkeypatch, seed, trials):
        # criteria 3 and 8 and the traced benchmark's abandon_fraction span
        # cover these two functions only while the loop calls them
        # (and both walks keep their winners through Population.replace, the one rule that writes the nests)
        calls = []

        def counting(name, function):
            def wrapper(*args):
                result = function(*args)
                pop = result if name == "initialize" else args[0]
                calls.append((name, np.shape(pop.best_objective)))
                return result
            return wrapper

        for name in ("initialize", "abandon_fraction"):
            monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
        monkeypatch.setattr(core.Population, "replace", counting("replace", core.Population.replace))
        start = [("initialize", (trials,))]
        iteration = [("replace", (trials,))] * 2 + [("abandon_fraction", (trials,))]  # global walk, local walk
        for evaluations, expected in [
            (5 + 3 * 12, start + iteration * 3),  # three whole iterations of 5 + 5 + 2 evaluations
            (5 + 2 * 12 + 5, start + iteration * 2 + [("replace", (trials,))]),  # the last has no local walk
        ]:
            calls.clear()
            params = AlgorithmParams(n=5, p_a=0.25, stop=budget(evaluations))
            cuckoo_search(get_problem("sphere", 2), params, seed=seed)
            assert calls == expected


    @pytest.mark.parametrize("seed, trials", [(0, 1), ([0, 1, 2], 3)], ids=["one-seed", "stack-of-3"])
    def test_the_traced_names_are_called(self, monkeypatch, seed, trials):
        # the benchmark's tracer wraps these module globals: the Levy steps are
        # transformed once per drawn block, the nests scored twice per iteration
        calls = dict.fromkeys(("sample_levy_vector", "evaluate", "abandon_fraction"), 0)

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
        for evaluations, blocks, evaluate_calls, abandonments in [
            (5 + 3 * 12, 1, 1 + 3 * 2, 3),  # three whole iterations of 5 + 5 + 2 evaluations, one block
            (5 + 2 * 12 + 5, 2, 1 + 2 * 2 + 1, 2),  # the last has no local walk, and is a block of its own
        ]:
            calls.update(dict.fromkeys(calls, 0))
            params = AlgorithmParams(n=5, p_a=0.25, stop=budget(evaluations))
            cuckoo_search(get_problem("sphere", 2), params, seed=seed)
            assert calls == {"sample_levy_vector": blocks, "evaluate": evaluate_calls, "abandon_fraction": abandonments}


def record_blocks(monkeypatch):
    """A list to which each uniforms draw of cuckoo_search appends its number of iterations K."""
    blocks, uniforms = [], core._uniforms

    def recording(rngs, K, count):
        blocks.append(K)
        return uniforms(rngs, K, count)

    monkeypatch.setattr(core, "_uniforms", recording)
    return blocks


class TestBlocks:
    @pytest.mark.parametrize("compare_to", ["random", "parent"])
    @pytest.mark.parametrize("p_a", [0.0, 0.25, 1.0])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, p_a, compare_to):
        # K = 1, 2 and BLOCK_ITERATIONS iterations drawn at once give the same
        # results, for stacks of 1, 3 and 7 trials, whether the budget's last
        # iteration cuts the global walk, the local walk, the abandonment or nothing
        problem, n, default = get_problem("rastrigin", 3), 5, core.BLOCK_ITERATIONS
        whole = 2 * n + abandonment_count(p_a, n)
        blocks = record_blocks(monkeypatch)
        for last in sorted({n - 2, n + 2, min(2 * n + 1, whole), whole}):
            params = AlgorithmParams(n=n, p_a=p_a, compare_to=compare_to, stop=budget(n + 6 * whole + last))
            runs = []
            for K in (1, 2, default):
                monkeypatch.setattr(core, "BLOCK_ITERATIONS", K)
                blocks.clear()
                runs.append([outcome(r) for seeds in ([0], [1, 2, 3], list(range(10, 17)))
                             for r in cuckoo_search(problem, params, seed=seeds)])
                assert max(blocks) == min(K, (params.stop.max_evaluations - n) // whole)
            assert runs[0] == runs[1] == runs[2]

    def test_trials_that_leave_mid_block(self, monkeypatch):
        # blocks of 16 iterations: the stack's first five trials stop inside
        # the second (iterations 17-32), the first of them first, by
        # stagnation and by target; the rest of the block is rebuilt each time
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=5, alpha=0.5, stop=StopCriterion(2000, 0.01, 3))
        seeds = [29, 6, 3, 19, 1, 11]
        blocks = record_blocks(monkeypatch)
        stacked = cuckoo_search(problem, params, seed=seeds)
        assert blocks == [1] + [16] * 5  # the initial nests, then iterations 1-80 in blocks of 16
        assert [(r.terminated_by, (r.evaluations - 5) // 12) for r in stacked] == [
            ("stagnation", 18), ("target", 20), ("stagnation", 22), ("target", 23), ("stagnation", 31),
            ("target", 77),
        ]
        assert [outcome(r) for r in stacked] == [outcome(cuckoo_search(problem, params, seed=s)) for s in seeds]

    def test_a_trial_that_leaves_as_its_block_is_used_up(self, monkeypatch):
        # the first trial stops after iteration 16, the last of the first
        # block, so its departure leaves no uniforms and the next block is
        # drawn for two trials; the second then stops inside that block
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(n=5, alpha=0.5, stop=StopCriterion(2000, 0.01, 3))
        seeds = [48, 6, 11]
        blocks = record_blocks(monkeypatch)
        stacked = cuckoo_search(problem, params, seed=seeds)
        assert blocks == [1] + [16] * 5
        assert [(r.terminated_by, (r.evaluations - 5) // 12) for r in stacked] == [
            ("target", 16), ("target", 20), ("target", 77),
        ]
        assert [outcome(r) for r in stacked] == [outcome(cuckoo_search(problem, params, seed=s)) for s in seeds]


def outcome(result):
    """Every field of a RunResult, the position as bytes."""
    return (result.best_position.tobytes(), result.best_objective, result.best_feasible,
            result.history, result.history_evaluations, result.evaluations, result.seed,
            result.terminated_by)


def record_stacks(monkeypatch):
    """A list to which each stack that cuckoo_search runs appends its number of trials."""
    sizes, search = [], core._search

    def recording(problem, params, seeds, penalty):
        sizes.append(len(seeds))
        return search(problem, params, seeds, penalty)

    monkeypatch.setattr(core, "_search", recording)
    return sizes


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
            ("stagnation", 149), ("stagnation", 377), ("target", 509), ("stagnation", 269),
            ("max_evaluations", 600),
        ]
        assert [outcome(r) for r in stacked] == [outcome(cuckoo_search(problem, params, seed=s)) for s in range(5)]

    @pytest.mark.parametrize("max_block", [1, 63], ids=["cap-1", "cap-3"])
    def test_a_seed_list_runs_in_stacks_of_at_most_the_cap(self, monkeypatch, max_block):
        # n = 4 and d = 2 give 16 global-walk uniforms per trial: a cap of
        # max(1, max_block // 16) trials per stack
        problem, cap = get_problem("sphere", 2), max(1, max_block // 16)
        params = AlgorithmParams(n=4, stop=budget(40))
        alone = {s: outcome(cuckoo_search(problem, params, seed=s)) for s in range(2 * cap + 1)}
        monkeypatch.setattr(core, "MAX_BLOCK", max_block)
        sizes = record_stacks(monkeypatch)
        for count in sorted({0, 1, cap, cap + 1, 2 * cap, 2 * cap + 1}):
            sizes.clear()
            stacked = cuckoo_search(problem, params, seed=range(count))
            assert [outcome(r) for r in stacked] == [alone[s] for s in range(count)]
            assert sum(sizes) == count and all(0 < size <= cap for size in sizes)
            assert len(sizes) == -(-count // cap)

    def test_the_cap_follows_n_and_d(self, monkeypatch):
        # 2 * 25 * 100 = 5000 uniforms per trial: 13 trials fill 2**16 values at most
        sizes = record_stacks(monkeypatch)
        results = cuckoo_search(get_problem("sphere", 100), AlgorithmParams(stop=budget(25)), seed=range(27))
        assert sizes == [13, 13, 1] and [r.seed for r in results] == list(range(27))

    def test_one_seed_or_several(self, monkeypatch):
        problem = get_problem("sphere", 2)
        params = AlgorithmParams(stop=budget(200))
        one = cuckoo_search(problem, params, seed=np.int64(3))
        assert isinstance(one, core.RunResult) and one.seed == 3
        assert [outcome(r) for r in cuckoo_search(problem, params, seed=[3])] == [outcome(one)]
        assert cuckoo_search(problem, params, seed=[]) == []
        # None draws fresh entropy, as numpy's default_rng(None) does
        fresh = cuckoo_search(problem, params, seed=None)
        assert isinstance(fresh, core.RunResult) and fresh.seed is None and fresh.evaluations == 200
        # every seed is checked before any trial runs, as check_number checks integers
        monkeypatch.setattr(core, "evaluate", lambda *args: pytest.fail("a trial ran"))
        for seed in (2.5, True, "ab", [True], [[1, 2]], [1, None, 2.0], np.array(3.0)):
            with pytest.raises(TypeError, match="seed must be an integer or a sequence of integers"):
                cuckoo_search(problem, params, seed=seed)

    def test_a_failed_seed_returns_its_own_error(self):
        # NaN near x[0] = 1, which only seed 7 of 3..7 reaches alone; n = 4096 at d = 2 caps a stack at 4 trials
        problem = Problem("nan_edge", [(0.0, 1.0)] * 2,
                          objective=lambda x: np.where(x[0] > 1 - 1e-4, np.nan, x[0] + x[1] * x[1]))
        params = AlgorithmParams(n=4096, stop=budget(12288))
        with pytest.raises(EvaluationError) as raised:  # an integer seed raises
            cuckoo_search(problem, params, seed=7)
        *results, error = cuckoo_search(problem, params, seed=range(3, 8))
        assert [outcome(r) for r in results] == [outcome(cuckoo_search(problem, params, seed=s)) for s in range(3, 7)]
        assert (type(error), str(error)) == (EvaluationError, str(raised.value))
        assert error.x.tolist() == raised.value.x.tolist()
