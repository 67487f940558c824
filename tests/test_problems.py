"""Benchmark corpus: definitions, penalty math, evaluation contract."""

import itertools
import math

import numpy as np
import pytest

from cuckoo.problems import (
    BEST_KNOWN,
    EQ_TOLERANCE,
    FOLD_LIMIT,
    TWO_PI,
    EvaluationError,
    PenaltyConfig,
    Problem,
    corpus,
    evaluate,
    get_problem,
    problem_names,
)

ALL_NAMES = ["sphere", "rosenbrock", "ackley", "rastrigin", "spring_design", "welded_beam"]
SCALABLE = ALL_NAMES[:4]


def _smallest(name: str) -> int:
    """The smallest dimension a scalable function takes."""
    return 2 if name == "rosenbrock" else 1


class TestRegistry:
    def test_names(self):
        assert problem_names() == ALL_NAMES

    def test_corpus_builds(self):
        built = corpus()
        assert [p.name for p in built] == ALL_NAMES

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("parabola")

    def test_scalable_dimensions(self):
        assert get_problem("sphere").dimension == 10
        assert get_problem("sphere", 3).dimension == 3
        assert get_problem("rosenbrock", 2).dimension == 2
        with pytest.raises(ValueError):
            get_problem("rosenbrock", 1)
        with pytest.raises(ValueError):
            get_problem("sphere", 0)
        with pytest.raises(ValueError):
            get_problem("sphere", True)  # a bool is not a dimension

    def test_fixed_dimensions(self):
        assert get_problem("spring_design").dimension == 3
        assert get_problem("spring_design", 3).dimension == 3
        assert get_problem("welded_beam").dimension == 4
        with pytest.raises(ValueError, match="fixed dimension"):
            get_problem("spring_design", 4)
        with pytest.raises(ValueError, match="fixed dimension"):
            get_problem("welded_beam", 4.0)


class TestDefinitions:
    def test_bounds(self):
        assert np.all(get_problem("sphere").bounds == [-5.12, 5.12])
        assert np.all(get_problem("rastrigin").bounds == [-5.12, 5.12])
        assert np.all(get_problem("rosenbrock").bounds == [-5.0, 10.0])
        assert np.all(get_problem("ackley").bounds == [-32.768, 32.768])
        spring = get_problem("spring_design")
        assert spring.bounds.tolist() == [[0.05, 2.0], [0.25, 1.3], [2.0, 15.0]]
        beam = get_problem("welded_beam")
        assert beam.bounds.tolist() == [[0.1, 2.0]] + [[0.1, 10.0]] * 2 + [[0.1, 2.0]]

    def test_known_global_minima(self):
        d = 6
        assert get_problem("sphere", d).objective(np.zeros(d)) == 0.0
        assert get_problem("rosenbrock", d).objective(np.ones(d)) == 0.0
        assert get_problem("rastrigin", d).objective(np.zeros(d)) == 0.0
        assert abs(get_problem("ackley", d).objective(np.zeros(d))) < 1e-12

    def test_hand_checked_values(self):
        assert get_problem("sphere", 3).objective(np.array([1.0, 2.0, 3.0])) == 14.0
        # one rosenbrock term: 100*(0 - 0)^2 + (1 - 0)^2
        assert get_problem("rosenbrock", 2).objective(np.zeros(2)) == 1.0
        # per coordinate at 0.5: 0.25 - 10*cos(pi) = 10.25, plus 10 each
        assert get_problem("rastrigin", 2).objective(np.array([0.5, 0.5])) == pytest.approx(40.5)
        # ackley at (1, 1, 1, 1): rms = 1, cos mean = cos(2 pi) = 1
        expected = -20.0 * math.exp(-0.2) - math.e + 20.0 + math.e
        assert get_problem("ackley", 4).objective(np.ones(4)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_a_point_is_scored_in_python_floats(self, name):
        # the point path's speed: numpy scalars cost several times as much
        if name in BEST_KNOWN:
            problems, points = [get_problem(name)], [BEST_KNOWN[name][0]]
        else:  # below FOLD_LIMIT coordinates, where numpy's sum is a left fold
            problems, points = [get_problem(name, d) for d in range(_smallest(name), FOLD_LIMIT)], []
        rng = np.random.default_rng(3)
        for problem in problems:
            for x in points + [problem.lower, rng.uniform(problem.lower, problem.upper)]:
                for c in (problem.objective,) + problem.inequality_constraints:
                    assert type(c(np.array(x))) is float

    def test_objectives_are_pure(self):
        rng = np.random.default_rng(0)
        for problem in corpus():
            x = rng.uniform(problem.lower, problem.upper)
            values = {evaluate(problem, x)[0] for _ in range(200)}
            assert len(values) == 1


class TestEngineeringDesigns:
    def test_spring_reference_point(self):
        spring = get_problem("spring_design")
        x, reported = BEST_KNOWN["spring_design"]
        value = spring.objective(np.asarray(x))
        assert value == pytest.approx(0.012665084727517349, rel=1e-12)
        assert value == pytest.approx(reported, abs=5e-7)
        # the 6-digit rounding of the published point leaves the shear
        # stress constraint a hair violated; everything else has slack
        gs = [float(g(np.asarray(x))) for g in spring.inequality_constraints]
        assert gs[1] == pytest.approx(2.18e-5, rel=0.05)
        assert gs[0] < 0 and gs[2] < 0 and gs[3] < 0
        assert evaluate(spring, x)[1] is False

    def test_spring_interior_feasible_point(self):
        spring = get_problem("spring_design")
        x = np.array([0.06, 0.42, 13.0])
        # (N + 2) * D * w^2 = 15 * 0.42 * 0.0036
        assert spring.objective(x) == pytest.approx(0.02268, rel=1e-12)
        value, feasible = evaluate(spring, x)
        assert feasible is True
        assert value == spring.objective(x)  # zero penalty when feasible

    def test_welded_beam_reference_point(self):
        beam = get_problem("welded_beam")
        x, reported = BEST_KNOWN["welded_beam"]
        value = beam.objective(np.asarray(x))
        assert value == pytest.approx(1.7248556738155942, rel=1e-12)
        assert value == pytest.approx(reported, abs=5e-6)
        assert all(float(g(np.asarray(x))) <= 0.0 for g in beam.inequality_constraints)
        penalized, feasible = evaluate(beam, x)
        assert feasible is True
        assert penalized == value

    def test_welded_beam_infeasible_point(self):
        beam = get_problem("welded_beam")
        x = np.array([0.125, 0.2, 0.2, 0.125])
        penalized, feasible = evaluate(beam, x)
        assert feasible is False
        assert penalized > beam.objective(x)

    def test_a_zero_denominator_raises_the_same_error_on_both_paths(self):
        # w = D is inside the bounds and zeroes the shear stress's denominator:
        # a point's Python floats raise where the batch's numpy divides to inf
        spring = get_problem("spring_design")
        x = np.array([1.0, 1.0, 5.0])
        with np.errstate(divide="ignore"):
            with pytest.raises(EvaluationError) as point:
                evaluate(spring, x)
            with pytest.raises(EvaluationError) as batch:
                evaluate(spring, x[None])
        message = "non-finite penalized objective (inf) on 'spring_design'"
        assert str(point.value) == str(batch.value) == message
        assert point.value.x.tolist() == batch.value.x.tolist() == x.tolist()


class TestPenalty:
    @staticmethod
    def _toy():
        return Problem(
            "toy",
            bounds=[(-10.0, 10.0), (-10.0, 10.0)],
            objective=lambda x: x[0] * x[0] + x[1] * x[1],
            inequality_constraints=(lambda x: x[0] - 1.0,),
            equality_constraints=(lambda x: x[1],),
        )

    def test_inequality_square_scales_with_weight(self):
        problem = self._toy()
        penalty = PenaltyConfig(penalty_weight=1e3)
        value, feasible = evaluate(problem, [2.0, 0.0], penalty)
        # g = 1 violated by 1, squared, times 1000
        assert value == pytest.approx(4.0 + 1000.0)
        assert feasible is False

    def test_equality_tolerance_band(self):
        problem = self._toy()
        penalty = PenaltyConfig(penalty_weight=1e3)
        value, feasible = evaluate(problem, [0.5, 5e-5], penalty)
        assert feasible is True
        assert value == pytest.approx(0.25 + 25e-10)
        value, feasible = evaluate(problem, [0.5, 2e-4], penalty)
        assert feasible is False
        assert value == pytest.approx(0.25 + 4e-8 + 1e3 * (1e-4) ** 2)

    def test_an_equality_is_held_as_an_inequality(self):
        problem = self._toy()
        assert problem.equality_constraints == () and len(problem.inequality_constraints) == 2
        folded = problem.inequality_constraints[1]
        for x in ([0.5, 5e-5], [0.5, -2e-4]):
            assert folded(np.array(x)) == abs(x[1]) - EQ_TOLERANCE

    def test_feasible_means_exactly_zero_violation(self):
        problem = self._toy()
        _, feasible = evaluate(problem, [1.0 + 1e-9, 0.0])
        assert feasible is False
        _, feasible = evaluate(problem, [1.0, 0.0])  # boundary counts as feasible
        assert feasible is True

    def test_weight_monotonicity(self):
        problem = self._toy()
        x = [3.0, 0.0]
        low, _ = evaluate(problem, x, PenaltyConfig(penalty_weight=1e2))
        high, _ = evaluate(problem, x, PenaltyConfig(penalty_weight=1e6))
        assert high > low
        assert evaluate(problem, x, PenaltyConfig(penalty_weight=1e2))[1] is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PenaltyConfig(penalty_weight=0.0)

    def test_nonfinite_objective_raises(self):
        bad = Problem("bad", [(0.0, 1.0)], objective=lambda x: float("inf"))
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(bad, [0.5])
        assert excinfo.value.x.tolist() == [0.5]
        nan = Problem("nan", [(0.0, 1.0)], objective=lambda x: float("nan"))
        with pytest.raises(EvaluationError):
            evaluate(nan, [0.5])


def _many_constraints() -> Problem:
    """Nine inequality constraints and one equality, all violated, with
    squared violations from ~1 to ~1e16: an unrolled sum of a (10, 1) stack
    rounds differently from adding the terms one after another."""
    scaled = tuple(
        lambda x, i=i: (1.0 + x[i % 3] * i / 8.0) * (1e8 if i == 0 else 1.0)
        for i in range(9)
    )
    return Problem(
        "many_constraints",
        [(0.0, 1.0)] * 3,
        objective=lambda x: x[0] + x[1] * x[2],
        inequality_constraints=scaled,
        equality_constraints=(lambda x: 2.0 + x[1] - x[2],),
    )


def _cells():
    for name in ALL_NAMES:
        if name in ("spring_design", "welded_beam"):
            yield name, None
        else:
            # both sides of FOLD_LIMIT, where a point stops being scored in Python floats
            for dimension in [*range(_smallest(name), 11), 13]:
                yield name, dimension
    yield "many_constraints", None


class TestBatchContract:
    @pytest.mark.parametrize("name, dimension", list(_cells()))
    @pytest.mark.parametrize("m", [1, 7, 25])
    def test_batch_row_matches_point_bit_for_bit(self, name, dimension, m):
        if name == "many_constraints":
            problem = _many_constraints()
        else:
            problem = get_problem(name, dimension)
        rng = np.random.default_rng(m * 1000 + problem.dimension)
        X = rng.uniform(problem.lower, problem.upper, size=(m, problem.dimension))
        self._rows_match_points(problem, X, rng)

    @pytest.mark.parametrize("name", ["spring_design", "welded_beam"])
    def test_design_corners_and_best_known_point_match_bit_for_bit(self, name):
        # the climber clamps its moves to the bounds, so bound values are common
        problem = get_problem(name)
        corners = list(itertools.product(*problem.bounds.tolist()))
        X = np.array(corners + [BEST_KNOWN[name][0].tolist()])
        assert len(X) == 2**problem.dimension + 1
        self._rows_match_points(problem, X, np.random.default_rng(problem.dimension))

    @pytest.mark.parametrize("name", SCALABLE)
    def test_many_points_below_fold_limit_match_their_rows(self, name):
        # a last-bit difference, such as math.exp's from np.exp in Ackley,
        # survives the final rounding in under 1% of points
        for d in range(_smallest(name), FOLD_LIMIT):
            problem = get_problem(name, d)
            X = np.random.default_rng(d).uniform(problem.lower, problem.upper, size=(2000, d))
            rows = problem.objective(X.T).tolist()
            assert [problem.objective(x) for x in X] == rows, d

    @pytest.mark.parametrize("name", SCALABLE)
    def test_a_nonfinite_or_huge_coordinate_scores_as_its_batch_row(self, name):
        # math.cos raises at +-inf where np.cos gives NaN, and Python floats
        # overflow without numpy's warning: a point still ends as its batch row
        def outcome(problem, x):
            try:
                values, feasible = evaluate(problem, x)
            except EvaluationError as error:
                return str(error), error.x.tobytes()
            return float(np.ravel(values)[0]).hex(), bool(np.ravel(feasible)[0])

        with np.errstate(all="ignore"):
            for d in range(_smallest(name), 10):
                problem = get_problem(name, d)
                x = np.random.default_rng(d).uniform(problem.lower, problem.upper)
                for i, special in itertools.product(range(d), (math.inf, -math.inf, math.nan, 1e200)):
                    y = x.copy()
                    y[i] = special
                    assert outcome(problem, y) == outcome(problem, y[None]), (d, i, special)

    @staticmethod
    def _rows_match_points(problem, X, rng):
        m = len(X)
        values, feasible = evaluate(problem, X)
        assert values.shape == feasible.shape == (m,)
        objectives = problem.objective(X.T)
        callables = problem.inequality_constraints + problem.equality_constraints
        constraints = [c(X.T) for c in callables]
        for i in range(m):
            assert (values[i], feasible[i]) == evaluate(problem, X[i])
            assert objectives[i] == problem.objective(X[i])
            for c, batch in zip(callables, constraints):
                assert batch[i] == c(X[i])
        # the rows score the same inside a larger batch, with rows before and after
        extra = rng.uniform(problem.lower, problem.upper, size=(7, problem.dimension))
        wider, wider_feasible = evaluate(problem, np.concatenate((extra, X, extra)))
        assert wider[7 : 7 + m].tobytes() == values.tobytes()
        assert wider_feasible[7 : 7 + m].tolist() == feasible.tolist()

    def test_batch_penalty_terms_match_point(self):
        problem = TestPenalty._toy()
        X = np.array([[2.0, 0.0], [0.5, 5e-5], [0.5, 2e-4], [1.0, 0.0], [3.0, -1.0]])
        penalty = PenaltyConfig(penalty_weight=1e3)
        values, feasible = evaluate(problem, X, penalty)
        for i, x in enumerate(X):
            assert (values[i], feasible[i]) == evaluate(problem, x, penalty)
        assert feasible.tolist() == [False, True, False, True, False]

    def test_tiny_violation_is_infeasible_on_both_paths(self):
        # 1e-200 squares to 0.0, so feasibility must come from the sign of
        # each term, not from the summed squares
        problem = Problem(
            "tiny",
            [(0.0, 1.0)],
            objective=lambda x: x[0],
            inequality_constraints=(lambda x: 1e-200 + 0.0 * x[0],),
        )
        value, feasible = evaluate(problem, np.array([0.5]))
        assert (value, feasible) == (0.5, False)
        values, feasible = evaluate(problem, np.array([[0.5], [0.25]]))
        assert values.tolist() == [0.5, 0.25]
        assert feasible.tolist() == [False, False]

    @pytest.mark.parametrize("constrained", [False, True], ids=["unconstrained", "constrained"])
    def test_a_negative_zero_scores_alike_on_both_paths(self, constrained):
        # without constraints no penalty term is added, so -0.0 stays -0.0 on
        # both paths; with one, both add penalty_weight * 0.0 and give +0.0
        constraints = (lambda x: x[0] - 1.0,) if constrained else ()
        problem = Problem("negzero", [(-1.0, 1.0)], objective=lambda x: -(x[0] * x[0]),
                          inequality_constraints=constraints)
        value, feasible = evaluate(problem, np.array([0.0]))
        values, flags = evaluate(problem, np.array([[0.0]]))
        assert feasible and flags.tolist() == [True]
        assert math.copysign(1.0, value) == math.copysign(1.0, values[0]) == (1.0 if constrained else -1.0)

    def test_nan_constraint_raises_on_both_paths(self):
        # NaN is not <= 0, so it counts as violated and makes the value NaN;
        # -inf is <= 0 and stays satisfied
        problem = Problem(
            "nan_constraint",
            [(0.0, 1.0)],
            objective=lambda x: x[0],
            inequality_constraints=(lambda x: np.where(x[0] > 0.4, np.nan, -np.inf),),
        )
        with pytest.raises(EvaluationError):
            evaluate(problem, np.array([0.5]))
        with pytest.raises(EvaluationError) as excinfo:
            evaluate(problem, np.array([[0.25], [0.5]]))
        assert excinfo.value.x.tolist() == [0.5]
        assert evaluate(problem, np.array([0.25])) == (0.25, True)
        values, feasible = evaluate(problem, np.array([[0.25], [0.125]]))
        assert values.tolist() == [0.25, 0.125]
        assert feasible.tolist() == [True, True]

    def test_scalar_result_for_a_batch_is_rejected(self):
        # a scalar must never be broadcast over the batch
        scalar = Problem("scalar", [(0.0, 1.0)] * 2, objective=lambda x: float(np.sum(x * x)))
        with pytest.raises(ValueError, match="shape"):
            evaluate(scalar, np.full((3, 2), 0.5))
        rows = Problem("rows", [(0.0, 1.0)] * 2, objective=lambda x: x)  # (d, m), not (m,)
        with pytest.raises(ValueError, match="shape"):
            evaluate(rows, np.full((3, 2), 0.5))
        constant = Problem(
            "constant",
            [(0.0, 1.0)] * 2,
            objective=lambda x: x[0],
            inequality_constraints=(lambda x: -1.0,),
        )
        with pytest.raises(ValueError, match="shape"):
            evaluate(constant, np.full((3, 2), 0.5))

    def test_an_array_for_a_point_is_rejected_on_both_paths(self):
        # x * x serves neither shape: (d,) for a point, (d, m) for a batch
        squares = Problem("squares", [(0.0, 1.0)] * 3, objective=lambda x: x * x)
        with pytest.raises(ValueError, match=r"^a callable of 'squares' returned shape \(3,\) where \(\) was due"):
            evaluate(squares, np.full(3, 0.5))
        with pytest.raises(ValueError, match=r"^a callable of 'squares' returned shape \(3, 2\) where \(2,\) was due"):
            evaluate(squares, np.full((2, 3), 0.5))
        # the first callable that returns an array is named, here a constraint
        rows = Problem("rows", [(0.0, 1.0)] * 2, objective=lambda x: x[0], inequality_constraints=(lambda x: x,))
        with pytest.raises(ValueError, match=r"^a callable of 'rows' returned shape \(2,\) where \(\) was due"):
            evaluate(rows, np.full(2, 0.5))
        # a TypeError that a callable raises itself comes out as it was first raised
        raised = []

        def failing(x):
            raised.append(TypeError("from the callable"))
            raise raised[-1]

        for problem in (Problem("failing", [(0.0, 1.0)], objective=failing),
                        Problem("failing", [(0.0, 1.0)], objective=lambda x: x[0], inequality_constraints=(failing,))):
            raised.clear()
            with pytest.raises(TypeError) as excinfo:
                evaluate(problem, np.array([0.5]))
            assert excinfo.value is raised[0]

    def test_ragged_constraint_results_are_rejected_by_name(self):
        # (m,) and (2, m) do not stack: the named shape error, not numpy's inhomogeneous one
        ragged = Problem("ragged", [(0.0, 1.0)] * 2, objective=lambda x: x[0],
                         inequality_constraints=(lambda x: x[0], lambda x: x))
        with pytest.raises(ValueError, match=r"^a callable of 'ragged' returned shape \(2, 3\) where \(3,\) was due"):
            evaluate(ragged, np.full((3, 2), 0.5))

    def test_a_point_that_divides_by_zero_scores_as_its_batch_row(self):
        # a Python float divided by 0.0 raises; the batch of one gives -inf, which is satisfied
        def reciprocal(x):
            x = x.tolist() if x.ndim == 1 else x
            return -1.0 / x[0]

        problem = Problem("reciprocal", [(-1.0, 1.0)], objective=lambda x: x[0] + 0.5,
                          inequality_constraints=(reciprocal,))
        with np.errstate(divide="ignore"):
            value, feasible = evaluate(problem, np.array([0.0]))
            values, flags = evaluate(problem, np.array([[0.0]]))
        assert (value, feasible) == (0.5, True)
        assert type(value) is float and type(feasible) is bool
        assert (value, feasible) == (values[0], flags[0])

    def test_batch_values_are_a_copy(self):
        # without constraints the objective's values are returned as they are
        problem = Problem("first", [(-1.0, 1.0)] * 2, objective=lambda x: x[0])
        X = np.array([[0.5, 0.0], [-0.25, 1.0]])
        values, feasible = evaluate(problem, X)
        assert values.tolist() == [0.5, -0.25] and feasible.tolist() == [True, True]
        assert not np.shares_memory(values, X)

    def test_nonfinite_batch_row_raises(self):
        problem = Problem("pole", [(-1.0, 1.0)], objective=lambda x: 1.0 / x[0])
        with np.errstate(divide="ignore"):
            with pytest.raises(EvaluationError) as excinfo:
                evaluate(problem, np.array([[0.5], [0.0], [0.25]]))
        assert excinfo.value.x.tolist() == [0.0]


class TestPointPathFacts:
    """The numpy behaviour that lets a scalable function score a point below
    FOLD_LIMIT in Python floats exactly as numpy scores its batch row.  Both
    hold on numpy 2.4.6; another build may compute a ufunc or a sum otherwise."""

    def test_math_cos_matches_np_cos_across_every_corpus_box(self):
        rng = np.random.default_rng(11)
        for problem in corpus():
            angles = TWO_PI * rng.uniform(problem.lower.min(), problem.upper.max(), 20000)
            expected = np.cos(angles)
            got = np.array([math.cos(v) for v in angles.tolist()])
            differ = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
            assert differ.size == 0, (
                f"math.cos({angles[differ[0]]!r}) = {got[differ[0]]!r} but np.cos gives"
                f" {expected[differ[0]]!r} on numpy {np.__version__}; scalable points must keep np.cos"
            )

    def test_add_reduce_below_fold_limit_is_a_left_fold_from_zero(self):
        rng = np.random.default_rng(12)
        for n in range(1, FOLD_LIMIT):
            rows = rng.standard_normal((5000, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (5000, n))
            rows[0] = -0.0  # a fold from 0.0 sums negative zeros to +0.0
            for row in rows:
                total = 0.0
                for v in row.tolist():
                    total += v
                assert total.hex() == float(np.add.reduce(row)).hex(), (
                    f"np.add.reduce({row.tolist()}) is not a left fold from 0.0 on numpy {np.__version__};"
                    f" FOLD_LIMIT ({FOLD_LIMIT}) must come down to {n}"
                )


class TestProblemValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            Problem("p", [(0.0, 0.0)], objective=lambda x: 0.0)
        with pytest.raises(ValueError):
            Problem("p", [(1.0, 0.0)], objective=lambda x: 0.0)
        with pytest.raises(ValueError):
            Problem("p", [(0.0, math.inf)], objective=lambda x: 0.0)
        with pytest.raises(ValueError):
            Problem("p", [0.0, 1.0], objective=lambda x: 0.0)

    def test_bounds_are_read_only(self):
        problem = get_problem("sphere", 2)
        for array in (problem.bounds[0], problem.lower, problem.upper, problem.width):
            with pytest.raises(ValueError):
                array[0] = -1.0

    def test_lower_upper_views(self):
        problem = get_problem("rosenbrock", 3)
        assert np.all(problem.lower == -5.0)
        assert np.all(problem.upper == 10.0)
        assert np.all(problem.width == 15.0)
