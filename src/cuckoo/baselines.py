"""Random-restart hill climbing, the comparison baseline.

Shares the problem, penalty, stop-criterion, and result contracts with
the cuckoo search optimizer so the experiment harness can treat both
uniformly.  One evaluation is one iteration here, and history keeps the
evaluations where the best changes, plus the last one: the best-so-far
curve is a step function, so those rows lose nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STAGNATION_EPS, RunResult, StopCriterion
from .problems import DEFAULT_PENALTY, PenaltyConfig, Problem, _is_number, check_number, evaluate

__all__ = ["HillClimbParams", "hill_climb_restart"]

MOVE_BLOCK = 256  # moves per pair of generator calls, instead of two calls (~1 µs) a move


@dataclass(frozen=True)
class HillClimbParams:
    """Settings for the restarting hill climber.

    Each move perturbs one uniformly chosen coordinate by a uniform
    offset within the current per-coordinate step, which starts at
    step_fraction of the bound width and shrinks by shrink_factor after
    every rejected move.  stall_limit consecutive rejections trigger a
    restart from a fresh uniform point with the step reset.
    """

    step_fraction: float = 0.1
    shrink_factor: float = 0.5
    stall_limit: int = 20
    stop: StopCriterion = StopCriterion(max_evaluations=50_000)

    def __post_init__(self) -> None:
        check_number(self, "step_fraction", "(0, 1]")
        check_number(self, "shrink_factor", "(0, 1)")
        check_number(self, "stall_limit", "[1, inf)", integer=True)
        if not isinstance(self.stop, StopCriterion):
            raise TypeError(f"stop must be a StopCriterion, got {self.stop!r}")


def hill_climb_restart(
    problem: Problem,
    params: HillClimbParams = HillClimbParams(),
    seed: int | None = 0,
    penalty: PenaltyConfig = DEFAULT_PENALTY,
) -> RunResult:
    """Run the baseline on ``problem`` until the stop criterion fires.

    Only strict improvements are accepted.  The budget bounds the loop,
    so max_evaluations is never overshot, and :meth:`StopCriterion.reason`
    decides every stop: it is asked after each evaluation that sets a new
    best and, under a stagnation window, after every other evaluation
    too.  history and history_evaluations hold a row for each
    evaluation that improved the best, plus one for the last evaluation.
    ``seed`` is one integer (not a bool) or None: one call, one climb.

    Each climb keeps one working array: a move writes its coordinate and
    evaluates the array, and a rejected move writes the old value back,
    so the callables see the working point itself (keep a copy of any
    point), and best_position is copied only when the best improves.

    Draw order: a restart point is ``lower + (upper - lower) * u`` from one
    block of ``dimension`` uniforms, as ``rng.uniform`` computes it.  The
    first move, and each one after a block is used up, draws MOVE_BLOCK
    coordinates, then MOVE_BLOCK offset uniforms; blocks outlive restarts.
    """
    if not (seed is None or _is_number(seed, integer=True)):
        raise TypeError(f"seed must be an integer (None allowed, bools not): hill climbing runs"
                        f" one seed per call, got {seed!r}")
    rng = np.random.default_rng(seed)
    stop = params.stop
    window = stop.stagnation_window
    lower, width = problem.lower, problem.width
    # per-coordinate bounds and steps as Python floats: the move below is
    # scalar work, where numpy scalars cost several times as much
    low, high = lower.tolist(), problem.upper.tolist()
    start_step = (params.step_fraction * width).tolist()
    shrink, stall_limit, dimension = params.shrink_factor, params.stall_limit, problem.dimension

    history, history_evaluations = [], []
    best_objective = float("inf")
    gained = 0  # the evaluation of the best's last gain above STAGNATION_EPS
    failures = stall_limit  # the first point is a restart
    moves = iter(())  # the (coordinate, uniform) pairs left in the block

    for evaluations in range(1, stop.max_evaluations + 1):
        if failures >= stall_limit:  # a fresh climb: a new working point, the step reset
            current = lower + width * rng.random(dimension)
            value, feasible = evaluate(problem, current, penalty)
            current_value, failures, scale = value, 0, 1.0
        else:  # a move of one coordinate of the working point, undone if rejected
            move = next(moves, None)
            if move is None:
                coords = rng.integers(dimension, size=MOVE_BLOCK).tolist()
                moves = zip(coords, rng.random(MOVE_BLOCK).tolist())
                move = next(moves)
            coord, u = move
            # rng.uniform(-half, half) computes exactly this offset from the
            # move's uniform u, at a few times the cost
            half = start_step[coord] * scale
            old = current.item(coord)
            x = old + (-half + 2.0 * half * u)
            # min(max(x, lo), hi) for every float, as lo < hi
            current[coord] = low[coord] if x < low[coord] else high[coord] if x > high[coord] else x
            value, feasible = evaluate(problem, current, penalty)
            if value < current_value:
                current_value, failures = value, 0
            else:  # no better than the working point, so no better than the best
                current[coord] = old
                failures += 1
                scale *= shrink
        if value < best_objective:
            if value < best_objective - STAGNATION_EPS:
                gained = evaluations
            best_position, best_objective, best_feasible = current.copy(), value, feasible
            history.append(best_objective)
            history_evaluations.append(evaluations)
        elif window is None:  # only the budget, the loop's bound, can stop the climb here
            continue  # asking reason here too would add 3-5% to an evaluation's time
        if stop.reason(best_objective, evaluations, evaluations - gained):
            break

    if history_evaluations[-1] != evaluations:
        history.append(best_objective)
        history_evaluations.append(evaluations)
    return RunResult(
        best_position=best_position,
        best_objective=best_objective,
        best_feasible=best_feasible,
        history=history,
        history_evaluations=history_evaluations,
        evaluations=evaluations,
        seed=seed,
        terminated_by=stop.reason(best_objective, evaluations, evaluations - gained),
    )
