"""Random-restart hill climbing, the comparison baseline.

Shares the problem, penalty, stop-criterion, and result contracts with
the cuckoo search optimizer so the experiment harness can treat both
uniformly.  One evaluation is one iteration here, and history keeps the
evaluations where the best changes, plus the last one: the best-so-far
curve is a step function, so those rows lose nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import STAGNATION_EPS, RunResult, StopCriterion
from .problems import DEFAULT_PENALTY, PenaltyConfig, Problem, check_number, evaluate

__all__ = ["HillClimbParams", "hill_climb_restart"]


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


def hill_climb_restart(
    problem: Problem,
    params: HillClimbParams = HillClimbParams(),
    seed: int = 0,
    penalty: PenaltyConfig = DEFAULT_PENALTY,
) -> RunResult:
    """Run the baseline on ``problem`` until the stop criterion fires.

    Only strict improvements are accepted.  The stop criterion is
    checked after every evaluation, so max_evaluations is never
    overshot.  history and history_evaluations hold a row for each
    evaluation that improved the best, plus one for the last evaluation.
    """
    rng = np.random.default_rng(seed)
    stop_reason = params.stop.reason
    lower, upper = problem.lower, problem.upper
    # per-coordinate bounds and steps as Python floats: the move below is
    # scalar work, where numpy scalars cost several times as much
    low, high = lower.tolist(), upper.tolist()
    start_step = (params.step_fraction * (upper - lower)).tolist()
    shrink = params.shrink_factor
    dimension = problem.dimension

    evaluations = 0
    history: list[float] = []
    history_evaluations: list[int] = []
    best_position: Optional[np.ndarray] = None
    best_objective = float("inf")
    best_feasible = False
    stall_iterations = 0
    reason: Optional[str] = None
    current: Optional[np.ndarray] = None  # None: the next point is a restart
    step = start_step

    while reason is None:
        if current is None:
            candidate = rng.uniform(lower, upper)
        else:
            coord = int(rng.integers(dimension))
            # rng.uniform(-half, half) computes exactly this, low + (high - low)
            # * u from one draw, at a few times the call cost
            half = step[coord]
            offset = -half + 2.0 * half * rng.random()
            candidate = current.copy()
            candidate[coord] = min(max(current.item(coord) + offset, low[coord]), high[coord])
        value, feasible = evaluate(problem, candidate, penalty)
        evaluations += 1
        if value < best_objective - STAGNATION_EPS:
            stall_iterations = 0
        else:
            stall_iterations += 1
        if value < best_objective:
            best_position = candidate.copy()
            best_objective = value
            best_feasible = feasible
            history.append(best_objective)
            history_evaluations.append(evaluations)
        reason = stop_reason(best_objective, evaluations, stall_iterations)
        if current is None or value < current_value:
            current, current_value = candidate, value
            failures = 0
        else:
            failures += 1
            step = [v * shrink for v in step]
            if failures >= params.stall_limit:
                current, step = None, start_step

    assert best_position is not None
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
        terminated_by=reason,
    )
