"""Cuckoo search optimizer.

A population of candidate solutions ("nests") evolves through three
moves per iteration, in this order:

1. global walk: every nest proposes a heavy-tailed random step, and the
   candidate competes greedily against a randomly chosen nest;
2. local walk: every nest proposes a short, component-gated step along
   the difference of two other population members, competing against
   its own slot;
3. abandonment: the worst ceil(p_a * n) nests are replaced by fresh
   uniform samples.

The best solution ever evaluated is tracked separately and can only
improve (the abandonment step never touches it).  All randomness flows
through one seeded numpy generator, so runs replay bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .levy import LevyConfig, sample_levy_vector
from .problems import PenaltyConfig, Problem, evaluate

__all__ = [
    "STAGNATION_EPS",
    "AlgorithmParams",
    "Nest",
    "Population",
    "RunResult",
    "StopCriterion",
    "abandon_fraction",
    "abandonment_count",
    "cuckoo_search",
    "draw_partners",
    "global_walk",
    "greedy_select",
    "initialize",
    "local_walk",
    "step_scale",
]

# an objective improvement at or below this is treated as stagnation
STAGNATION_EPS = 1e-12


@dataclass
class Nest:
    """One population slot: a position with its cached evaluation."""

    position: np.ndarray
    objective: float
    feasible: bool


@dataclass
class Population:
    """Mutable optimizer state: nests, best-so-far record, eval count."""

    nests: list[Nest]
    best: Nest
    evaluations: int


@dataclass(frozen=True)
class StopCriterion:
    """Termination rule; at least one field must be set.

    max_evaluations stops once the evaluation count reaches the budget
    (checked between phases, so the count may overshoot by at most one
    phase of work: n + ceil(p_a * n) evaluations).  target_objective
    stops when the best penalized objective is <= the target.
    stagnation_window stops after that many consecutive iterations
    without a best improvement above 1e-12.  A criterion with only a
    target set never terminates if the target is unreachable, so keep a
    budget set unless the target is known attainable.
    """

    max_evaluations: Optional[int] = None
    target_objective: Optional[float] = None
    stagnation_window: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            self.max_evaluations is None
            and self.target_objective is None
            and self.stagnation_window is None
        ):
            raise ValueError("at least one stop criterion must be set")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {self.max_evaluations}")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ValueError(f"stagnation_window must be >= 1, got {self.stagnation_window}")

    @property
    def target_only(self) -> bool:
        """Only a target is set: a run that never reaches it never stops."""
        return self.max_evaluations is None and self.stagnation_window is None

    def reason(
        self, best_objective: float, evaluations: int, stall: Optional[int] = None
    ) -> Optional[str]:
        """Why a run stops now, or None: target over budget over stagnation.

        stall counts consecutive steps without a best improvement above
        STAGNATION_EPS; stagnation is not checked when it is None.
        """
        if self.target_objective is not None and best_objective <= self.target_objective:
            return "target"
        if self.max_evaluations is not None and evaluations >= self.max_evaluations:
            return "max_evaluations"
        if (
            stall is not None
            and self.stagnation_window is not None
            and stall >= self.stagnation_window
        ):
            return "stagnation"
        return None


@dataclass(frozen=True)
class AlgorithmParams:
    """Cuckoo search settings.

    alpha is the step scale; None means (upper - lower) / 100 per
    coordinate, a conservative default suited to unimodal landscapes
    (multimodal ones often profit from ~10x larger).  p_a doubles as the
    abandonment fraction and the local walk's per-component gate
    probability.  compare_to picks the defender of the global walk:
    a uniformly random nest ("random") or the proposing nest itself
    ("parent").
    """

    n: int = 25
    p_a: float = 0.25
    alpha: Optional[float] = None
    levy: LevyConfig = field(default_factory=LevyConfig)
    stop: StopCriterion = field(default_factory=lambda: StopCriterion(max_evaluations=50_000))
    compare_to: str = "random"

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError(f"p_a must be in [0, 1], got {self.p_a}")
        if self.alpha is not None and not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.compare_to not in ("random", "parent"):
            raise ValueError(f"compare_to must be 'random' or 'parent', got {self.compare_to!r}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one optimizer run.

    history holds the best objective after initialization and after each
    iteration; history_evaluations holds the matching cumulative
    evaluation counts, so history can be plotted against budget spent.
    """

    best_position: np.ndarray
    best_objective: float
    best_feasible: bool
    history: list[float]
    history_evaluations: list[int]
    evaluations: int
    seed: int
    terminated_by: str


def step_scale(problem: Problem, params: AlgorithmParams) -> np.ndarray:
    """Per-coordinate step scale: alpha, or bound width / 100."""
    if params.alpha is not None:
        return np.full(problem.dimension, float(params.alpha))
    return (problem.upper - problem.lower) / 100.0


def abandonment_count(p_a: float, n: int) -> int:
    """ceil(p_a * n), guarding the product against binary-float drift."""
    return math.ceil(round(p_a * n, 9))


def _evaluated_nest(problem: Problem, position: np.ndarray, penalty: PenaltyConfig) -> Nest:
    value, feasible = evaluate(problem, position, penalty)
    return Nest(position=position, objective=value, feasible=feasible)


def initialize(
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    penalty: Optional[PenaltyConfig] = None,
) -> Population:
    """Uniform random population inside the bounds, fully evaluated.

    Draws one block of ``dimension`` uniforms per nest, in slot order.
    The best-so-far record starts as a copy of the best initial nest
    (first one on ties).
    """
    if penalty is None:
        penalty = PenaltyConfig()
    nests = [
        _evaluated_nest(problem, rng.uniform(problem.lower, problem.upper), penalty)
        for _ in range(params.n)
    ]
    best = min(nests, key=lambda nest: nest.objective)
    best = Nest(best.position.copy(), best.objective, best.feasible)
    return Population(nests=nests, best=best, evaluations=params.n)


def global_walk(
    x: np.ndarray,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Heavy-tailed step from ``x``, clamped to the bounds.

    Consumes one signed step vector from ``rng`` (two uniform blocks of
    ``dimension`` draws, see :func:`cuckoo.levy.sample_levy_vector`).
    """
    if scale is None:
        scale = step_scale(problem, params)
    step = sample_levy_vector(problem.dimension, params.levy, rng)
    return np.clip(x + scale * step, problem.lower, problem.upper)


def local_walk(
    x_i: np.ndarray,
    x_j: np.ndarray,
    x_k: np.ndarray,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gated step from ``x_i`` along the difference of two members.

    Draws one scalar step factor s ~ U(0, 1), then one gate uniform per
    component; a component moves only where its gate uniform falls below
    p_a.  With p_a = 0, or with x_j identical to x_k, the result equals
    x_i exactly.  The candidate is clamped to the bounds.
    """
    if not (x_i.shape == x_j.shape == x_k.shape == (problem.dimension,)):
        raise ValueError("positions must all have the problem dimension")
    if scale is None:
        scale = step_scale(problem, params)
    s = rng.random()
    gate = rng.random(problem.dimension) < params.p_a
    candidate = x_i + scale * s * gate * (x_j - x_k)
    return np.clip(candidate, problem.lower, problem.upper)


def greedy_select(candidate: Nest, incumbent: Nest) -> Nest:
    """The nest with the smaller objective; ties keep the incumbent."""
    return candidate if candidate.objective < incumbent.objective else incumbent


def draw_partners(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Uniform ordered pair (j, k) with j != k from range(n)."""
    j = int(rng.integers(n))
    k = int(rng.integers(n - 1))
    if k >= j:
        k += 1
    return j, k


def abandon_fraction(
    pop: Population,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    penalty: Optional[PenaltyConfig] = None,
) -> Population:
    """Replace the worst ceil(p_a * n) nests with fresh uniform samples.

    Ties on the objective are broken by slot order (stable sort).  The
    best-so-far record is not consulted or modified here; evaluations
    grow by the replacement count.  Mutates and returns ``pop``.
    """
    if penalty is None:
        penalty = PenaltyConfig()
    count = abandonment_count(params.p_a, len(pop.nests))
    if count == 0:
        return pop
    order = np.argsort([nest.objective for nest in pop.nests], kind="stable")
    for idx in order[len(pop.nests) - count :]:
        position = rng.uniform(problem.lower, problem.upper)
        pop.nests[idx] = _evaluated_nest(problem, position, penalty)
    pop.evaluations += count
    return pop


def _update_best(pop: Population) -> None:
    contender = min(pop.nests, key=lambda nest: nest.objective)
    if contender.objective < pop.best.objective:
        pop.best = Nest(contender.position.copy(), contender.objective, contender.feasible)


def cuckoo_search(
    problem: Problem,
    params: Optional[AlgorithmParams] = None,
    seed: int = 0,
    penalty: Optional[PenaltyConfig] = None,
) -> RunResult:
    """Run cuckoo search on ``problem`` until the stop criterion fires.

    Target and budget are also checked between phases, so a final
    iteration may be cut short; it still contributes exactly one history
    entry.  The same seed always reproduces the same result bit for bit.
    """
    if params is None:
        params = AlgorithmParams()
    if penalty is None:
        penalty = PenaltyConfig()
    rng = np.random.default_rng(seed)
    scale = step_scale(problem, params)
    stop = params.stop
    n = params.n

    pop = initialize(problem, params, rng, penalty)
    history = [pop.best.objective]
    history_evaluations = [pop.evaluations]
    stall = 0
    reason = stop.reason(pop.best.objective, pop.evaluations)

    while reason is None:
        previous_best = pop.best.objective

        for i in range(n):
            candidate_pos = global_walk(pop.nests[i].position, problem, params, rng, scale)
            candidate = _evaluated_nest(problem, candidate_pos, penalty)
            pop.evaluations += 1
            j = int(rng.integers(n)) if params.compare_to == "random" else i
            pop.nests[j] = greedy_select(candidate, pop.nests[j])
        _update_best(pop)
        reason = stop.reason(pop.best.objective, pop.evaluations)

        if reason is None:
            for i in range(n):
                j, k = draw_partners(n, rng)
                candidate_pos = local_walk(
                    pop.nests[i].position,
                    pop.nests[j].position,
                    pop.nests[k].position,
                    problem,
                    params,
                    rng,
                    scale,
                )
                candidate = _evaluated_nest(problem, candidate_pos, penalty)
                pop.evaluations += 1
                pop.nests[i] = greedy_select(candidate, pop.nests[i])
            _update_best(pop)
            reason = stop.reason(pop.best.objective, pop.evaluations)

        if reason is None:
            abandon_fraction(pop, problem, params, rng, penalty)
            _update_best(pop)

        history.append(pop.best.objective)
        history_evaluations.append(pop.evaluations)
        if pop.best.objective < previous_best - STAGNATION_EPS:
            stall = 0
        else:
            stall += 1
        if reason is None:
            reason = stop.reason(pop.best.objective, pop.evaluations, stall)

    return RunResult(
        best_position=pop.best.position.copy(),
        best_objective=pop.best.objective,
        best_feasible=pop.best.feasible,
        history=history,
        history_evaluations=history_evaluations,
        evaluations=pop.evaluations,
        seed=seed,
        terminated_by=reason,
    )
