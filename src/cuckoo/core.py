"""Cuckoo search optimizer.

A population of candidate solutions ("nests") evolves through three
phases per iteration, in this order:

1. global walk: every nest proposes a heavy-tailed random step, and the
   candidate competes greedily against a randomly chosen nest;
2. local walk: every nest proposes a short, component-gated step along
   the difference of two other population members, competing against
   its own slot;
3. abandonment: the worst ceil(p_a * n) nests are replaced by fresh
   uniform samples.

The state is arrays: positions ``X`` (n, d), penalized objectives ``F``
(n,) and feasibility flags (n,).  Each phase is synchronous: every
candidate is proposed from the population as it stood when the phase
began, all of them are scored by one batch :func:`evaluate` call, and
then each slot keeps the better of its nest and the best candidate that
targets it (without a target, the local walk and the abandonment share
one call: see :func:`cuckoo_search`).  A phase that would pass the
evaluation budget proposes only as many candidates as there are
evaluations left, so a run spends exactly ``max_evaluations`` (the
initial population is always evaluated whole).

The best solution ever evaluated is tracked separately and can only
improve (the abandonment step never touches it).  All randomness flows
through one seeded numpy generator, so runs replay bit-identically.
Each iteration draws uniforms only, one ``rng.random`` block per group:
the global walk's magnitudes then signs; the defenders (under
``compare_to="random"``); the partners j then k; the local walk's step
factors then gates (row by row); one row per abandoned nest.  An index
below n is ``floor(u * n)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .levy import LevyConfig, sample_levy_vector
from .problems import DEFAULT_PENALTY, PenaltyConfig, Problem, check_number, evaluate

__all__ = [
    "STAGNATION_EPS",
    "AlgorithmParams",
    "Population",
    "RunResult",
    "StopCriterion",
    "abandon_fraction",
    "abandonment_count",
    "cuckoo_search",
    "global_walk",
    "initialize",
    "local_walk",
    "partner_pairs",
    "step_scale",
    "winning_bids",
]

# an objective improvement at or below this is treated as stagnation
STAGNATION_EPS = 1e-12


@dataclass
class Population:
    """Mutable optimizer state.

    Row i of X is nest i, with penalized objective F[i] and feasibility
    flag feasible[i].  The best_* fields record the best point ever
    evaluated, as a copy the population's later moves cannot touch;
    evaluations counts every evaluation so far.
    """

    X: np.ndarray
    F: np.ndarray
    feasible: np.ndarray
    best_position: np.ndarray
    best_objective: float
    best_feasible: bool
    evaluations: int

    def replace(
        self, slots: np.ndarray, X: np.ndarray, F: np.ndarray, feasible: np.ndarray
    ) -> None:
        """Slot ``slots[c]`` takes candidate c where strictly better.

        Ties keep the incumbent.  The slots must be distinct.
        """
        better = F < self.F[slots]
        slots = slots[better]
        self.X[slots] = X[better]
        self.F[slots] = F[better]
        self.feasible[slots] = feasible[better]

    def record_best(self) -> None:
        """Copy the best nest (first on ties) into the record if it improves on it."""
        i = int(self.F.argmin())
        if self.F[i] < self.best_objective:
            self.best_position = self.X[i].copy()
            self.best_objective = float(self.F[i])
            self.best_feasible = bool(self.feasible[i])


@dataclass(frozen=True)
class StopCriterion:
    """Termination rule: a budget, optionally with a target and a window.

    max_evaluations stops once the evaluation count reaches the budget;
    both optimizers spend it exactly (cuckoo search cuts the phase that
    reaches it short).  target_objective stops when the best penalized
    objective is <= the target.  stagnation_window stops after that many
    consecutive iterations without a best improvement above 1e-12.
    """

    max_evaluations: int
    target_objective: Optional[float] = None
    stagnation_window: Optional[int] = None

    def __post_init__(self) -> None:
        check_number(self, "max_evaluations", "[1, inf)", integer=True)
        check_number(self, "target_objective", "(-inf, inf)", optional=True)
        check_number(self, "stagnation_window", "[1, inf)", integer=True, optional=True)

    def reason(self, best_objective: float, evaluations: int, stall: int) -> Optional[str]:
        """Why a run stops now, or None: target over budget over stagnation.

        stall counts consecutive steps without a best improvement above
        STAGNATION_EPS.
        """
        if self.target_objective is not None and best_objective <= self.target_objective:
            return "target"
        if evaluations >= self.max_evaluations:
            return "max_evaluations"
        if self.stagnation_window is not None and stall >= self.stagnation_window:
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
    levy: LevyConfig = LevyConfig()
    stop: StopCriterion = StopCriterion(max_evaluations=50_000)
    compare_to: str = "random"

    def __post_init__(self) -> None:
        check_number(self, "n", "[2, inf)", integer=True)
        check_number(self, "p_a", "[0, 1]")
        check_number(self, "alpha", "(0, inf)", optional=True)
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
    return problem.width / 100.0


@functools.cache
def abandonment_count(p_a: float, n: int) -> int:
    """ceil(p_a * n), guarding the product against binary-float drift."""
    return math.ceil(round(p_a * n, 9))


def initialize(
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    penalty: PenaltyConfig = DEFAULT_PENALTY,
) -> Population:
    """Uniform random population inside the bounds, evaluated as one batch.

    Draws one block of ``dimension`` uniforms per nest, in slot order.
    The best-so-far record starts as a copy of the best initial nest
    (first one on ties).
    """
    X = _fresh_nests(problem, params.n, rng)
    F, feasible = evaluate(problem, X, penalty)
    best = int(np.argmin(F))
    return Population(
        X, F, feasible, X[best].copy(), float(F[best]), bool(feasible[best]), params.n
    )


def global_walk(
    x: np.ndarray,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Heavy-tailed step from ``x`` (d,), or from each row of ``x`` (m, d).

    Consumes one signed step vector from ``rng`` per point, in one
    block: all magnitudes, then all signs (see
    :func:`cuckoo.levy.sample_levy_vector`).  The result is clamped to
    the bounds.
    """
    if scale is None:
        scale = step_scale(problem, params)
    rows = None if x.ndim == 1 else x.shape[0]
    step = x + scale * sample_levy_vector(problem.dimension, params.levy, rng, rows)
    np.maximum(step, problem.lower, out=step)  # clamp in place
    return np.minimum(step, problem.upper, out=step)


def local_walk(
    x_i: np.ndarray,
    x_j: np.ndarray,
    x_k: np.ndarray,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    scale: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gated step from ``x_i`` along the difference ``x_j - x_k``.

    Draws one block: for one point (d,), one step factor s ~ U(0, 1),
    then one gate uniform per component; for m points (m, d), m step
    factors, then m * d gate uniforms row by row.  A component moves
    only where its gate uniform falls below p_a.  With p_a = 0, or with
    x_j identical to x_k, the result equals x_i exactly.  The candidate
    is clamped to the bounds.
    """
    if not (
        x_i.shape == x_j.shape == x_k.shape
        and x_i.ndim in (1, 2)
        and x_i.shape[-1] == problem.dimension
    ):
        raise ValueError("positions must all have the same shape, with the problem dimension last")
    if scale is None:
        scale = step_scale(problem, params)
    u = rng.random(x_i.size // problem.dimension + x_i.size)  # step factors, then gates
    s = u[0] if x_i.ndim == 1 else u[: len(x_i), None]
    gate = u[-x_i.size :].reshape(x_i.shape) < params.p_a
    candidate = x_i + scale * s * gate * (x_j - x_k)
    np.maximum(candidate, problem.lower, out=candidate)  # clamp in place
    return np.minimum(candidate, problem.upper, out=candidate)


def partner_pairs(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """m uniform ordered pairs (j, k) with j != k from range(n).

    Draws one block of 2m uniforms: j is ``floor(u * n)`` of the first m,
    k is ``floor(u * (n - 1))`` of the rest, shifted up where it reaches j.
    """
    u = rng.random(2 * m)
    j = (u[:m] * n).astype(np.intp)
    k = (u[m:] * (n - 1)).astype(np.intp)
    k += k >= j
    return j, k


def winning_bids(targets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The best bid for each distinct target slot.

    Candidate c bids ``values[c]`` for slot ``targets[c]``.  For each
    slot the smallest value wins and ties go to the lowest candidate
    index.  Returns the winning candidates' indices, in slot order.
    """
    order = np.lexsort((values, targets))  # by slot, then value; stable
    slots = targets[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = slots[1:] != slots[:-1]
    return order[first]


def _fresh_nests(problem: Problem, count: int, rng: np.random.Generator) -> np.ndarray:
    """What ``rng.uniform(lower, upper, (count, d))`` draws, at a fraction of the call cost."""
    return problem.lower + problem.width * rng.random((count, problem.dimension))


def abandon_fraction(
    pop: Population,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    penalty: PenaltyConfig = DEFAULT_PENALTY,
    limit: float = math.inf,
    scored: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Population:
    """Replace the worst ceil(p_a * n) nests with fresh uniform samples.

    Ties on the objective are broken by slot order (stable sort).  One
    block of ``dimension`` uniforms is drawn per replaced nest, from the
    least bad of them to the worst, and the replacements are evaluated
    as one batch.  ``limit`` caps the count (at the evaluations left in
    a budget), keeping the worst.  ``scored``, if given, is those
    replacements already drawn and evaluated (positions, values, flags).
    The best-so-far record is not consulted or modified here;
    evaluations grow by the replacement count.  Mutates and returns ``pop``.
    """
    n = len(pop.F)
    if scored is None:
        count = min(abandonment_count(params.p_a, n), limit)
        if count == 0:
            return pop
        X = _fresh_nests(problem, count, rng)
        scored = (X, *evaluate(problem, X, penalty))
    count = len(scored[0])
    slots = pop.F.argsort(kind="stable")[n - count :]
    pop.X[slots], pop.F[slots], pop.feasible[slots] = scored
    pop.evaluations += count
    return pop


def cuckoo_search(
    problem: Problem,
    params: AlgorithmParams = AlgorithmParams(),
    seed: int = 0,
    penalty: PenaltyConfig = DEFAULT_PENALTY,
) -> RunResult:
    """Run cuckoo search on ``problem`` until the stop criterion fires.

    Target and budget are checked after every phase, so a final
    iteration may be cut short; it still contributes exactly one history
    entry.  Only the first nests propose in a phase that would pass the
    budget, one per evaluation left.  Without a target nothing but the
    budget can stop a run before the abandonment, so its fresh nests,
    next in the stream anyway, share the local walk's :func:`evaluate`
    call; with one, each phase has its own, so no uncounted point is
    scored.  The same seed always reproduces the same result bit for bit.
    """
    rng = np.random.default_rng(seed)
    scale = step_scale(problem, params)
    stop = params.stop
    n = params.n
    budget = stop.max_evaluations
    slots = np.arange(n)
    abandoned = abandonment_count(params.p_a, n)
    scored = None  # the abandonment's nests, when drawn and evaluated ahead of it

    pop = initialize(problem, params, rng, penalty)
    history = [pop.best_objective]
    history_evaluations = [pop.evaluations]
    # between phases stall is the last iteration's count, which is below any window
    stall = 0
    reason = stop.reason(pop.best_objective, pop.evaluations, stall)

    while reason is None:
        previous_best = pop.best_objective

        m = min(n, budget - pop.evaluations)
        candidates = global_walk(pop.X[:m], problem, params, rng, scale)
        F, feasible = evaluate(problem, candidates, penalty)
        pop.evaluations += m
        targets = (rng.random(m) * n).astype(np.intp) if params.compare_to == "random" else slots[:m]
        won = winning_bids(targets, F)
        pop.replace(targets[won], candidates[won], F[won], feasible[won])
        pop.record_best()
        reason = stop.reason(pop.best_objective, pop.evaluations, stall)

        if reason is None:
            m = min(n, budget - pop.evaluations)
            j, k = partner_pairs(n, m, rng)
            candidates = local_walk(pop.X[:m], pop.X[j], pop.X[k], problem, params, rng, scale)
            if stop.target_objective is None:
                # the abandonment's nests are next in the stream: score them now
                fresh = _fresh_nests(problem, min(abandoned, budget - pop.evaluations - m), rng)
                F, feasible = evaluate(problem, np.concatenate((candidates, fresh)), penalty)
                scored, F, feasible = (fresh, F[m:], feasible[m:]), F[:m], feasible[:m]
            else:
                F, feasible = evaluate(problem, candidates, penalty)
            pop.evaluations += m
            pop.replace(slots[:m], candidates, F, feasible)
            pop.record_best()
            reason = stop.reason(pop.best_objective, pop.evaluations, stall)

        if reason is None:
            abandon_fraction(pop, problem, params, rng, penalty, budget - pop.evaluations, scored)
            pop.record_best()

        history.append(pop.best_objective)
        history_evaluations.append(pop.evaluations)
        if pop.best_objective < previous_best - STAGNATION_EPS:
            stall = 0
        else:
            stall += 1
        if reason is None:
            reason = stop.reason(pop.best_objective, pop.evaluations, stall)

    return RunResult(
        best_position=pop.best_position.copy(),
        best_objective=pop.best_objective,
        best_feasible=pop.best_feasible,
        history=history,
        history_evaluations=history_evaluations,
        evaluations=pop.evaluations,
        seed=seed,
        terminated_by=reason,
    )
