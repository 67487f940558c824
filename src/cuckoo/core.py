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
below n is ``floor(u * n)``.  :func:`cuckoo_search` takes these blocks
from one per-run stream that draws a few iterations' uniforms at a time:
the same values, in the same order, as one generator call per group.

Given several seeds, :func:`cuckoo_search` runs their trials as one
stack: trial t owns rows t*n ... t*n + n - 1 of the arrays and entry t
of the records, each phase scores the candidates of every trial in one
:func:`evaluate` call, and each trial keeps its own generator and draw
order, so it ends exactly as it would alone.  A trial that stops leaves
the stack: its rows, record and generator are dropped.  One seed runs
the one-trial loop, which the stack's tests take as their reference:
run as a stack of one, a trial measured about a tenth slower, the cost
of row offsets, per-trial sorts and records and a two-dimensional stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from numbers import Integral
from typing import Optional, Sequence

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
    evaluations counts every evaluation so far.  A stack of T trials
    (see :func:`cuckoo_search`) holds trial t's n nests in rows t*n ...
    t*n + n - 1 and its record in row t of a (T, d) best_position and
    entry t of (T,) best_objective and best_feasible arrays; it counts
    the evaluations of one trial, as all spend alike.
    """

    X: np.ndarray
    F: np.ndarray
    feasible: np.ndarray
    best_position: np.ndarray
    best_objective: float | np.ndarray
    best_feasible: bool | np.ndarray
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

    def replace_prefix(self, X: np.ndarray, F: np.ndarray, feasible: np.ndarray) -> None:
        """Slot c < len(F) takes candidate c where strictly better; ties keep the incumbent."""
        m = len(F)
        better = F < self.F[:m]
        np.copyto(self.X[:m], X, where=better[:, None])
        np.copyto(self.F[:m], F, where=better)
        np.copyto(self.feasible[:m], feasible, where=better)

    def record_best(self) -> None:
        """Copy the best nest (first on ties) into the record if it improves on it.

        For one trial; :func:`cuckoo_search` keeps a stack's records.
        """
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
    (first one on ties).  :func:`cuckoo_search` starts each trial of a
    stack the same way.
    """
    X = _fresh_nests(problem.lower, problem.width, params.n, rng)
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
    the bounds.  A stack passes its stream and (T, m, d) rows, and gets
    (T * m, d) candidates, trial by trial.
    """
    if scale is None:
        scale = step_scale(problem, params)
    d = x.shape[-1]
    step = x + scale * sample_levy_vector(d, params.levy, rng, None if x.ndim == 1 else x.shape[-2])
    if step.ndim == 3:
        step = step.reshape(-1, d)
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
    is clamped to the bounds.  A stack passes its stream and (T, m, d)
    rows, and gets (T * m, d) candidates, trial by trial.
    """
    d = problem.dimension
    if not (x_i.shape == x_j.shape == x_k.shape and x_i.ndim in (1, 2, 3) and x_i.shape[-1] == d):
        raise ValueError("positions must all have the same shape, with the problem dimension last")
    if scale is None:
        scale = step_scale(problem, params)
    m = 1 if x_i.ndim == 1 else x_i.shape[-2]
    u = rng.random(m * (d + 1))  # step factors, then gates
    s = u[0] if x_i.ndim == 1 else u[..., :m, None]
    gate = u[..., m:].reshape(x_i.shape) < params.p_a
    candidate = x_i + scale * s * gate * (x_j - x_k)
    if candidate.ndim == 3:
        candidate = candidate.reshape(-1, d)
    np.maximum(candidate, problem.lower, out=candidate)  # clamp in place
    return np.minimum(candidate, problem.upper, out=candidate)


def partner_pairs(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform ordered pairs (j, k) with j != k from range(n), as one (2, m) array.

    Draws one block of 2m uniforms: j is ``floor(u * n)`` of the first m,
    k is ``floor(u * (n - 1))`` of the rest, shifted up where it reaches j.
    From a stack's stream the array is (2, T, m), one row per trial.
    """
    pairs = (rng.random((2, m)) * [[n], [n - 1]]).astype(np.intp).swapaxes(0, -2)
    j, k = pairs
    k += k >= j
    return pairs


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


def _fresh_nests(lower: np.ndarray, width: np.ndarray, count: int, rng) -> np.ndarray:
    """What ``rng.uniform(lower, upper, (count, d))`` draws, at a fraction of the call cost.

    From a stack's stream: T * count rows, trial by trial, against (T * count, d) bound rows.
    """
    d = lower.shape[-1]
    return lower + width * rng.random((count, d)).reshape(-1, d)


class _UniformStream:
    """``random(size)`` gives what ``rng.random(size)`` would, drawn ``block`` (or more) at a time."""

    def __init__(self, rng: np.random.Generator, block: int) -> None:
        self._rng = rng
        self._block = block
        self._buffer = np.empty(0)
        self._next = 0

    def random(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        start, self._next = self._next, self._next + count
        if self._next <= len(self._buffer):
            return self._buffer[start : self._next].reshape(size)
        rest = self._buffer[start:]
        self._buffer = self._rng.random(max(self._block, count))
        self._next = count - len(rest)
        return np.concatenate((rest, self._buffer[: self._next])).reshape(size)


class _StackedStream:
    """``random(size)`` gives what ``rng.random(size)`` would for each of T generators, as (T, *size).

    Each generator draws ``block`` (or more) uniforms at a time, into one
    row of a (T, block) buffer that all rows read at the same place.
    """

    def __init__(self, rngs: list[np.random.Generator], block: int) -> None:
        self._rngs = rngs
        self._block = block
        self._buffer = np.empty((len(rngs), 0))
        self._end = self._next = 0

    def random(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        start, self._next = self._next, self._next + count
        if self._next <= self._end:
            u = self._buffer[:, start : self._next]
        else:
            rest = self._buffer[:, start:]
            self._buffer = np.empty((len(self._rngs), max(self._block, count)))
            for rng, row in zip(self._rngs, self._buffer):
                rng.random(out=row)
            self._end, self._next = self._buffer.shape[1], count - rest.shape[1]
            u = np.concatenate((rest, self._buffer[:, : self._next]), axis=1)
        return u.reshape(len(u), *size) if isinstance(size, tuple) else u

    def keep(self, kept: np.ndarray) -> None:
        """Keep the generators where the boolean mask ``kept`` is set, and drop the rest."""
        self._rngs = list(compress(self._rngs, kept))
        self._buffer = self._buffer[kept]


def abandon_fraction(
    pop: Population, X: np.ndarray, F: np.ndarray, feasible: np.ndarray
) -> Population:
    """Replace the worst ``len(F)`` nests with the scored fresh nests ``X``.

    Row r goes to the r-th least bad of those slots, so the last row
    replaces the worst nest; ties on the objective are broken by slot
    order (stable sort).  :func:`cuckoo_search` passes ceil(p_a * n)
    rows, or the evaluations left in its budget if fewer.  The
    best-so-far record is not consulted or modified here; evaluations
    grow by the replacement count.  Mutates and returns ``pop``.
    """
    n, count = len(pop.F), len(F)
    slots = pop.F.argsort(kind="stable")[n - count :]
    pop.X[slots], pop.F[slots], pop.feasible[slots] = X, F, feasible
    pop.evaluations += count
    return pop


def cuckoo_search(
    problem: Problem,
    params: AlgorithmParams = AlgorithmParams(),
    seed: Optional[int] | Sequence[Optional[int]] = 0,
    penalty: PenaltyConfig = DEFAULT_PENALTY,
) -> RunResult | list[RunResult]:
    """Run cuckoo search on ``problem`` until the stop criterion fires.

    Target and budget are checked after every phase, so a final
    iteration may be cut short; it still contributes exactly one history
    entry.  Only the first nests propose in a phase that would pass the
    budget, one per evaluation left.  Without a target nothing but the
    budget can stop a run before the abandonment, so its fresh nests,
    next in the stream anyway, share the local walk's :func:`evaluate`
    call; with one, each phase has its own, so no uncounted point is
    scored.  The same seed always reproduces the same result bit for bit.

    Given a sequence of seeds, runs one trial per seed as one stack (see
    the module docstring) and returns their results in seed order, each
    what that seed alone returns; an empty sequence returns an empty
    list.  An error in any trial stops the whole stack.
    """
    if not (seed is None or isinstance(seed, Integral)):
        try:
            seeds = list(seed)
        except TypeError:
            raise TypeError(f"seed must be an integer or a sequence of integers, got {seed!r}") from None
        return _stacked_search(problem, params, seeds, penalty) if seeds else []
    n = params.n
    # four iterations' uniforms at a time (one draws at most 4n(d + 1)), but at most
    # 2**16: a larger request is drawn whole, so a large run holds about what it asks for
    block = min(16 * n * (problem.dimension + 1), 1 << 16)
    rng = _UniformStream(np.random.default_rng(seed), block)
    # (n, d) rows, so that the steps and the fresh nests combine operands of one shape
    rows = (step_scale(problem, params), problem.lower, problem.width)
    scale, lower, width = np.repeat(np.stack(rows)[:, None], n, axis=1)
    stop = params.stop
    budget = stop.max_evaluations
    slots = np.arange(n)
    abandoned = abandonment_count(params.p_a, n)

    pop = initialize(problem, params, rng, penalty)
    history = [pop.best_objective]
    history_evaluations = [pop.evaluations]
    # between phases stall is the last iteration's count, which is below any window
    stall = 0
    reason = stop.reason(pop.best_objective, pop.evaluations, stall)

    while reason is None:
        previous_best = pop.best_objective

        m = min(n, budget - pop.evaluations)
        candidates = global_walk(pop.X[:m], problem, params, rng, scale[:m])
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
            candidates = local_walk(pop.X[:m], pop.X[j], pop.X[k], problem, params, rng, scale[:m])
            # the abandonment's nests are next in the stream
            count = min(abandoned, budget - pop.evaluations - m)
            fresh = _fresh_nests(lower[:count], width[:count], count, rng)
            if stop.target_objective is None:
                # nothing but the budget can stop the run before the abandonment: score them now
                F, feasible = evaluate(problem, np.concatenate((candidates, fresh)), penalty)
                scored, F, feasible = (fresh, F[m:], feasible[m:]), F[:m], feasible[:m]
            else:
                F, feasible = evaluate(problem, candidates, penalty)
            pop.evaluations += m
            pop.replace_prefix(candidates, F, feasible)
            pop.record_best()
            reason = stop.reason(pop.best_objective, pop.evaluations, stall)

        if reason is None and abandoned:
            if stop.target_objective is not None:
                scored = (fresh, *evaluate(problem, fresh, penalty))
            abandon_fraction(pop, *scored)
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


def _stacked_search(
    problem: Problem, params: AlgorithmParams, seeds: list, penalty: PenaltyConfig
) -> list[RunResult]:
    """:func:`cuckoo_search` for several seeds, run as one stack (see the module docstring).

    The phases and their draws are those of :func:`cuckoo_search`, per
    trial; the stack's records are (T,) and (T, d) arrays, and a trial
    that stops after a phase leaves the stack before the next.
    """
    T, n, d = len(seeds), params.n, problem.dimension
    block = min(16 * n * (d + 1), 1 << 16)
    rng = _StackedStream([np.random.default_rng(s) for s in seeds], block)
    # (T * n, d) rows, as in cuckoo_search; the rows are identical, so any T * count
    # of them serve T trials' count nests
    rows = (step_scale(problem, params), problem.lower, problem.width)
    scale, lower, width = np.repeat(np.stack(rows)[:, None], T * n, axis=1)
    slots = np.arange(T * n).reshape(T, n)  # row t * n + i is slot i of trial t
    stop = params.stop
    budget = stop.max_evaluations
    target = -math.inf if stop.target_objective is None else stop.target_objective
    window = math.inf if stop.stagnation_window is None else stop.stagnation_window
    abandoned = abandonment_count(params.p_a, n)

    X = _fresh_nests(lower, width, n, rng)
    records = (np.empty((T, d)), np.full(T, math.inf), np.zeros(T, dtype=bool))
    pop = Population(X, *evaluate(problem, X, penalty), *records, n)
    # per trial left in the stack: its seed's index and its stall count, which
    # between phases is the last iteration's, below any window
    ids, stall = np.arange(T), np.zeros(T, dtype=np.intp)
    history = [[] for _ in seeds]  # each seed's records at its iterations' starts ...
    pending = []  # ... but those since the stack last changed: a (T,) row per iteration
    spent = []  # the evaluations at each iteration's start, the same for every trial
    results = [None] * T

    def record() -> bool:
        """Copy each trial's best nest (first on ties) into its record where strictly better.

        Returns whether a trial stops now, on its target or the budget.
        """
        best = pop.F.reshape(T, n).argmin(axis=1)
        best += slots[:T, 0]
        F = pop.F[best]
        better = F < pop.best_objective
        best = best[better]
        pop.best_objective[better] = F[better]
        pop.best_position[better] = pop.X[best]
        pop.best_feasible[better] = pop.feasible[best]
        return pop.evaluations >= budget or pop.best_objective.min() <= target

    start = pop.best_objective  # each trial's record when its iteration began
    phase, stopping = 0, record()
    while True:
        if stopping:  # finish the trials that stop now and take them out of the stack
            done = (pop.best_objective <= target) | (stall >= window) | (pop.evaluations >= budget)
            for t, column in zip(ids.tolist(), np.reshape(pending, (-1, T)).T.tolist()):
                history[t] += column
            pending = []
            for k in np.flatnonzero(done).tolist():
                t, best = ids[k], float(pop.best_objective[k])
                reason = stop.reason(best, pop.evaluations, int(stall[k]))
                results[t] = RunResult(pop.best_position[k].copy(), best, bool(pop.best_feasible[k]),
                                       history[t] + [best], spent + [pop.evaluations], pop.evaluations,
                                       seeds[t], reason)
            kept = ~done
            ids, stall, start = ids[kept], stall[kept], start[kept]
            T = len(ids)
            if not T:
                return results
            rng.keep(kept)
            rows = np.repeat(kept, n)
            pop.X, pop.F, pop.feasible = pop.X[rows], pop.F[rows], pop.feasible[rows]
            records = (pop.best_position, pop.best_objective, pop.best_feasible)
            pop.best_position, pop.best_objective, pop.best_feasible = (a[kept] for a in records)

        if phase == 0:
            start = pop.best_objective.copy()
            pending.append(start)
            spent.append(pop.evaluations)
            m = min(n, budget - pop.evaluations)
            # the budget's last phase: only the first m nests of each trial propose
            x, scale_rows = pop.X.reshape(T, n, d)[:, :m], scale[: T * n].reshape(T, n, d)[:, :m]
            candidates = global_walk(x, problem, params, rng, scale_rows)
            F, feasible = evaluate(problem, candidates, penalty)
            pop.evaluations += m
            if params.compare_to == "random":
                targets = (rng.random(m) * n).astype(np.intp)
                targets += slots[:T, :1]  # rows of the stack
            else:
                targets = slots[:T, :m]
            targets = targets.ravel()
            won = winning_bids(targets, F)
            pop.replace(targets[won], candidates[won], F[won], feasible[won])
        elif phase == 1:
            m = min(n, budget - pop.evaluations)
            x, scale_rows = pop.X.reshape(T, n, d)[:, :m], scale[: T * n].reshape(T, n, d)[:, :m]
            pairs = partner_pairs(n, m, rng)
            pairs += slots[:T, :1]  # rows of the stack
            x_j, x_k = pop.X.take(pairs, axis=0)
            candidates = local_walk(x, x_j, x_k, problem, params, rng, scale_rows)
            count = min(abandoned, budget - pop.evaluations - m)
            if stop.target_objective is None:
                # nothing but the budget, which stops every trial, can stop one before the
                # abandonment: its nests, next in the stream, are scored now
                fresh = _fresh_nests(lower[: T * count], width[: T * count], count, rng)
                F, feasible = evaluate(problem, np.concatenate((candidates, fresh)), penalty)
                scored, F, feasible = (fresh, F[T * m :], feasible[T * m :]), F[: T * m], feasible[: T * m]
            else:
                F, feasible = evaluate(problem, candidates, penalty)
            pop.evaluations += m
            pop.replace(slots[:T, :m].ravel(), candidates, F, feasible)
        elif abandoned:
            if stop.target_objective is not None:
                # drawn from the streams of the trials left: their next uniforms all the same
                fresh = _fresh_nests(lower[: T * count], width[: T * count], count, rng)
                scored = (fresh, *evaluate(problem, fresh, penalty))
            # as abandon_fraction, per trial: its last ``count`` rows by objective (stable sort)
            worst = pop.F.reshape(T, n).argsort(kind="stable")[:, n - count :] + slots[:T, :1]
            pop.X[worst.ravel()], pop.F[worst.ravel()], pop.feasible[worst.ravel()] = scored
            pop.evaluations += count
        stopping = record()
        if phase == 2 and stop.stagnation_window is not None:
            stall = np.where(pop.best_objective < start - STAGNATION_EPS, 0, stall + 1)
            stopping = stopping or stall.max() >= window
        phase = (phase + 1) % 3
