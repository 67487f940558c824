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
began, and then each slot keeps the better of its nest and the best
candidate that targets it.  An iteration makes two batch :func:`evaluate`
calls, one for the global walk and one for the local walk and the
abandonment together.  The stop rule is checked once per iteration, at
its end, as in Yang and Deb's pseudo-code.  Inside an iteration only the
budget acts: the phase that reaches it proposes one candidate per
evaluation left, and a phase with none left is skipped, so a run spends
exactly ``max_evaluations`` (the initial population is always evaluated
whole).

The best solution ever evaluated is tracked separately and can only
improve (the abandonment step never touches it).  It is kept once per
iteration, at its end: each trial's first least nest, by slot, enters
its record where strictly better (and, when the abandonment replaces
every nest, also just before it).  All randomness flows through one
seeded numpy generator per trial, so runs replay bit-identically.
Each iteration draws uniforms only, one ``rng.random`` block per group:
the global walk's magnitudes then signs; the defenders (under
``compare_to="random"``); the partners j then k; the local walk's step
factors then gates (row by row); one row per abandoned nest.  An index
below n is ``floor(u * n)``.  :func:`cuckoo_search` takes these blocks
from one per-trial stream that draws a few iterations' uniforms at a
time: the same values, in the same order, as one generator call per
group.

One loop serves one seed and many.  :func:`cuckoo_search` runs its
trials as stacks it sizes, an integer seed as a stack of one: trial t owns
rows t*n ... t*n + n - 1 of the arrays and entry t of the records, each
:func:`evaluate` call scores the candidates of every trial, and each
trial keeps its own generator and draw order, so it ends exactly as it
would alone.  The budget, which all trials spend alike, cuts the same
phase of each; at the end of an iteration, a trial for which
:meth:`StopCriterion.reason` names a reason leaves the stack: its rows,
record and generator are dropped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .levy import LevyConfig, sample_levy_vector
from .problems import DEFAULT_PENALTY, PenaltyConfig, Problem, _is_number, check_number, evaluate

__all__ = [
    "MAX_BLOCK",
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
# the most uniforms a run's stream draws at once, unless one request asks for more
MAX_BLOCK = 1 << 16


@dataclass
class Population:
    """Mutable optimizer state of a stack of T trials (see :func:`cuckoo_search`).

    Row t*n + i of X is nest i of trial t, with penalized objective
    F[t*n + i] and feasibility flag feasible[t*n + i].  Row t of the
    (T, d) best_position and entry t of the (T,) best_objective and
    best_feasible record the best point trial t ever evaluated, as a
    copy the population's later moves cannot touch; evaluations counts
    the evaluations of one trial, as all spend alike.  :meth:`record`
    keeps the records at the end of each iteration: each trial takes its
    first least nest, by slot, where strictly better than its record, so
    of nests that tie the lowest slot is recorded, and a tie with the
    record keeps the record.
    """

    X: np.ndarray
    F: np.ndarray
    feasible: np.ndarray
    best_position: np.ndarray
    best_objective: np.ndarray
    best_feasible: np.ndarray
    evaluations: int

    def replace(
        self, slots: np.ndarray, X: np.ndarray, F: np.ndarray, feasible: np.ndarray
    ) -> None:
        """Slot ``slots[c]`` takes candidate c where strictly better.

        Ties keep the incumbent, and the slots must be distinct.  Both walks keep their winners here.
        """
        kept = (F < self.F[slots]).nonzero()[0]  # indices: on a phase's few rows, cheaper than a mask
        slots = slots.take(kept)
        self.X[slots] = X.take(kept, axis=0)
        self.F[slots] = F.take(kept)
        self.feasible[slots] = feasible.take(kept)

    def record(self) -> None:
        """Each trial's first least nest, by slot, enters its (T,) record where strictly better."""
        n = len(self.F) // len(self.best_objective)
        best = self.F.reshape(-1, n).argmin(axis=1).tolist()
        # trial by trial, on scalars: for the few trials of a stack, cheaper than masks
        for k, (i, value) in enumerate(zip(best, self.best_objective.tolist())):
            i += k * n
            if self.F[i] < value:
                self.best_position[k] = self.X[i]
                self.best_objective[k], self.best_feasible[k] = self.F[i], self.feasible[i]


@dataclass(frozen=True)
class StopCriterion:
    """Termination rule: a budget, optionally with a target and a window.

    max_evaluations stops once the evaluation count reaches the budget; both optimizers
    spend it exactly (cuckoo search cuts the phase that reaches it short).  target_objective
    stops when the best penalized objective is <= the target.  stagnation_window stops after
    that many steps in a row without a best gain above 1e-12.  A step is an iteration of
    cuckoo search, which asks :meth:`reason` after each one, or an evaluation of hill
    climbing, which asks it after each new best and, under a window, after every evaluation.
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
        for key, cls in (("levy", LevyConfig), ("stop", StopCriterion)):
            if not isinstance(getattr(self, key), cls):
                raise TypeError(f"{key} must be a {cls.__name__}, got {getattr(self, key)!r}")
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
def _stack_rows(T: int, n: int, m: int) -> np.ndarray:
    """A read-only (T, m) array whose row t is t * n, the first row of trial t in a stack of n nests each."""
    rows = np.repeat(np.arange(0, T * n, n), m).reshape(T, m)
    rows.flags.writeable = False
    return rows


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
    From a stack's stream it starts T trials, and from a generator one;
    each trial's record starts as a copy of its best initial nest (first
    one on ties).
    """
    n, d = params.n, problem.dimension
    X = _fresh_nests(problem.lower, problem.width, n, rng)
    F, feasible = evaluate(problem, X, penalty)
    T = len(F) // n
    pop = Population(X, F, feasible, np.empty((T, d)), np.full(T, math.inf), np.zeros(T, dtype=bool), n)
    pop.record()
    return pop


def global_walk(
    x: np.ndarray,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    scale: np.ndarray,
) -> np.ndarray:
    """Heavy-tailed step of ``scale`` (see :func:`step_scale`) from each row of ``x`` (m, d).

    Consumes one signed step vector from ``rng`` per row, in one
    block: all magnitudes, then all signs (see
    :func:`cuckoo.levy.sample_levy_vector`).  The result is clamped to
    the bounds.  A stack passes its stream and (T, m, d) rows, and gets
    (T * m, d) candidates, trial by trial.
    """
    d = x.shape[-1]
    step = (x + scale * sample_levy_vector(d, params.levy, rng, x.shape[-2])).reshape(-1, d)
    np.maximum(step, problem.lower, out=step)  # clamp in place
    return np.minimum(step, problem.upper, out=step)


def local_walk(
    x_i: np.ndarray,
    x_j: np.ndarray,
    x_k: np.ndarray,
    problem: Problem,
    params: AlgorithmParams,
    rng: np.random.Generator,
    scale: np.ndarray,
) -> np.ndarray:
    """Gated step of ``scale`` from each row of ``x_i`` (m, d) along ``x_j - x_k``.

    Draws one block: m step factors s ~ U(0, 1), then m * d gate
    uniforms row by row.  A component moves only where its gate uniform
    falls below p_a.  With p_a = 0, or with x_j identical to x_k, the
    result equals x_i exactly.  The candidate is clamped to the bounds.
    A stack passes its stream and (T, m, d) rows, and gets (T * m, d)
    candidates, trial by trial.
    """
    d = problem.dimension
    if not (x_i.shape == x_j.shape == x_k.shape and x_i.ndim in (2, 3) and x_i.shape[-1] == d):
        raise ValueError("positions must be (m, d) or (T, m, d) rows of one shape, d the problem dimension")
    m = x_i.shape[-2]
    u = rng.random(m * (d + 1))  # step factors, then gates
    s = u[..., :m, None]
    gate = u[..., m:].reshape(x_i.shape) < params.p_a
    candidate = (x_i + scale * s * gate * (x_j - x_k)).reshape(-1, d)
    np.maximum(candidate, problem.lower, out=candidate)  # clamp in place
    return np.minimum(candidate, problem.upper, out=candidate)


def partner_pairs(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform ordered pairs (j, k) with j != k from range(n), as one (2, m) array.

    Draws one block of 2m uniforms: j is ``floor(u * n)`` of the first m,
    k is ``floor(u * (n - 1))`` of the rest, shifted up where it reaches j.
    From a stack's stream the array is (2, T, m), one row per trial.
    """
    pairs = (rng.random((2, m)) * _partner_ranges(n)).astype(np.intp).swapaxes(0, -2)
    j, k = pairs
    k += k >= j
    return pairs


@functools.cache
def _partner_ranges(n: int) -> np.ndarray:
    """The read-only (2, 1) column [[n], [n - 1]] that scales a block of partner uniforms."""
    return np.broadcast_to([[n], [n - 1]], (2, 1))


def winning_bids(targets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The best bid for each distinct target slot.

    Candidate c bids ``values[c]`` for slot ``targets[c]``.  For each
    slot the smallest value wins and ties go to the lowest candidate
    index.  Returns the winning candidates' indices, in slot order.
    """
    order = np.lexsort((values, targets))  # by slot, then value; stable
    slots = targets[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.not_equal(slots[1:], slots[:-1], out=first[1:])
    return order[first]


def _fresh_nests(lower: np.ndarray, width: np.ndarray, count: int, rng) -> np.ndarray:
    """What ``rng.uniform(lower, upper, (count, d))`` draws, at a fraction of the call cost.

    From a stack's stream: T * count rows, trial by trial, against (T * count, d) bound rows.
    """
    d = lower.shape[-1]
    return lower + width * rng.random(count * d).reshape(-1, d)


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


def abandon_fraction(pop: Population, X: np.ndarray, F: np.ndarray, feasible: np.ndarray) -> Population:
    """Replace each trial's worst nests with the scored fresh nests ``X``.

    Each of the T trials of ``pop`` takes its share of the rows, in trial
    order.  Row r of a share goes to the r-th least bad of the trial's
    replaced slots, so its last row replaces the worst nest; ties on the
    objective are broken by slot order (stable sort).
    :func:`cuckoo_search` passes ceil(p_a * n) rows per trial, or the
    evaluations left in its budget if fewer.  The record is not consulted
    or modified; evaluations grow by the replacement count.  Mutates and
    returns ``pop``.
    """
    T = len(pop.best_objective)
    n, count = len(pop.F) // T, len(F) // T
    slots = (pop.F.reshape(T, n).argsort(kind="stable")[:, n - count :] + _stack_rows(T, n, count)).ravel()
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

    The stop rule is checked after initialization and at the end of each
    iteration, which adds one history entry; inside an iteration only the
    budget acts (see the module docstring), and every point scored is
    counted.  The record is kept at the end of each iteration (and before
    an abandonment that replaces every nest): the first least nest, by
    slot, enters it where strictly better, so of nests that tie the lowest
    slot is recorded.  The same seed always reproduces the same result
    bit for bit.

    ``seed`` is an integer (not a bool) or None, which draws fresh entropy
    as ``numpy.random.default_rng(None)`` does.  Given a sequence of them,
    runs one trial per seed, in consecutive stacks (see the module docstring)
    of at most ``max(1, MAX_BLOCK // (2 * n * d))`` trials: a stack's global
    walk draws at most MAX_BLOCK uniforms unless one trial needs more.  The
    results come in seed order, each what that seed alone returns (none for
    no seeds).  Every seed is checked before any trial runs: anything else
    raises a TypeError.  An error in any trial stops the whole call.
    """
    if seed is None or _is_number(seed, integer=True):
        return _search(problem, params, [seed], penalty)[0]
    try:
        seeds = list(seed)
    except TypeError:  # not a sequence: reported as itself
        seeds = [seed]
    if not all(s is None or _is_number(s, integer=True) for s in seeds):
        raise TypeError(f"seed must be an integer or a sequence of integers (None allowed,"
                        f" bools not), got {seed!r}")
    cap = max(1, MAX_BLOCK // (2 * params.n * problem.dimension))
    return [r for i in range(0, len(seeds), cap) for r in _search(problem, params, seeds[i : i + cap], penalty)]


def _search(problem: Problem, params: AlgorithmParams, seeds: list,
            penalty: PenaltyConfig) -> list[RunResult]:
    """:func:`cuckoo_search` for a nonempty list of seeds, run as one stack (see the module docstring)."""
    T, n, d = len(seeds), params.n, problem.dimension
    # four iterations' uniforms at a time (one draws at most 4n(d + 1)), but at most
    # MAX_BLOCK: a larger request is drawn whole, so a large run holds about what it asks for
    block = min(16 * n * (d + 1), MAX_BLOCK)
    rng = _StackedStream([np.random.default_rng(s) for s in seeds], block)
    # (T * n, d) rows, so that the steps and the fresh nests combine operands of one shape;
    # the rows are identical, so any T * count of them serve T trials' count nests
    rows = (step_scale(problem, params), problem.lower, problem.width)
    scale, lower, width = np.repeat(np.stack(rows)[:, None], T * n, axis=1)
    stop = params.stop
    budget, window = stop.max_evaluations, stop.stagnation_window
    abandoned = abandonment_count(params.p_a, n)
    random_defenders = params.compare_to == "random"

    pop = initialize(problem, params, rng, penalty)
    # per trial in the stack: its seed's index, history and stall count
    ids, histories, stall = list(range(T)), [[] for _ in seeds], [0] * T
    spent = []  # the evaluations at each iteration's end, the same for every trial
    results = [None] * T
    T = 0  # no views yet
    while True:
        best = pop.best_objective.tolist()
        for history, value in zip(histories, best):
            history.append(value)
        spent.append(pop.evaluations)
        reasons = [stop.reason(value, pop.evaluations, s) for value, s in zip(best, stall)]
        if any(reasons):  # the trials that stop now leave the stack
            for k, (t, value, history, reason) in enumerate(zip(ids, best, histories, reasons)):
                if reason is not None:
                    results[t] = RunResult(pop.best_position[k].copy(), value, bool(pop.best_feasible[k]),
                                           history, spent.copy(), pop.evaluations, seeds[t], reason)
            kept = [reason is None for reason in reasons]
            if not any(kept):
                return results
            ids, histories = list(compress(ids, kept)), list(compress(histories, kept))
            stall = list(compress(stall, kept))
            rng.keep(kept)
            rows = np.repeat(kept, n)
            pop = Population(pop.X[rows], pop.F[rows], pop.feasible[rows], pop.best_position[kept],
                             pop.best_objective[kept], pop.best_feasible[kept], pop.evaluations)
        if len(ids) != T:  # the stack is new or changed: its (T, n) views
            T = len(ids)
            # row t * n + i is slot i of trial t, and column[t] is t * n
            nests, own, column = pop.X.reshape(T, n, d), np.arange(T * n).reshape(T, n), _stack_rows(T, n, 1)
            steps = scale[: T * n].reshape(T, n, d)

        m = min(n, budget - pop.evaluations)
        if m < n:  # the budget's last iteration: only the first m nests of each trial propose
            nests, steps, own = nests[:, :m], steps[:, :m], own[:, :m]
        candidates = global_walk(nests, problem, params, rng, steps)
        F, feasible = evaluate(problem, candidates, penalty)
        pop.evaluations += m
        # the defenders, as rows of the stack
        targets = ((rng.random(m) * n).astype(np.intp) + column if random_defenders else own).ravel()
        won = winning_bids(targets, F)
        pop.replace(targets[won], candidates[won], F[won], feasible[won])

        m = min(m, budget - pop.evaluations)
        if m:
            if m < nests.shape[1]:
                nests, steps, own = nests[:, :m], steps[:, :m], own[:, :m]
            x_j, x_k = pop.X.take(partner_pairs(n, m, rng) + column, axis=0)  # rows of the stack
            # nests is a view of pop.X, so it holds the global walk's winners
            candidates = local_walk(nests, x_j, x_k, problem, params, rng, steps)
            count = min(abandoned, budget - pop.evaluations - m)
            fresh = _fresh_nests(lower[: T * count], width[: T * count], count, rng)
            F, feasible = evaluate(problem, np.concatenate((candidates, fresh)), penalty)
            pop.evaluations += m
            # each nest keeps the better of itself and its local candidate
            pop.replace(own.ravel(), candidates, F[: T * m], feasible[: T * m])
            if count:
                if count == n:  # the abandonment replaces every nest
                    pop.record()
                abandon_fraction(pop, fresh, F[T * m :], feasible[T * m :])
        pop.record()
        if window is not None:
            stall = [0 if value < history[-1] - STAGNATION_EPS else s + 1
                     for value, history, s in zip(pop.best_objective.tolist(), histories, stall)]
