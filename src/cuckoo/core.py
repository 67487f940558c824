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
An iteration draws uniforms only, in this order: the global walk's
magnitudes then signs; the defenders (under ``compare_to="random"``);
the partners j then k; the local walk's step factors then gates (row by
row); one row per abandoned nest.  An index below n is ``floor(u * n)``.
None of these depend on the nests, so :func:`cuckoo_search` draws up to
BLOCK_ITERATIONS whole iterations' uniforms from each generator at once
(``Generator.random`` gives the same values however its draws are split)
and turns that block into its steps, defender and partner rows, local
walk factors and fresh nests with array operations over all its
iterations (see :func:`global_walk`, :func:`local_walk` and
:func:`partner_pairs`).  Each iteration then does only the work that
depends on the nests: it adds and clamps, evaluates, keeps the winners,
abandons and records.  The budget's last iteration, the only one whose
phases the budget can cut, is a block of its own at its cut sizes.

One loop serves one seed and many.  :func:`cuckoo_search` runs its
trials as stacks it sizes, an integer seed as a stack of one: trial t owns
rows t*n ... t*n + n - 1 of the arrays and entry t of the records, each
:func:`evaluate` call scores the candidates of every trial, and each
trial keeps its own generator and draw order, so it ends exactly as it
would alone.  The budget, which all trials spend alike, cuts the same
phase of each; at the end of an iteration, a trial for which
:meth:`StopCriterion.reason` names a reason leaves the stack: its rows,
record and generator are dropped, and so are its uniforms of the drawn
block, whose inputs are then rebuilt for the rows of the trials left.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Optional, Sequence

import numpy as np

from .levy import LevyConfig, sample_levy_vector
from .problems import DEFAULT_PENALTY, PenaltyConfig, Problem, _is_number, check_number, evaluate

__all__ = [
    "BLOCK_ITERATIONS",
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
    "iteration_draws",
    "local_walk",
    "partner_pairs",
    "step_scale",
    "winning_bids",
]

# an objective improvement at or below this is treated as stagnation
STAGNATION_EPS = 1e-12
# the most uniforms a stack draws at once, unless one iteration of its trials needs more
MAX_BLOCK = 1 << 16
# the most iterations whose uniforms a stack draws and transforms at once: the block's
# numpy calls then cost little per iteration while its arrays stay small; at rastrigin-5,
# blocks of 32 to 128 iterations measured within 2% of 16 (BENCH_27.json)
BLOCK_ITERATIONS = 16


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
    rng: np.random.Generator | Sequence[np.random.Generator],
    penalty: PenaltyConfig = DEFAULT_PENALTY,
) -> Population:
    """Uniform random population inside the bounds, evaluated as one batch.

    Draws one block of ``dimension`` uniforms per nest, in slot order.
    From a generator it starts one trial, and from a stack's list of
    generators one trial each; each trial's record starts as a copy of
    its best initial nest (first one on ties).
    """
    n, d = params.n, problem.dimension
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    X = problem.lower + problem.width * _uniforms(rngs, 1, n * d).reshape(-1, d)
    F, feasible = evaluate(problem, X, penalty)
    T = len(F) // n
    pop = Population(X, F, feasible, np.empty((T, d)), np.full(T, math.inf), np.zeros(T, dtype=bool), n)
    pop.record()
    return pop


def global_walk(u: np.ndarray, params: AlgorithmParams, scale: np.ndarray) -> np.ndarray:
    """The heavy-tailed steps of ``scale`` (see :func:`step_scale`) that uniforms ``u`` give.

    ``u`` is (2, m, d), or (B, 2, m, d) for B blocks: m * d magnitudes,
    then m * d signs, row by row (see :func:`cuckoo.levy.sample_levy_vector`),
    for (m, d) or (B, m, d) steps.  A nest x proposes x + step, clamped to
    the bounds.
    """
    return scale * sample_levy_vector(u.shape[-1], params.levy, u, u.shape[-2])


def local_walk(u: np.ndarray, params: AlgorithmParams, scale: np.ndarray) -> np.ndarray:
    """The gated step factors of ``scale`` that uniforms ``u`` give.

    ``u`` is (..., m * (d + 1)): m step factors s ~ U(0, 1), then m * d
    gate uniforms row by row, d the length of ``scale``.  A component's
    factor is ``scale * s`` where its gate uniform falls below p_a, and 0
    elsewhere; the result is (..., m, d).  A nest x_i with partners x_j
    and x_k proposes x_i + factor * (x_j - x_k), clamped to the bounds, so
    with p_a = 0, or with x_j identical to x_k, it proposes x_i exactly.
    """
    d = scale.shape[-1]
    m, rest = divmod(u.shape[-1], d + 1)
    if rest:
        raise ValueError(f"uniforms must be m * (d + 1) per row, d = {d}, got {u.shape[-1]}")
    return scale * u[..., :m, None] * (u[..., m:].reshape(*u.shape[:-1], m, d) < params.p_a)


def partner_pairs(n: int, u: np.ndarray) -> np.ndarray:
    """Uniform ordered pairs (j, k) with j != k from range(n), from uniforms ``u`` (..., 2, m).

    j is ``floor(u * n)`` of the first m, k is ``floor(u * (n - 1))`` of
    the rest, shifted up where it reaches j; the result is (..., 2, m).
    """
    pairs = (u * _partner_ranges(n)).astype(np.intp)
    j, k = pairs[..., 0, :], pairs[..., 1, :]
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


def _uniforms(rngs: Sequence[np.random.Generator], K: int, count: int) -> np.ndarray:
    """(K, T, count) uniforms: [k, t] is the k-th ``count`` uniforms generator t draws next."""
    u = np.empty((len(rngs), K * count))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    return np.ascontiguousarray(u.reshape(len(rngs), K, count).swapaxes(0, 1))


def _iteration_sizes(params: AlgorithmParams, left: float) -> tuple[int, int, int]:
    """How many nests an iteration with ``left`` evaluations left moves in each phase.

    The global walk's proposers, the local walk's and the abandoned nests:
    (n, n, ceil(p_a * n)), cut where the budget runs out.
    """
    g = min(params.n, left)
    local = min(g, left - g)
    return g, local, min(abandonment_count(params.p_a, params.n), left - g - local)


def iteration_draws(params: AlgorithmParams, dimension: int, left: float = math.inf) -> int:
    """The uniforms one trial draws in an iteration with ``left`` evaluations left, by default a whole one.

    Of the sizes (g, l, c) of :func:`_iteration_sizes`: 2gd Levy, g
    defenders under compare_to="random", 2l partners, l(d + 1) local walk
    and cd fresh ones, so a whole iteration draws 3nd + 4n + ceil(p_a * n) * d.
    """
    g, local, c = _iteration_sizes(params, left)
    d = dimension
    return (2 * d + (params.compare_to == "random")) * g + (d + 3) * local + c * d


def _inputs(u: np.ndarray, sizes: tuple, problem: Problem, params: AlgorithmParams) -> list[tuple]:
    """The random inputs of the iterations whose uniforms are ``u`` (K, T, draws), one tuple each.

    An iteration of ``sizes`` (g, l, c) gets the global walk's (T * g, d)
    steps and (T * g,) defenders, the local walk's (3, T * l) nests and
    partners j and k and its (T * l, d) factors, and a (T * (l + c), d)
    batch to score whose last T * c rows are the fresh nests.  Positions
    are rows of the stack, trial by trial.
    """
    (K, T, _), n, d = u.shape, params.n, problem.dimension
    g, local, c = sizes
    random_defenders = params.compare_to == "random"
    ends = list(accumulate((2 * g * d, g * random_defenders, 2 * local, local * (d + 1))))
    levy, defenders, pairs, walk, fresh = (u[..., a:b] for a, b in zip([0, *ends], [*ends, None]))
    column = _stack_rows(T, n, 1)  # (T, 1): each trial's first row
    scale = step_scale(problem, params)
    steps = global_walk(levy.reshape(K * T, 2, g, d), params, scale).reshape(K, T * g, d)
    slots = (defenders * n).astype(np.intp) if random_defenders else np.broadcast_to(np.arange(g), (K, T, g))
    targets = (slots + column).reshape(K, T * g)
    rows = np.empty((K, 3, T, local), dtype=np.intp)  # each nest of the local walk, then its partners
    rows[:, 0] = np.arange(local) + column
    rows[:, 1:] = (partner_pairs(n, pairs.reshape(K, T, 2, local)) + column[:, None]).swapaxes(1, 2)
    factors = local_walk(walk, params, scale).reshape(K, T * local, d)
    # the local walk's candidates go before the fresh nests, to be scored with them
    batches = np.empty((K, T * (local + c), d))
    np.add(problem.lower, problem.width * fresh.reshape(K, T * c, d), out=batches[:, T * local :])
    return list(zip(steps, targets, rows.reshape(K, 3, T * local), factors, batches))


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
    of at most ``max(1, MAX_BLOCK // (2 * n * d))`` trials, whose Levy steps
    of one iteration are at most MAX_BLOCK values unless one trial's are more.
    A stack draws its trials' uniforms in blocks of whole iterations, at most
    BLOCK_ITERATIONS of them and at most MAX_BLOCK uniforms unless one
    iteration needs more, so the draws, and the results, do not depend on
    how the iterations are blocked.  The
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
    rngs = [np.random.default_rng(s) for s in seeds]
    lower, upper = problem.lower, problem.upper
    stop = params.stop
    budget, window = stop.max_evaluations, stop.stagnation_window
    abandoned = abandonment_count(params.p_a, n)
    draws = iteration_draws(params, d)

    pop = initialize(problem, params, rngs, penalty)
    # per trial in the stack: its seed's index, history and stall count
    ids, histories, stall = list(range(T)), [[] for _ in seeds], [0] * T
    spent = []  # the evaluations at each iteration's end, the same for every trial
    results = [None] * T
    # the drawn block: its uniforms, one tuple of inputs per iteration, and the next one's index
    u, block, i = np.empty((0, T, 0)), [], 0
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
            stall, rngs = list(compress(stall, kept)), list(compress(rngs, kept))
            rows = np.repeat(kept, n)
            pop = Population(pop.X[rows], pop.F[rows], pop.feasible[rows], pop.best_position[kept],
                             pop.best_objective[kept], pop.best_feasible[kept], pop.evaluations)
            # the rest of the block, for the trials left: its stack rows are renumbered
            u, i = u[i:, kept], 0
            block = _inputs(u, sizes, problem, params) if len(u) else []
            T = len(ids)
        if i == len(block):  # the block is used up: draw the next
            left = budget - pop.evaluations
            g, local, count = sizes = _iteration_sizes(params, left)
            # whole iterations, up to BLOCK_ITERATIONS and MAX_BLOCK uniforms; else the budget's last
            K = max(1, min(left // (2 * n + abandoned), BLOCK_ITERATIONS, MAX_BLOCK // (T * draws)))
            u, i = _uniforms(rngs, K, iteration_draws(params, d, left)), 0
            block = _inputs(u, sizes, problem, params)
        steps, targets, partners, factors, batch = block[i]
        i += 1

        candidates = (pop.X if g == n else pop.X.reshape(T, n, d)[:, :g].reshape(-1, d)) + steps
        np.maximum(candidates, lower, out=candidates)  # clamp in place
        np.minimum(candidates, upper, out=candidates)
        F, feasible = evaluate(problem, candidates, penalty)
        pop.evaluations += g
        won = winning_bids(targets, F)
        pop.replace(targets[won], candidates[won], F[won], feasible[won])

        if local:
            # the global walk's winners, and their partners
            x_i = pop.X if local == n else pop.X.take(partners[0], axis=0)
            x_j, x_k = pop.X.take(partners[1:], axis=0)
            candidates, fresh = batch[: T * local], batch[T * local :]
            np.add(x_i, factors * (x_j - x_k), out=candidates)
            np.maximum(candidates, lower, out=candidates)
            np.minimum(candidates, upper, out=candidates)
            F, feasible = evaluate(problem, batch, penalty)
            pop.evaluations += local
            # each nest keeps the better of itself and its local candidate
            pop.replace(partners[0], candidates, F[: T * local], feasible[: T * local])
            if count:
                if count == n:  # the abandonment replaces every nest
                    pop.record()
                abandon_fraction(pop, fresh, F[T * local :], feasible[T * local :])
        pop.record()
        if window is not None:
            stall = [0 if value < history[-1] - STAGNATION_EPS else s + 1
                     for value, history, s in zip(pop.best_objective.tolist(), histories, stall)]
