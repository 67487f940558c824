"""Benchmark problems, constraint handling and the rule for numeric settings.

A :class:`Problem` bundles an objective with box bounds and optional
constraint functions.  Constraints enter the search through a quadratic
exterior penalty (:func:`evaluate`), so optimizers only ever see a plain
scalar objective plus a feasibility flag.

Objective and constraint callables take coordinates on the first axis:
one point ``x`` of shape (d,) gives a scalar, and a batch passed as
``X.T`` of shape (d, m) gives one value per point, shape (m,).  Written
with indexing (``x[0]``), unpacking (``w, D, N = x``), ``axis=0``
reductions and numpy ufuncs, one function serves both.  Powers are
written as products: scalar and array ``**`` can round differently in
the last bit, and a batch row must score exactly like the same point.
A point is scored in Python floats (``x.tolist()``), which round as numpy
scalars do at a fraction of their cost.  The engineering designs always do
so; the scalable functions do below FOLD_LIMIT coordinates, where numpy sums
by a left fold as a Python loop does and ``math.cos`` matches ``np.cos``.
``math.exp`` does not match ``np.exp``, so Ackley keeps numpy's.

The corpus covers four classic unconstrained test functions (sphere,
Rosenbrock, Ackley, Rastrigin, all scalable) and two constrained
engineering designs (tension/compression spring, welded beam) with their
standard bounds and best-known reference points.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import InitVar, dataclass
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BEST_KNOWN",
    "EvaluationError",
    "PenaltyConfig",
    "Problem",
    "corpus",
    "evaluate",
    "get_problem",
    "problem_names",
]

Objective = Callable[[np.ndarray], "float | np.ndarray"]


def _is_number(value, integer: bool) -> bool:
    """A number (an integer if ``integer``) that is not a bool, which YAML reads ``yes`` as."""
    return isinstance(value, Integral if integer else Real) and not isinstance(value, bool)


def check_number(config, name: str, interval: str, *, integer=False, optional=False,
                 error=ValueError) -> None:
    """Check the numeric setting ``config.<name>`` and store it as a plain int or float.

    The setting must be a number (an integer if ``integer``) in ``interval``,
    written like ``"(0, 1]"``, or None if ``optional``; anything else raises
    ``error``.  An integer must also fit an array size (``sys.maxsize``).  A
    numpy scalar is stored as the Python number it equals.
    """
    value = getattr(config, name)
    if value is None and optional:
        return
    low, high = (float(end) for end in interval[1:-1].split(","))
    try:  # converted before the check, so an integer too large for a float fails it
        number = (int if integer else float)(value) if _is_number(value, integer) else None
    except OverflowError:
        number = None
    if number is None or not (
        (low <= number if interval[0] == "[" else low < number)
        and (number <= high if interval[-1] == "]" else number < high)
        and not (integer and number > sys.maxsize)
    ):
        kind = "an integer" if integer else "a number"
        raise error(f"{name} must be {kind} in {interval}, got {value!r}")
    object.__setattr__(config, name, number)


class EvaluationError(RuntimeError):
    """Objective or penalty evaluation produced a non-finite value."""

    def __init__(self, message: str, x) -> None:
        super().__init__(message)
        self.x = np.array(x, dtype=float)


@dataclass(frozen=True)
class PenaltyConfig:
    """Quadratic exterior penalty setting.

    Violations are squared, summed, and scaled by penalty_weight.  The
    weight must be large relative to objective curvature: a quadratic
    exterior penalty is flat at the boundary, so its unconstrained
    optimum sits slightly outside the feasible set at distance roughly
    (objective gradient) / (2 * weight).  The default keeps that offset
    below float-noise scale for objectives of order one.
    """

    penalty_weight: float = 1e8

    def __post_init__(self) -> None:
        check_number(self, "penalty_weight", "(0, inf)")


DEFAULT_PENALTY = PenaltyConfig()
# A sampled point never lands exactly on a surface h(x) = 0, so an equality is
# met within this band, the one the constrained-benchmark literature uses (CEC
# 2006).  No corpus problem has an equality; a caller who needs another band
# writes the inequality |h(x)| - band <= 0 itself.
EQ_TOLERANCE = 1e-4


@dataclass(frozen=True, eq=False)
class Problem:
    """A box-bounded minimization problem.

    bounds is a (dimension, 2) array of [lower, upper] rows with
    lower < upper everywhere.  Constraints are satisfied when g(x) <= 0.
    An equality h(x) = 0, passed as equality_constraints, is stored after
    them as the inequality ``|h(x)| - EQ_TOLERANCE <= 0``, so a problem
    holds one constraint tuple and equality_constraints reads ().  Every
    callable takes one point (d,) and returns a scalar, or a batch of
    points as columns (d, m) and returns shape (m,); for example
    ``lambda x: x[0] * x[0] + x[1]`` does both.  The hill climber passes
    its working point, which changes after the call returns: a callable
    that keeps a point must keep a copy.  lower, upper and their
    difference width are read-only (d,) arrays derived from bounds.
    """

    name: str
    bounds: np.ndarray
    objective: Objective
    inequality_constraints: tuple[Objective, ...] = ()
    equality_constraints: InitVar[tuple[Objective, ...]] = ()

    def __post_init__(self, equality_constraints) -> None:
        arr = np.array(self.bounds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"bounds must have shape (d, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("bounds must be finite")
        if not np.all(arr[:, 0] < arr[:, 1]):
            raise ValueError("each lower bound must be strictly below its upper bound")
        width = arr[:, 1] - arr[:, 0]
        arr.setflags(write=False)
        width.setflags(write=False)
        # attributes, not properties: the optimizers read them in every phase
        for name, value in zip(("bounds", "lower", "upper", "width"), (arr, *arr.T, width)):
            object.__setattr__(self, name, value)
        folded = (lambda x, h=h: abs(h(x)) - EQ_TOLERANCE for h in equality_constraints)
        object.__setattr__(self, "inequality_constraints", (*self.inequality_constraints, *folded))

    @property
    def dimension(self) -> int:
        return self.bounds.shape[0]


def evaluate(problem: Problem, x, penalty: PenaltyConfig = DEFAULT_PENALTY):
    """Penalized objective at one point ``x`` (d,) or at each row of a batch (m, d).

    For a point, returns ``(value, feasible)`` as a float and a bool,
    where value is the raw objective plus ``penalty_weight`` times the
    squared violations summed in constraint order.  A constraint is
    satisfied when ``g(x) <= 0`` (so ``-inf`` is satisfied); any other
    value, NaN included, is a violation, and feasible is True iff no
    constraint is violated.  For a batch, returns the same two as arrays
    of shape (m,), computed by passing ``x.T`` to each callable once; a
    callable that returns another shape raises ValueError, as an array
    for a point does (a scalar is never broadcast).  A batch row scores
    exactly like the same point, and like the same row inside any larger
    batch; a point whose callable raises ZeroDivisionError or ValueError,
    as Python floats and ``math.cos`` at infinity do, is scored as a batch.
    Raises :class:`EvaluationError` if the penalized value is NaN or
    infinite, as a NaN or ``+inf`` constraint value makes it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return _evaluate_batch(problem, x, penalty)
    try:
        value = float(problem.objective(x))
        violation_sq = 0.0
        feasible = True
        for g in problem.inequality_constraints:
            v = float(g(x))
            if not v <= 0.0:  # NaN counts as violated
                violation_sq += v * v
                feasible = False
    except (ZeroDivisionError, ValueError):  # where numpy gives +-inf or NaN
        values, feasible = _evaluate_batch(problem, x[None], penalty)
        return float(values[0]), bool(feasible[0])
    except TypeError:  # float() of an array: call again up to the first non-scalar, and name it
        callables = (problem.objective, *problem.inequality_constraints)
        with contextlib.suppress(TypeError):  # raised by a callable itself, not by float()
            _reject_shapes(problem, (f(x) for f in callables), ())
        raise
    if problem.inequality_constraints:  # as a batch adds it: -0.0 stays without
        value += penalty.penalty_weight * violation_sq
    if not math.isfinite(value):
        raise EvaluationError(
            f"non-finite penalized objective ({value!r}) on {problem.name!r}", x
        )
    return value, feasible


def _evaluate_batch(
    problem: Problem, X: np.ndarray, penalty: PenaltyConfig
) -> tuple[np.ndarray, np.ndarray]:
    columns = X.T
    count = X.shape[0]
    # a copy, so that values returned without a penalty pass never alias the input
    values = np.array(problem.objective(columns), dtype=float)
    if values.shape != (count,):
        _reject_shapes(problem, [values], (count,))
    feasible = None
    if problem.inequality_constraints:
        results = [g(columns) for g in problem.inequality_constraints]
        try:
            G = np.array(results, dtype=float)
        except ValueError:  # results of different shapes, or not numbers
            _reject_shapes(problem, results, (count,))
            raise
        if G.shape != (len(results), count):
            _reject_shapes(problem, results, (count,))
        # NaN fails ``<= 0``: it counts as violated and reaches the finiteness check
        satisfied = G <= 0.0
        feasible = np.logical_and.reduce(satisfied, axis=0)
        terms = np.maximum(G, 0.0)
        terms *= terms
        # accumulate adds row after row, in constraint order, as the point path
        # does; add.reduce(axis=0) may add a (k, 1) stack in another order
        values += penalty.penalty_weight * np.add.accumulate(terms, axis=0)[-1]
    finite = np.isfinite(values)
    if np.count_nonzero(finite) != count:
        row = int(np.argmin(finite))
        raise EvaluationError(
            f"non-finite penalized objective ({float(values[row])!r}) on {problem.name!r}", X[row]
        )
    # without constraints every point is feasible, and finite is all True here
    return values, finite if feasible is None else feasible


def _reject_shapes(problem: Problem, results, expected: tuple) -> None:
    """Raise ValueError at the first result whose shape is not ``expected``."""
    for result in results:
        shape = np.shape(result)
        if shape != expected:
            raise ValueError(f"a callable of {problem.name!r} returned shape {shape} where {expected} was due;"
                             f" given (d, m) coordinates it must return shape (m,), and given (d,) a scalar")


# --- unconstrained test functions -------------------------------------------
# numpy's add.reduce sums fewer than 8 terms left to right from 0.0, as a Python
# loop does; from 8 on it adds in 8 lanes, so a longer point keeps numpy's sum.
FOLD_LIMIT = 8
TWO_PI = 2.0 * math.pi


def _scalable(point: Callable[[list], float], batch: Objective, dimension: int) -> Objective:
    """Score a (d,) point's Python floats with ``point`` below FOLD_LIMIT, all else with ``batch``."""
    if dimension >= FOLD_LIMIT:
        return batch
    return lambda x: point(x.tolist()) if x.ndim == 1 else batch(x)


def sphere(dimension: int = 10) -> Problem:
    """Sum of squares on [-5.12, 5.12]^d.  Global minimum f(0) = 0."""
    _check_dimension(dimension)

    def point(x: list) -> float:
        total = 0.0
        for v in x:
            total += v * v
        return total

    def batch(x: np.ndarray):
        return np.add.reduce(x * x, axis=0)

    return Problem("sphere", _box(-5.12, 5.12, dimension), _scalable(point, batch, dimension))


def rosenbrock(dimension: int = 10) -> Problem:
    """Banana-valley function on [-5, 10]^d, d >= 2.

    sum(100 * (x[i+1] - x[i]^2)^2 + (1 - x[i])^2); minimum f(1,...,1) = 0.
    """
    _check_dimension(dimension, minimum=2)

    def point(x: list) -> float:
        total = 0.0
        for head, tail in zip(x, x[1:]):
            valley = tail - head * head
            total += 100.0 * (valley * valley) + (1.0 - head) * (1.0 - head)
        return total

    def batch(x: np.ndarray):
        head = x[:-1]
        valley = x[1:] - head * head
        return np.add.reduce(100.0 * (valley * valley) + (1.0 - head) * (1.0 - head), axis=0)

    return Problem("rosenbrock", _box(-5.0, 10.0, dimension), _scalable(point, batch, dimension))


def ackley(dimension: int = 10) -> Problem:
    """Ackley function on [-32.768, 32.768]^d with a = 20, b = 0.2, c = 2*pi.

    Nearly flat far field with one deep funnel; minimum f(0) = 0.
    """
    _check_dimension(dimension)

    def point(x: list) -> float:
        squares = cosines = 0.0
        for v in x:
            squares += v * v
            cosines += math.cos(TWO_PI * v)
        # math.exp rounds differently from np.exp, so the two exponentials stay numpy's
        far, near = float(np.exp(-0.2 * math.sqrt(squares / len(x)))), float(np.exp(cosines / len(x)))
        return -20.0 * far - near + 20.0 + math.e

    def batch(x: np.ndarray):
        d = x.shape[0]
        root_mean_sq = np.sqrt(np.add.reduce(x * x, axis=0) / d)
        cos_mean = np.add.reduce(np.cos(TWO_PI * x), axis=0) / d
        return -20.0 * np.exp(-0.2 * root_mean_sq) - np.exp(cos_mean) + 20.0 + math.e

    return Problem("ackley", _box(-32.768, 32.768, dimension), _scalable(point, batch, dimension))


def rastrigin(dimension: int = 10) -> Problem:
    """Rastrigin function on [-5.12, 5.12]^d.

    10*d + sum(x_i^2 - 10*cos(2*pi*x_i)); a regular grid of local minima
    around the global minimum f(0) = 0.
    """
    _check_dimension(dimension)

    def point(x: list) -> float:
        total = 0.0
        for v in x:
            total += v * v - 10.0 * math.cos(TWO_PI * v)
        return 10.0 * len(x) + total

    def batch(x: np.ndarray):
        return 10.0 * x.shape[0] + np.add.reduce(x * x - 10.0 * np.cos(TWO_PI * x), axis=0)

    return Problem("rastrigin", _box(-5.12, 5.12, dimension), _scalable(point, batch, dimension))


# --- constrained engineering designs -----------------------------------------
# Each callable turns a point into Python floats first; a batch's rows are
# indexed, not unpacked, as unpacking every row slows the batch path by ~10%.

def _sqrt(v):
    """``np.sqrt`` of an array, or of a float as a float (NaN below zero, as numpy gives)."""
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v) if v >= 0.0 else math.nan


def spring_design() -> Problem:
    """Tension/compression spring weight minimization (Arora's formulation).

    Variables: wire diameter w in [0.05, 2], mean coil diameter D in
    [0.25, 1.3], number of active coils N in [2, 15] (treated as
    continuous).  Objective (N + 2) * D * w^2; four inequality
    constraints on shear stress, surge frequency, deflection, and
    outside diameter.
    """

    def f(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return (x[2] + 2.0) * x[1] * x[0] * x[0]

    def deflection(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        D = x[1]
        w2 = x[0] * x[0]
        return 1.0 - D * D * D * x[2] / (71785.0 * (w2 * w2))

    def shear_stress(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        w, D = x[0], x[1]
        w2 = w * w
        return (
            (4.0 * (D * D) - w * D) / (12566.0 * (D * (w2 * w) - w2 * w2))
            + 1.0 / (5108.0 * w2)
            - 1.0
        )

    def surge_frequency(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return 1.0 - 140.45 * x[0] / (x[1] * x[1] * x[2])

    def outside_diameter(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return (x[0] + x[1]) / 1.5 - 1.0

    gs = (deflection, shear_stress, surge_frequency, outside_diameter)
    bounds = [(0.05, 2.0), (0.25, 1.3), (2.0, 15.0)]
    return Problem("spring_design", bounds, f, inequality_constraints=gs)


def welded_beam() -> Problem:
    """Welded beam fabrication cost minimization (Rao's formulation as
    standardized by Coello).

    Variables: weld thickness h in [0.1, 2], weld length l in [0.1, 10],
    bar height t in [0.1, 10], bar thickness b in [0.1, 2].  Constants:
    load P = 6000 lb, overhang L = 14 in, E = 30e6 psi, G = 12e6 psi,
    allowable shear 13600 psi, allowable bending 30000 psi, allowable
    deflection 0.25 in.  Seven inequality constraints cover weld shear
    stress, bar bending stress, h <= b, a side cost cap, minimum weld
    thickness, tip deflection, and buckling load.
    """
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    root2, root_e_4g = math.sqrt(2.0), math.sqrt(E / (4.0 * G))  # constants, computed once
    bending_moment, deflection_load = 6.0 * P * L, 4.0 * P * (L * L * L)

    def f(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return 1.10471 * x[0] * x[0] * x[1] + 0.04811 * x[2] * x[3] * (14.0 + x[1])

    def weld_shear(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        h, l, t = x[0], x[1], x[2]
        half_ht = (h + t) / 2.0
        tau1 = P / (root2 * h * l)
        moment = P * (L + l / 2.0)
        radius = _sqrt(l * l / 4.0 + half_ht * half_ht)
        polar = 2.0 * (root2 * h * l * (l * l / 12.0 + half_ht * half_ht))
        tau2 = moment * radius / polar
        return _sqrt(tau1 * tau1 + 2.0 * tau1 * tau2 * l / (2.0 * radius) + tau2 * tau2) - 13600.0

    def bending_stress(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return bending_moment / (x[3] * (x[2] * x[2])) - 30000.0

    def thickness_order(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return x[0] - x[3]

    def side_cost(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return 0.10471 * (x[0] * x[0]) + 0.04811 * x[2] * x[3] * (14.0 + x[1]) - 5.0

    def minimum_weld(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return 0.125 - x[0]

    def tip_deflection(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        return deflection_load / (E * (x[2] * x[2] * x[2]) * x[3]) - 0.25

    def buckling_load(x: np.ndarray):
        x = x.tolist() if x.ndim == 1 else x
        t, b = x[2], x[3]
        b3 = b * b * b
        return P - (4.013 * E * _sqrt(t * t * (b3 * b3) / 36.0) / (L * L)) * (
            1.0 - (t / (2.0 * L)) * root_e_4g
        )

    gs = (weld_shear, bending_stress, thickness_order, side_cost, minimum_weld,
          tip_deflection, buckling_load)
    bounds = [(0.1, 2.0), (0.1, 10.0), (0.1, 10.0), (0.1, 2.0)]
    return Problem("welded_beam", bounds, f, inequality_constraints=gs)


# Best-known solutions reported across the structural-optimization
# benchmarking literature (spring point from the He & Wang lineage, beam
# point from the Coello-standardized formulation).  Used only as
# self-consistency references: we evaluate OUR formulation at these
# points; no literature-optimality claim is made.  At this 6-digit
# rounding the spring point leaves one constraint violated by ~2e-5.
BEST_KNOWN: dict[str, tuple[np.ndarray, float]] = {
    "spring_design": (np.array([0.051690, 0.356750, 11.287126]), 0.012665),
    "welded_beam": (np.array([0.205730, 3.470489, 9.036624, 0.205730]), 1.724852),
}


_SCALABLE: dict[str, Callable[[int], Problem]] = {
    "sphere": sphere,
    "rosenbrock": rosenbrock,
    "ackley": ackley,
    "rastrigin": rastrigin,
}
FIXED_DESIGNS: dict[str, Callable[[], Problem]] = {
    "spring_design": spring_design,
    "welded_beam": welded_beam,
}

DEFAULT_DIMENSION = 10


def problem_names() -> list[str]:
    """Names accepted by :func:`get_problem`."""
    return list(_SCALABLE) + list(FIXED_DESIGNS)


def get_problem(name: str, dimension: Optional[int] = None) -> Problem:
    """Build a corpus problem by name.

    Scalable problems default to dimension 10; the engineering designs
    have fixed dimensions and reject any other request.
    """
    if name in _SCALABLE:
        return _SCALABLE[name](DEFAULT_DIMENSION if dimension is None else dimension)
    if name in FIXED_DESIGNS:
        built = FIXED_DESIGNS[name]()
        wrong = not _is_number(dimension, integer=True) or dimension != built.dimension
        if dimension is not None and wrong:
            raise ValueError(
                f"{name} has fixed dimension {built.dimension}, got request for {dimension}"
            )
        return built
    raise ValueError(f"unknown problem {name!r}; available: {', '.join(problem_names())}")


def corpus() -> list[Problem]:
    """All corpus problems at their default dimensions."""
    return [get_problem(name) for name in problem_names()]


def _box(lo: float, hi: float, dimension: int) -> list[tuple[float, float]]:
    return [(lo, hi)] * dimension


def _check_dimension(dimension: int, minimum: int = 1) -> None:
    if not _is_number(dimension, integer=True) or not minimum <= dimension <= sys.maxsize:
        raise ValueError(
            f"dimension must be an integer in [{minimum}, {sys.maxsize}], got {dimension!r}"
        )
