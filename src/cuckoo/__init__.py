"""Cuckoo search: heavy-tailed global optimization with a benchmark kit.

The pieces: :mod:`cuckoo.levy` (step-length sampling), :mod:`cuckoo.core`
(the optimizer), :mod:`cuckoo.problems` (benchmark corpus and penalty
handling), :mod:`cuckoo.baselines` (hill-climbing comparison), and
:mod:`cuckoo.harness` (seeded experiment runner behind the ``cuckoo``
command).
"""

from .baselines import HillClimbParams, hill_climb_restart
from .core import (
    AlgorithmParams,
    Population,
    RunResult,
    StopCriterion,
    cuckoo_search,
)
from .harness import ExperimentSpec, load_experiment, run_experiment, summarize
from .levy import LevyConfig, sample_levy_vector, sample_step_length
from .problems import (
    BEST_KNOWN,
    EvaluationError,
    PenaltyConfig,
    Problem,
    corpus,
    evaluate,
    get_problem,
    problem_names,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams",
    "BEST_KNOWN",
    "EvaluationError",
    "ExperimentSpec",
    "HillClimbParams",
    "LevyConfig",
    "PenaltyConfig",
    "Population",
    "Problem",
    "RunResult",
    "StopCriterion",
    "corpus",
    "cuckoo_search",
    "evaluate",
    "get_problem",
    "hill_climb_restart",
    "load_experiment",
    "problem_names",
    "run_experiment",
    "sample_levy_vector",
    "sample_step_length",
    "summarize",
    "__version__",
]
