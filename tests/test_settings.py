"""The numeric settings of every config dataclass follow one rule."""

from dataclasses import replace

import numpy as np
import pytest

from cuckoo.baselines import HillClimbParams
from cuckoo.core import AlgorithmParams, StopCriterion
from cuckoo.harness import ConfigError, spec_from_dict
from cuckoo.levy import LevyConfig
from cuckoo.problems import PenaltyConfig

SPEC = spec_from_dict(
    {"problems": ["sphere"], "algorithms": ["cuckoo"], "trials": 2, "base_seed": 0,
     "stop": {"max_evaluations": 100}}
)
STOP = StopCriterion(max_evaluations=100)

# (a valid config, a numeric field of it, a valid value of the field's type)
FIELDS = [
    (STOP, "max_evaluations", 7),
    (STOP, "target_objective", -0.5),
    (STOP, "stagnation_window", 7),
    (AlgorithmParams(), "n", 7),
    (AlgorithmParams(), "p_a", 0.5),
    (AlgorithmParams(), "alpha", 0.5),
    (LevyConfig(), "tail_exponent", 2.5),
    (LevyConfig(), "min_step", 0.5),
    (HillClimbParams(), "step_fraction", 0.5),
    (HillClimbParams(), "shrink_factor", 0.5),
    (HillClimbParams(), "stall_limit", 7),
    (PenaltyConfig(), "penalty_weight", 0.5),
    (PenaltyConfig(), "eq_tolerance", 0.5),
    (SPEC, "trials", 7),
    (SPEC, "base_seed", 7),
    (SPEC, "workers", 7),
]
OPTIONAL = {"target_objective", "stagnation_window", "alpha"}


@pytest.mark.parametrize(
    "config, name, value", FIELDS, ids=[f"{type(c).__name__}.{n}" for c, n, _ in FIELDS]
)
def test_numeric_setting(config, name, value):
    error = ConfigError if config is SPEC else ValueError
    for bad in (True, str(value), float("nan")) + (() if name in OPTIONAL else (None,)):
        with pytest.raises(error, match=f"^{name} must be an? ") as excinfo:
            replace(config, **{name: bad})
        assert excinfo.type is error
    if name in OPTIONAL:
        assert getattr(replace(config, **{name: None}), name) is None
    # a numpy scalar is stored as the plain Python number it equals
    scalar = np.int64(value) if isinstance(value, int) else np.float64(value)
    stored = getattr(replace(config, **{name: scalar}), name)
    assert type(stored) is type(value) and stored == value
