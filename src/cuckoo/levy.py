"""Heavy-tailed step sampling for the global random walk.

Step lengths follow a power law: the density is proportional to
``s ** -(1 + tail_exponent)`` above a lower cutoff ``min_step`` and zero
below it.  Draws use inverse-transform sampling from that truncated
Pareto law, which reproduces the tail exactly, costs one uniform per
magnitude, and replays bit-identically from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "LevyConfig",
    "sample_step_length",
    "sample_levy_vector",
]


@dataclass(frozen=True)
class LevyConfig:
    """Parameters of the heavy-tailed step law.

    tail_exponent must lie in (1, 3]; smaller values give heavier tails
    (1.5 is a good general-purpose default).  min_step is the lower
    cutoff of the law; the density is truncated to zero below it.
    """

    tail_exponent: float = 1.5
    min_step: float = 1e-3

    def __post_init__(self) -> None:
        if not 1.0 < self.tail_exponent <= 3.0:
            raise ValueError(
                f"tail_exponent must be in (1, 3], got {self.tail_exponent}"
            )
        if not self.min_step > 0.0:
            raise ValueError(f"min_step must be positive, got {self.min_step}")


def sample_step_length(cfg: LevyConfig, rng: np.random.Generator, size=None):
    """Draw step lengths ``>= cfg.min_step`` with the configured tail.

    Inverse-transform sampling: ``s = min_step * u ** (-1/tail_exponent)``
    with u uniform on (0, 1].  The open-at-zero interval matters: u = 0
    would be an infinite step, so the uniform is taken as
    ``1 - rng.random()``.  Returns a float when size is None, otherwise
    an array of the requested shape.
    """
    u = 1.0 - rng.random(size)
    s = cfg.min_step * u ** (-1.0 / cfg.tail_exponent)
    return float(s) if size is None else s


def sample_levy_vector(
    dim: int, cfg: LevyConfig, rng: np.random.Generator, n: Optional[int] = None
) -> np.ndarray:
    """Signed heavy-tailed step for each of ``dim`` coordinates.

    Consumes exactly two blocks from ``rng``: ``dim`` magnitude uniforms,
    then ``dim`` sign uniforms (< 0.5 maps to +1).  Components are
    independent and symmetric about zero.  With ``n`` set, returns an
    (n, dim) block of such steps: all n * dim magnitudes, then all
    n * dim signs, each in row order.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    shape = dim if n is None else (n, dim)
    magnitudes = sample_step_length(cfg, rng, size=shape)
    signs = np.where(rng.random(shape) < 0.5, 1.0, -1.0)
    return signs * magnitudes
