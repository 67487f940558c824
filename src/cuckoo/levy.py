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

from .problems import check_number

__all__ = [
    "LevyConfig",
    "sample_step_length",
    "sample_levy_vector",
]

# the largest double below 0.5
_BELOW_HALF = np.nextafter(0.5, 0.0)


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
        check_number(self, "tail_exponent", "(1, 3]")
        check_number(self, "min_step", "(0, inf)")


def sample_step_length(cfg: LevyConfig, rng: np.random.Generator, size=None):
    """Draw step lengths ``>= cfg.min_step`` with the configured tail.

    Inverse-transform sampling: ``s = min_step * u ** (-1/tail_exponent)``
    with u uniform on (0, 1].  The open-at-zero interval matters: u = 0
    would be an infinite step, so the uniform is taken as
    ``1 - rng.random()``.  Returns a float when size is None, otherwise
    an array of the requested shape.
    """
    s = _step_lengths(cfg, rng.random(size))
    return float(s) if size is None else s


def _step_lengths(cfg: LevyConfig, u):
    """The step lengths of uniforms ``u`` on [0, 1), by the rule above."""
    return cfg.min_step * (1.0 - u) ** (-1.0 / cfg.tail_exponent)


def sample_levy_vector(
    dim: int, cfg: LevyConfig, rng: np.random.Generator | np.ndarray, n: Optional[int] = None
) -> np.ndarray:
    """Signed heavy-tailed step for each of ``dim`` coordinates.

    Consumes one block from ``rng``: ``dim`` magnitude uniforms, then
    ``dim`` sign uniforms (< 0.5 maps to +1).  Components are independent
    and symmetric about zero.  With ``n`` set, returns an (n, dim) block
    of such steps: all n * dim magnitudes, then all signs, row by row.
    ``rng`` may instead be the uniforms already drawn, (2, n, dim), or
    (B, 2, n, dim) for B blocks at once, which gives (B, n, dim).
    A sign is that of ``_BELOW_HALF - u``: u is a multiple of 2**-53, so
    the difference is never zero and is positive exactly where u < 0.5.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    shape = (2, dim) if n is None else (2, n, dim)
    u = rng if isinstance(rng, np.ndarray) else rng.random(shape)
    magnitudes, signs = u.swapaxes(0, -len(shape))  # a no-op but for B blocks: (2, B, n, dim)
    return np.copysign(_step_lengths(cfg, magnitudes), _BELOW_HALF - signs)
