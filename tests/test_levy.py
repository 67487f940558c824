"""Step-length sampler: draw-order contract, tail behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuckoo.levy import LevyConfig, sample_levy_vector, sample_step_length


class TestConfig:
    def test_validation(self):
        LevyConfig(tail_exponent=3.0)  # boundary included
        with pytest.raises(ValueError):
            LevyConfig(tail_exponent=1.0)
        with pytest.raises(ValueError):
            LevyConfig(tail_exponent=3.0001)
        with pytest.raises(ValueError):
            LevyConfig(tail_exponent=0.5)
        with pytest.raises(ValueError):
            LevyConfig(min_step=0.0)
        with pytest.raises(ValueError):
            LevyConfig(min_step=-1e-3)


class TestSampling:
    def test_scalar_replay_frozen(self):
        # inverse transform: s = min_step * (1 - rng.random()) ** (-1/lam)
        value = sample_step_length(LevyConfig(), np.random.default_rng(7))
        assert value == pytest.approx(0.0019233258647325426, rel=1e-15)
        for seed in (11, 42, 123):
            rng = np.random.default_rng(seed)
            expected = 1e-3 * (1.0 - rng.random()) ** (-1.0 / 1.5)
            assert sample_step_length(LevyConfig(), np.random.default_rng(seed)) == expected

    def test_vector_draw_order(self):
        # contract: one magnitude block, then one sign block
        cfg = LevyConfig(tail_exponent=2.0, min_step=0.01)
        rng = np.random.default_rng(5)
        vec = sample_levy_vector(4, cfg, rng)
        replay = np.random.default_rng(5)
        magnitudes = 0.01 * (1.0 - replay.random(4)) ** (-1.0 / 2.0)
        signs = np.where(replay.random(4) < 0.5, 1.0, -1.0)
        assert np.array_equal(vec, signs * magnitudes)
        # streams stayed aligned after the call
        assert rng.random() == replay.random()

    def test_block_draw_order(self):
        # an (n, dim) block: all magnitudes, then all signs, row by row
        cfg = LevyConfig(tail_exponent=2.0, min_step=0.01)
        rng = np.random.default_rng(6)
        block = sample_levy_vector(4, cfg, rng, n=3)
        replay = np.random.default_rng(6)
        magnitudes = 0.01 * (1.0 - replay.random((3, 4))) ** (-1.0 / 2.0)
        signs = np.where(replay.random((3, 4)) < 0.5, 1.0, -1.0)
        assert block.shape == (3, 4)
        assert np.array_equal(block, signs * magnitudes)
        assert rng.random() == replay.random()
        # the uniforms themselves in place of the generator, and B blocks of them at once
        u = np.random.default_rng(6).random((2, 3, 4))
        assert np.array_equal(sample_levy_vector(4, cfg, u, n=3), block)
        assert np.array_equal(sample_levy_vector(4, cfg, np.stack([u, u[::-1]]), n=3),
                              [block, sample_levy_vector(4, cfg, u[::-1], n=3)])

    def test_sign_boundary(self):
        # u < 0.5 maps to +1, at and around 0.5 and at both ends of [0, 1)
        signs = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]
        magnitudes = np.array([0.0, 0.3, 0.5, 0.7, np.nextafter(1.0, 0.0)])

        class Stub:
            def random(self, size):
                assert size == (2, 5)
                return np.array([magnitudes, signs])

        step = sample_levy_vector(5, LevyConfig(), Stub())
        lengths = 1e-3 * (1.0 - magnitudes) ** (-1.0 / 1.5)
        assert step.tobytes() == (np.array([1.0, 1.0, -1.0, -1.0, -1.0]) * lengths).tobytes()

    def test_never_below_cutoff(self):
        cfg = LevyConfig(tail_exponent=1.5, min_step=0.02)
        draws = sample_step_length(cfg, np.random.default_rng(0), size=200_000)
        assert draws.min() >= 0.02
        assert draws.min() < 0.02 * 1.001  # the bulk hugs the cutoff

    def test_size_shapes(self):
        cfg = LevyConfig()
        rng = np.random.default_rng(1)
        assert isinstance(sample_step_length(cfg, rng), float)
        assert sample_step_length(cfg, rng, size=7).shape == (7,)
        assert sample_levy_vector(3, cfg, rng).shape == (3,)
        with pytest.raises(ValueError):
            sample_levy_vector(0, cfg, rng)

    def test_sign_symmetry(self):
        vec = sample_levy_vector(100_000, LevyConfig(), np.random.default_rng(2))
        mean_sign = np.sign(vec).mean()
        assert abs(mean_sign) < 3.0 / math.sqrt(100_000)

    def test_component_median_matches_law(self):
        # law median is min_step * 2**(1/lam)
        cfg = LevyConfig(tail_exponent=1.5, min_step=0.5)
        draws = sample_step_length(cfg, np.random.default_rng(3), size=100_000)
        assert np.median(draws) == pytest.approx(0.5 * 2.0 ** (1.0 / 1.5), rel=0.01)

    def test_tail_slope_one_lambda(self):
        # log-log CCDF slope ~ -lam; the full three-lambda sweep runs in
        # the acceptance suite at the 1e6 scale
        cfg = LevyConfig(tail_exponent=1.5, min_step=1e-3)
        draws = sample_step_length(cfg, np.random.default_rng(4), size=300_000)
        thresholds = np.geomspace(10 * cfg.min_step, 1000 * cfg.min_step, 20)
        ccdf = np.array([(draws > t).mean() for t in thresholds])
        keep = ccdf * draws.size >= 10
        slope = np.polyfit(np.log10(thresholds[keep]), np.log10(ccdf[keep]), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_determinism(self):
        cfg = LevyConfig()
        a = sample_levy_vector(50, cfg, np.random.default_rng(11))
        b = sample_levy_vector(50, cfg, np.random.default_rng(11))
        assert np.array_equal(a, b)

    @given(
        lam=st.floats(1.01, 3.0),
        min_step=st.floats(1e-6, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_respect_cutoff(self, lam, min_step, seed):
        cfg = LevyConfig(tail_exponent=lam, min_step=min_step)
        draws = sample_step_length(cfg, np.random.default_rng(seed), size=200)
        assert np.all(draws >= min_step)
        assert np.all(np.isfinite(draws))
