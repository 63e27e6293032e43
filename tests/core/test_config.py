"""Tests for EMSConfig validation."""

import pytest

from repro.core.config import EMSConfig


class TestValidation:
    def test_defaults_valid(self):
        config = EMSConfig()
        assert config.alpha == 1.0
        assert config.c == 0.8
        assert config.direction == "both"

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            EMSConfig(alpha=alpha)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.5])
    def test_c_range(self, c):
        with pytest.raises(ValueError):
            EMSConfig(c=c)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            EMSConfig(epsilon=0.0)

    def test_max_iterations_positive(self):
        with pytest.raises(ValueError):
            EMSConfig(max_iterations=0)

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            EMSConfig(direction="sideways")  # type: ignore[arg-type]

    def test_estimation_iterations_non_negative(self):
        with pytest.raises(ValueError):
            EMSConfig(estimation_iterations=-1)
        assert EMSConfig(estimation_iterations=0).estimation_iterations == 0

    def test_dtype_validated(self):
        import numpy as np

        with pytest.raises(ValueError):
            EMSConfig(dtype="float16")  # type: ignore[arg-type]
        assert EMSConfig().np_dtype == np.dtype(np.float64)
        assert EMSConfig(dtype="float32").np_dtype == np.dtype(np.float32)


class TestHelpers:
    def test_with_returns_modified_copy(self):
        base = EMSConfig()
        changed = base.with_(alpha=0.5)
        assert changed.alpha == 0.5
        assert base.alpha == 1.0

    def test_with_validates(self):
        with pytest.raises(ValueError):
            EMSConfig().with_(c=2.0)

    def test_decay(self):
        assert EMSConfig(alpha=0.5, c=0.8).decay == pytest.approx(0.4)
