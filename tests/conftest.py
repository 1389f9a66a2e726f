"""Shared fixtures and settings for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

# Every property test draws the same examples on every run and machine:
# examples come from a hash of the test, and no example database
# replays earlier failures.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


@pytest.fixture
def rng():
    """Deterministic RNG for test inputs."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix(rng):
    """A well-conditioned 16x8 test matrix."""
    return rng.standard_normal((16, 8))


@pytest.fixture
def square_matrix(rng):
    """A 32x32 test matrix (divisible by every small P_eng)."""
    return rng.standard_normal((32, 32))
