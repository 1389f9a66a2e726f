"""Tests for the warm-start incremental SVD."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalSVD
from repro.errors import ConvergenceError, NumericalError


def drifted(a, rng, scale=0.01):
    return a + scale * rng.standard_normal(a.shape)


class TestIncrementalSVD:
    def test_cold_solve_matches_lapack(self, rng):
        tracker = IncrementalSVD(precision=1e-9)
        a = rng.standard_normal((32, 16))
        result = tracker.update(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-7)

    def test_warm_update_is_accurate(self, rng):
        tracker = IncrementalSVD(precision=1e-9)
        a = rng.standard_normal((32, 16))
        tracker.update(a)
        a2 = drifted(a, rng)
        result = tracker.update(a2)
        s_ref = np.linalg.svd(a2, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-7)
        assert np.allclose(result.reconstruct(), a2, atol=1e-7)

    def test_warm_start_saves_sweeps(self, rng):
        tracker = IncrementalSVD(precision=1e-8)
        a = rng.standard_normal((48, 24))
        cold = tracker.update(a)
        warm_counts = []
        for _ in range(4):
            a = drifted(a, rng, scale=0.005)
            warm_counts.append(tracker.update(a).sweeps)
        # Each warm update must be substantially cheaper than the cold
        # solve (the whole point of tracking).
        assert max(warm_counts) <= cold.sweeps - 2

    def test_identical_resubmission_converges_in_one_sweep(self, rng):
        tracker = IncrementalSVD(precision=1e-8)
        a = rng.standard_normal((24, 12))
        tracker.update(a)
        again = tracker.update(a)
        assert again.sweeps == 1

    def test_large_drift_still_correct(self, rng):
        tracker = IncrementalSVD(precision=1e-8)
        a = rng.standard_normal((24, 12))
        tracker.update(a)
        b = rng.standard_normal((24, 12))  # unrelated matrix
        result = tracker.update(b)
        s_ref = np.linalg.svd(b, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-6)

    def test_history_recorded(self, rng):
        tracker = IncrementalSVD()
        a = rng.standard_normal((16, 8))
        tracker.update(a)
        tracker.update(drifted(a, rng))
        assert len(tracker.history) == 2

    def test_reset_forgets_state(self, rng):
        tracker = IncrementalSVD()
        tracker.update(rng.standard_normal((16, 8)))
        assert tracker.warm
        tracker.reset()
        assert not tracker.warm
        assert tracker.history == []

    def test_width_change_rejected(self, rng):
        tracker = IncrementalSVD()
        tracker.update(rng.standard_normal((16, 8)))
        with pytest.raises(NumericalError):
            tracker.update(rng.standard_normal((16, 10)))

    def test_invalid_inputs(self, rng):
        tracker = IncrementalSVD()
        with pytest.raises(NumericalError):
            tracker.update(rng.standard_normal((8, 16)))
        with pytest.raises(NumericalError):
            tracker.update(rng.standard_normal((16, 7)))

    def test_zero_sweep_budget_raises(self, rng):
        tracker = IncrementalSVD(max_sweeps=0)
        with pytest.raises(ConvergenceError) as info:
            tracker.update(rng.standard_normal((16, 8)))
        assert info.value.iterations == 0
        assert info.value.residual == float("inf")
        assert not tracker.warm

    def test_warm_updates_keep_v_orthonormal(self, rng):
        # V0 @ W composes across updates; it must stay orthonormal.
        tracker = IncrementalSVD(precision=1e-10)
        a = rng.standard_normal((32, 16))
        tracker.update(a)
        for _ in range(3):
            a = drifted(a, rng)
            result = tracker.update(a)
        assert len(tracker.history) == 4
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(16),
                                   rtol=0.0, atol=1e-12)
