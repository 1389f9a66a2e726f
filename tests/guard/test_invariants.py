"""Factor invariant checks and the --check-invariants solver mode."""

import numpy as np
import pytest

from repro.guard import (
    InvariantReport,
    check_factor_invariants,
    orthogonality_residual,
)


def _jacobi_state(a):
    """A correct (B = A V, V) working state built from LAPACK."""
    u, s, vt = np.linalg.svd(a)
    v = vt.T
    b = a @ v
    return b, v


class TestOrthogonalityResidual:
    def test_orthogonal_columns_score_near_zero(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        assert orthogonality_residual(q * [1.0, 2, 3, 4, 5, 6, 7, 8]) < 1e-14

    def test_correlated_columns_score_high(self):
        b = np.ones((4, 2))
        assert orthogonality_residual(b) == pytest.approx(1.0)

    def test_matches_scalar_routine(self, rng):
        from repro.linalg.convergence import off_diagonal_ratio

        b = rng.standard_normal((12, 8))
        assert orthogonality_residual(b) == pytest.approx(
            off_diagonal_ratio(b), rel=1e-12
        )

    def test_zero_matrix_scores_zero(self):
        assert orthogonality_residual(np.zeros((4, 4))) == 0.0

    def test_zero_columns_skipped(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q[:, 2] = 0.0
        assert orthogonality_residual(q) < 1e-14


class TestCheckFactorInvariants:
    def test_correct_state_passes(self, rng):
        a = rng.standard_normal((10, 10))
        b, v = _jacobi_state(a)
        report = check_factor_invariants(a, b, v, precision=1e-6)
        assert isinstance(report, InvariantReport)
        assert report.ok
        assert report.reconstruction_error < 1e-13
        assert report.orthogonality_residual < 1e-6

    def test_corrupted_state_fails_reconstruction(self, rng):
        a = rng.standard_normal((10, 10))
        b, v = _jacobi_state(a)
        b = b.copy()
        b[:, 0] *= 2.0  # a lost update
        report = check_factor_invariants(a, b, v, precision=1e-6)
        assert not report.ok
        assert report.reconstruction_error > 1e-3

    def test_unconverged_state_skips_orthogonality(self, rng):
        a = rng.standard_normal((10, 10))
        # B = A, V = I is a valid *unconverged* state: reconstruction
        # holds exactly, orthogonality does not.
        report = check_factor_invariants(
            a, a.copy(), np.eye(10), precision=1e-6, converged=False
        )
        assert report.ok
        assert report.orthogonality_residual is None
        strict = check_factor_invariants(
            a, a.copy(), np.eye(10), precision=1e-6, converged=True
        )
        assert not strict.ok

    def test_counters_published(self, rng):
        from repro import obs

        a = rng.standard_normal((6, 6))
        b, v = _jacobi_state(a)
        obs.reset()
        obs.enable()
        try:
            check_factor_invariants(a, b, v, precision=1e-6)
            check_factor_invariants(a, 2.0 * b, v, precision=1e-6)
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["guard.invariant_checks"] == 2
        assert counters["guard.invariant_failures"] == 1


class TestSolverIntegration:
    @pytest.mark.parametrize("method", ["hestenes", "block", "dnc",
                                        "streaming"])
    def test_check_invariants_mode_matches_plain_solve(self, rng, method):
        from repro import obs
        from repro.linalg.svd import svd

        a = rng.standard_normal((16, 16))
        kwargs = {"block_width": 8} if method == "block" else {}
        obs.reset()
        obs.enable()
        try:
            checked = svd(a, method=method, check_invariants=True, **kwargs)
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        plain = svd(a, method=method, **kwargs)
        assert counters["guard.invariant_checks"] == 1
        assert checked.converged
        assert not checked.degraded
        assert np.array_equal(
            checked.singular_values, plain.singular_values
        )

    def test_check_invariants_with_fixed_sweeps(self, rng):
        from repro.linalg.svd import svd

        # A fixed-sweep run is legitimately unconverged: only the
        # reconstruction invariant applies, and it holds.
        a = rng.standard_normal((16, 16))
        result = svd(a, fixed_sweeps=1, check_invariants=True)
        assert np.all(np.isfinite(result.singular_values))

    @pytest.mark.parametrize("method", ["dnc", "streaming"])
    def test_reduction_violation_raises_or_degrades(self, rng, monkeypatch,
                                                    method):
        import importlib

        from repro.errors import ConvergenceError, DegradedResultWarning
        from repro.linalg.svd import svd

        module = importlib.import_module(f"repro.linalg.{method}")
        solve = getattr(module, f"{method}_svd")

        def lost_update(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.u[:, 0] *= 2.0
            return result

        monkeypatch.setattr(module, f"{method}_svd", lost_update)
        a = rng.standard_normal((16, 16))
        assert not svd(a, method=method).degraded
        with pytest.raises(ConvergenceError, match="invariants"):
            svd(a, method=method, check_invariants=True)
        with pytest.warns(DegradedResultWarning):
            result = svd(a, method=method, check_invariants=True,
                         fallback="reference")
        assert result.degraded
        np.testing.assert_allclose(
            result.singular_values, np.linalg.svd(a, compute_uv=False),
            rtol=1e-12,
        )
