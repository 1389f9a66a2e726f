"""Unit tests for the one-sided Hestenes-Jacobi driver."""

import numpy as np
import pytest

import repro.linalg.hestenes as hestenes
from repro.errors import ConvergenceError, NumericalError
from repro.linalg.convergence import DEFAULT_PRECISION, off_diagonal_ratio
from repro.linalg.hestenes import (
    DEFAULT_MAX_SWEEPS,
    _block_jacobi_svd,
    hestenes_svd,
    normalize_columns,
)
from repro.linalg.orderings import (
    RingOrdering,
    RoundRobinOrdering,
    ShiftingRingOrdering,
)
from repro.linalg.svd import svd
from repro.workloads.matrices import conditioned_matrix
from tests.linalg.test_strategy_parity import running_kernel


class TestHestenesSVD:
    def test_matches_lapack_spectrum(self, rng):
        a = rng.standard_normal((20, 12))
        result = hestenes_svd(a, precision=1e-10)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-8)

    def test_reconstruction(self, rng):
        a = rng.standard_normal((16, 8))
        result = hestenes_svd(a, precision=1e-10)
        assert np.allclose(result.reconstruct(), a, atol=1e-10)

    def test_factor_orthogonality(self, rng):
        a = rng.standard_normal((24, 10))
        result = hestenes_svd(a, precision=1e-10)
        assert np.allclose(result.u.T @ result.u, np.eye(10), atol=1e-8)
        assert np.allclose(result.v.T @ result.v, np.eye(10), atol=1e-10)

    def test_singular_values_descending(self, rng):
        a = rng.standard_normal((12, 8))
        result = hestenes_svd(a)
        s = result.singular_values
        assert np.all(s[:-1] >= s[1:])

    def test_convergence_flag_and_history(self, rng):
        a = rng.standard_normal((10, 6))
        result = hestenes_svd(a, precision=1e-8)
        assert result.converged
        assert len(result.sweep_residuals) == result.sweeps
        assert result.sweep_residuals[-1] < 1e-8

    def test_residuals_eventually_tiny(self, rng):
        a = rng.standard_normal((16, 8))
        result = hestenes_svd(a, precision=1e-12)
        # Quadratic convergence: the final sweep residual is far below
        # the first.
        assert result.sweep_residuals[-1] < result.sweep_residuals[0] * 1e-6

    def test_fixed_sweeps_mode(self, rng):
        a = rng.standard_normal((10, 6))
        result = hestenes_svd(a, fixed_sweeps=2)
        assert result.sweeps == 2
        # Fixed mode never raises, even unconverged.
        assert isinstance(result.converged, bool)

    def test_fixed_six_sweeps_is_accurate(self, rng):
        # The paper's benchmark mode: 6 iterations suffice for small n.
        a = rng.standard_normal((16, 8))
        result = hestenes_svd(a, fixed_sweeps=6)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-6)

    def test_ordering_choice_does_not_change_result(self, rng):
        a = rng.standard_normal((12, 8))
        s1 = hestenes_svd(a, ordering_cls=RingOrdering).singular_values
        s2 = hestenes_svd(a, ordering_cls=RoundRobinOrdering).singular_values
        assert np.allclose(s1, s2, rtol=1e-8)

    def test_already_diagonal_input_converges_immediately(self):
        a = np.vstack([np.diag([3.0, 2.0, 1.0, 0.5]), np.zeros((4, 4))])
        result = hestenes_svd(a)
        assert result.sweeps == 1
        assert result.rotations == 0
        assert np.allclose(result.singular_values, [3, 2, 1, 0.5])

    def test_rank_deficient_input(self, rng):
        col = rng.standard_normal((10, 1))
        a = np.hstack([col, col, rng.standard_normal((10, 2))])
        result = hestenes_svd(a, precision=1e-10)
        assert result.singular_values[-1] == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(result.reconstruct(), a, atol=1e-8)

    def test_orthogonalizes_b(self, rng):
        a = rng.standard_normal((14, 6))
        result = hestenes_svd(a, precision=1e-9)
        b = result.u * result.singular_values
        assert off_diagonal_ratio(b) < 1e-8


def _one_pair_inputs():
    rng = np.random.default_rng(17)
    shapes = [(2, 2), (4, 4), (6, 6), (8, 8), (10, 10), (12, 12), (16, 16),
              (20, 20), (6, 4), (10, 6), (14, 8), (20, 12), (24, 16),
              (40, 20), (34, 32)]
    return [rng.standard_normal(shape) for shape in shapes]


ONE_PAIR_INPUTS = _one_pair_inputs()


def _one_pair_block(a, fixed_sweeps, ordering_cls):
    """The block driver's ``method="block"`` sweeps on ``a`` with one
    block pair."""
    return _block_jacobi_svd(
        a, block_width=a.shape[1] // 2, precision=DEFAULT_PRECISION,
        max_sweeps=DEFAULT_MAX_SWEEPS, ordering_cls=ordering_cls,
        fixed_sweeps=fixed_sweeps, method="block",
    )


class TestOneBlockPair:
    """With one block pair (``n <= 2k``) a block sweep rotates by the
    eigenvectors of the whole panel's Gram matrix, and the pairwise
    kernel only finishes the solve.
    """

    @pytest.mark.parametrize("case", range(len(ONE_PAIR_INPUTS)))
    @pytest.mark.parametrize("fixed_sweeps", [1, 3])
    @pytest.mark.parametrize("ordering_cls",
                             [RingOrdering, ShiftingRingOrdering])
    @pytest.mark.parametrize("kernel_name", ["scalar", "vectorized"])
    def test_fixed_sweeps_bit_identical(self, case, fixed_sweeps,
                                        ordering_cls, kernel_name):
        # The first sweep's V is the panel's rotation itself.  It leaves
        # every pair below precision, so later sweeps (a block sweep,
        # then, stalled, a pairwise one in whatever ordering and
        # round kernel) rotate nothing.
        a = ONE_PAIR_INPUTS[case]
        with running_kernel(kernel_name):
            block = _one_pair_block(a, fixed_sweeps, ordering_cls)
        rotation = hestenes._gram_rotations((a.T @ a)[None])[0]
        order = np.argsort(-np.linalg.norm(a @ rotation, axis=0),
                           kind="stable")
        assert block.v.tobytes() == rotation[:, order].tobytes()
        assert block.sweeps == fixed_sweeps
        assert block.sweep_residuals[-1] < DEFAULT_PRECISION

    def test_residual_rules_differ_in_precision_mode(self, monkeypatch):
        # hestenes stops on the sweep's worst pre-rotation pair ratio,
        # block on off_diagonal_ratio(B) after every sweep, the pairwise
        # sweeps that finish a stalled block solve included.  Here the
        # block sweeps stall at 9.5e-8 and one pairwise sweep stops the
        # solve, although its worst pre-rotation ratio (that 9.5e-8)
        # would make the hestenes rule sweep again.
        worst = []
        kernel = hestenes._sweep_pairs_indexed

        def keep_worst(*args):
            ratios, rotated = kernel(*args)
            worst.append(ratios.max())
            return ratios, rotated

        monkeypatch.setattr(hestenes, "_sweep_pairs_indexed", keep_worst)
        a = conditioned_matrix(64, 64, 1e10, seed=1)
        block = svd(a, method="block", precision=1e-10)
        # One pairwise sweep: 7 tournament rounds of 15 ordering rounds.
        assert len(worst) == 7 * 15
        assert max(worst) >= 1e-10 > block.sweep_residuals[-1]
        mono = svd(a, method="hestenes", precision=1e-10)
        assert (mono.sweeps, block.sweeps) == (7, 5)
        np.testing.assert_allclose(mono.singular_values,
                                   block.singular_values, rtol=1e-12)


class TestHestenesErrors:
    def test_rejects_wide_matrix(self, rng):
        with pytest.raises(NumericalError):
            hestenes_svd(rng.standard_normal((4, 8)))

    def test_rejects_odd_columns(self, rng):
        with pytest.raises(NumericalError):
            hestenes_svd(rng.standard_normal((8, 5)))

    def test_rejects_non_2d(self):
        with pytest.raises(NumericalError):
            hestenes_svd(np.ones(4))

    def test_rejects_non_finite(self, rng):
        a = rng.standard_normal((6, 4))
        a[0, 0] = np.nan
        with pytest.raises(NumericalError):
            hestenes_svd(a)

    def test_raises_on_sweep_exhaustion(self, rng):
        a = rng.standard_normal((30, 16))
        with pytest.raises(ConvergenceError) as exc:
            hestenes_svd(a, precision=1e-14, max_sweeps=1)
        assert exc.value.iterations == 1
        assert exc.value.residual > 0


class TestNormalizeColumns:
    def test_eq7_semantics(self, rng):
        a = rng.standard_normal((10, 4))
        b = hestenes_svd(a, precision=1e-10)
        # Re-derive: sigma is the column norm of B = U * S.
        bmat = b.u * b.singular_values
        u, s, _ = normalize_columns(bmat, np.eye(4))
        assert np.allclose(s, b.singular_values)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0)

    def test_zero_columns_give_zero_u(self):
        b = np.zeros((5, 2))
        b[:, 0] = [2, 0, 0, 0, 0]
        u, s, _ = normalize_columns(b, np.eye(2))
        assert s[0] == pytest.approx(2.0)
        assert s[1] == 0.0
        assert np.allclose(u[:, 1], 0.0)
