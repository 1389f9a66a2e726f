"""Unit tests for the public svd() entry point."""

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, NumericalError
from repro.linalg.reference import validate_svd
from repro.linalg.svd import svd
from repro.workloads.tallskinny import tall_skinny_matrix


class TestSVDShapes:
    @pytest.mark.parametrize(
        "shape",
        [(8, 8), (16, 8), (8, 16), (9, 9), (7, 12), (12, 7), (3, 2), (2, 3)],
    )
    def test_thin_factor_shapes(self, rng, shape):
        a = rng.standard_normal(shape)
        result = svd(a, precision=1e-10)
        r = min(shape)
        assert result.u.shape == (shape[0], r)
        assert result.singular_values.shape == (r,)
        assert result.v.shape == (shape[1], r)

    @pytest.mark.parametrize(
        "shape",
        [(8, 8), (16, 8), (8, 16), (9, 9), (7, 12), (13, 5), (1, 4), (4, 1),
         (600, 20), (4096, 16), (24, 500), (33, 17)],
    )
    def test_accuracy_all_shapes(self, rng, shape):
        a = rng.standard_normal(shape)
        result = svd(a, precision=1e-10)
        report = validate_svd(a, result.u, result.singular_values, result.v)
        assert report.within(1e-7), report

    def test_reconstruct_method(self, rng):
        a = rng.standard_normal((10, 6))
        result = svd(a, precision=1e-10)
        assert np.allclose(result.reconstruct(), a, atol=1e-9)


class TestSVDMethods:
    def test_block_method_matches_hestenes(self, rng):
        a = rng.standard_normal((24, 16))
        s1 = svd(a, method="hestenes", precision=1e-10).singular_values
        s2 = svd(
            a, method="block", block_width=4, precision=1e-10
        ).singular_values
        assert np.allclose(s1, s2, rtol=1e-8)

    def test_block_method_default_width(self, rng):
        a = rng.standard_normal((32, 32))
        result = svd(a, method="block", precision=1e-9)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref, rtol=1e-6)

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_block_widths(self, rng, width):
        a = rng.standard_normal((32, 16))
        result = svd(a, method="block", block_width=width, precision=1e-9)
        report = validate_svd(a, result.u, result.singular_values, result.v)
        assert report.within(1e-6)

    @pytest.mark.parametrize("method", ["qr", "tsqr"])
    def test_unknown_method(self, rng, method):
        with pytest.raises(NumericalError):
            svd(rng.standard_normal((4, 4)), method=method)

    def test_fixed_sweeps_recorded(self, rng):
        a = rng.standard_normal((8, 6))
        result = svd(a, fixed_sweeps=3)
        assert result.sweeps == 3
        assert len(result.sweep_residuals) == 3


class TestSVDEdgeCases:
    def test_zero_matrix(self):
        result = svd(np.zeros((6, 4)))
        assert np.allclose(result.singular_values, 0.0)

    def test_rank_one(self, rng):
        a = np.outer(rng.standard_normal(9), rng.standard_normal(5))
        result = svd(a, precision=1e-10)
        assert result.singular_values[0] > 0
        assert np.allclose(result.singular_values[1:], 0.0, atol=1e-8)
        assert np.allclose(result.reconstruct(), a, atol=1e-8)

    def test_identity(self):
        result = svd(np.eye(6), precision=1e-10)
        assert np.allclose(result.singular_values, 1.0)

    def test_single_column(self, rng):
        a = rng.standard_normal((8, 1))
        result = svd(a)
        assert result.singular_values[0] == pytest.approx(np.linalg.norm(a))

    def test_rejects_empty(self):
        with pytest.raises(NumericalError):
            svd(np.zeros((0, 4)))

    def test_rejects_1d(self):
        with pytest.raises(NumericalError):
            svd(np.ones(5))

    def test_scaling_equivariance(self, rng):
        a = rng.standard_normal((10, 6))
        s1 = svd(a, precision=1e-10).singular_values
        s2 = svd(3.0 * a, precision=1e-10).singular_values
        assert np.allclose(s2, 3.0 * s1, rtol=1e-8)

    def test_padded_v_stays_orthonormal(self, rng):
        # Odd column count exercises the padding path.
        a = rng.standard_normal((10, 7))
        result = svd(a, precision=1e-10)
        gram = result.v.T @ result.v
        assert np.allclose(gram, np.eye(7), atol=1e-8)


@pytest.mark.parametrize("method", ["block", "hestenes"])
class TestTallInputs:
    """Tall inputs reach the Jacobi core through the QR in ``_prepare``."""

    @staticmethod
    def _check(a, result, rtol=1e-10):
        s_ref = np.linalg.svd(a, compute_uv=False)
        scale = s_ref[0] if s_ref[0] > 0 else 1.0
        assert np.max(np.abs(result.singular_values - s_ref)) <= rtol * scale
        assert np.allclose(result.reconstruct(), a, atol=1e-8 * max(scale, 1.0))

    def test_graded_columns(self, method):
        a = tall_skinny_matrix(2000, 24, decay=0.7, seed=3)
        self._check(a, svd(a, method=method, precision=1e-10))

    def test_orthogonal_factors(self, rng, method):
        a = rng.standard_normal((900, 18))
        result = svd(a, method=method, precision=1e-10)
        eye = np.eye(18)
        assert np.allclose(result.u.T @ result.u, eye, atol=1e-8)
        assert np.allclose(result.v.T @ result.v, eye, atol=1e-10)

    def test_rank_deficient(self, rng, method):
        a = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 12))
        result = svd(a, method=method, precision=1e-10)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref,
                           atol=1e-9 * s_ref[0])
        assert np.allclose(result.reconstruct(), a, atol=1e-8 * s_ref[0])

    @pytest.mark.parametrize("n", [18, 9])
    def test_odd_core_width(self, rng, method, n):
        # The default block width must fit the n x n core, whatever n.
        a = rng.standard_normal((300, n))
        self._check(a, svd(a, method=method, precision=1e-10))

    def test_expired_deadline_raises(self, rng, method):
        a = rng.standard_normal((600, 20))
        with pytest.raises(DeadlineExceeded):
            svd(a, method=method, deadline=1e-12)


class TestBlockGridPadding:
    """Column counts that do not fill the block grid are zero-padded.

    The grid is ``max(2w, ceil(n / w) w)`` columns; when that exceeds
    the row count (n = 3 with w = 8 pads to 16), zero rows are added.
    """

    @pytest.mark.parametrize("n", [3, 10, 18, 20, 22, 30])
    @pytest.mark.parametrize("block_width", [None, 3, 4, 8])
    @pytest.mark.parametrize("wide", [False, True])
    def test_unaligned_widths(self, rng, n, block_width, wide):
        a = rng.standard_normal((n + 2, n))
        if wide:
            a = a.T
        result = svd(a, method="block", block_width=block_width,
                     precision=1e-12)
        assert result.u.shape == (a.shape[0], n)
        assert result.singular_values.shape == (n,)
        assert result.v.shape == (a.shape[1], n)
        s_ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(result.singular_values, s_ref,
                                   rtol=0, atol=1e-12 * s_ref[0])
        np.testing.assert_allclose(result.u.T @ result.u, np.eye(n),
                                   atol=1e-12)
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(n),
                                   atol=1e-12)
        np.testing.assert_allclose(result.reconstruct(), a,
                                   atol=1e-11 * s_ref[0])
