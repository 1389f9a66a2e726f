"""Tests for the bidiagonal divide-and-conquer SVD (``method="dnc"``)."""

import warnings

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, NumericalError
from repro.linalg.dnc import (
    DEFAULT_LEAF_SIZE,
    DnCResult,
    _bidiagonalize,
    dnc_svd,
)
from repro.linalg.svd import svd
from repro.workloads.matrices import random_matrix


def _check_factorization(a, result, rtol=1e-10, factor_tol=1e-8):
    """Singular values to rtol vs LAPACK; factors reconstruct."""
    s_ref = np.linalg.svd(a, compute_uv=False)
    scale = s_ref[0] if s_ref[0] > 0 else 1.0
    assert np.max(np.abs(result.singular_values - s_ref)) <= rtol * scale
    r = min(a.shape)
    assert result.u.shape == (a.shape[0], r)
    assert result.v.shape == (a.shape[1], r)
    assert np.allclose(result.reconstruct(), a,
                       atol=factor_tol * max(scale, 1.0))


class TestDnCAccuracy:
    @pytest.mark.parametrize("shape", [
        (8, 8), (40, 40), (96, 96), (120, 60), (60, 120), (33, 17),
    ])
    def test_matches_lapack(self, rng, shape):
        a = rng.standard_normal(shape)
        _check_factorization(a, dnc_svd(a))

    def test_recursion_depth_two_and_beyond(self, rng):
        # > 4x the leaf size forces at least two merge levels — the
        # regime where the secular solver's pole conditioning matters.
        n = 5 * DEFAULT_LEAF_SIZE
        a = rng.standard_normal((n, n))
        result = dnc_svd(a)
        _check_factorization(a, result)
        assert result.merges >= 3

    def test_graded_spectrum(self, rng):
        # Geometric grading over ~12 decades: absolute, not relative,
        # accuracy is the attainable bar for the tiny tail.
        n = 48
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = 10.0 ** -np.linspace(0, 12, n)
        a = (u * s) @ v.T
        result = dnc_svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(result.singular_values - s_ref)) < 1e-10

    def test_rank_deficient(self, rng):
        a = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 30))
        result = dnc_svd(a)
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(result.singular_values, s_ref,
                           atol=1e-9 * s_ref[0])
        assert np.allclose(result.reconstruct(), a, atol=1e-7)

    def test_orthogonal_factors(self, rng):
        a = rng.standard_normal((70, 70))
        result = dnc_svd(a)
        eye = np.eye(70)
        assert np.allclose(result.u.T @ result.u, eye, atol=1e-9)
        assert np.allclose(result.v.T @ result.v, eye, atol=1e-9)

    def test_deterministic(self, rng):
        a = rng.standard_normal((64, 64))
        first = dnc_svd(a)
        second = dnc_svd(a)
        assert np.array_equal(first.singular_values,
                              second.singular_values)
        assert np.array_equal(first.u, second.u)
        assert np.array_equal(first.v, second.v)


class TestDnCInvariants:
    """At the library default precision the merged factors pass
    ``check_factor_invariants`` (orthogonality to ``1000·n·eps``): the
    Jacobi leaves must be solved far below that precision (n 25–64
    spans one and two merge levels)."""

    @pytest.mark.parametrize("n", [25, 32, 48, 64])
    @pytest.mark.parametrize("seed", range(10))
    def test_factor_invariants_hold(self, n, seed):
        a = random_matrix(n, n, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = svd(a, method="dnc", check_invariants=True)
        assert not result.degraded


class TestDnCEdges:
    def test_single_column_and_row(self, rng):
        col = rng.standard_normal((9, 1))
        row = rng.standard_normal((1, 9))
        for a in (col, row):
            result = dnc_svd(a)
            assert np.allclose(result.singular_values,
                               [np.linalg.norm(a)])
            assert np.allclose(result.reconstruct(), a, atol=1e-12)

    def test_bidiagonalize_reconstructs(self, rng):
        a = rng.standard_normal((20, 12))
        u, d, e, v = _bidiagonalize(a)
        b = np.diag(d) + np.diag(e, k=1) if e.size else np.diag(d)
        assert np.allclose(u @ b @ v.T, a, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(NumericalError):
            dnc_svd(np.zeros((0, 4)))
        with pytest.raises(NumericalError):
            dnc_svd(np.ones(5))
        with pytest.raises(NumericalError):
            dnc_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_not_degraded_on_clean_input(self, rng):
        result = dnc_svd(rng.standard_normal((40, 40)))
        assert result.degraded is False
        assert result.converged is True

    def test_expired_deadline_raises(self, rng):
        a = rng.standard_normal((80, 80))
        with pytest.raises(DeadlineExceeded):
            dnc_svd(a, deadline=1e-12)


class TestDnCDispatch:
    def test_svd_method_dnc(self, rng):
        a = rng.standard_normal((50, 30))
        via_svd = svd(a, method="dnc")
        direct = dnc_svd(a)
        assert np.array_equal(via_svd.singular_values,
                              direct.singular_values)
        assert via_svd.method == "dnc"
        _check_factorization(a, via_svd)

    def test_no_padding_on_odd_columns(self, rng):
        # The Jacobi paths zero-pad odd column counts; dnc must not —
        # its V must keep the caller's exact width.
        a = rng.standard_normal((21, 13))
        result = svd(a, method="dnc")
        assert result.v.shape == (13, 13)
        _check_factorization(a, result)

    def test_result_is_dnc_type_directly(self, rng):
        assert isinstance(dnc_svd(rng.standard_normal((10, 10))),
                          DnCResult)
