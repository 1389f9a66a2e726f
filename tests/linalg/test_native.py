"""Kernel-level tests for the native (compiled) Jacobi tier.

The ``@njit`` decorator degrades to a no-op without Numba, so the
kernel bodies in :mod:`repro.linalg.native` stay executable as plain
Python.  These tests pin the kernels' *arithmetic* against the golden
NumPy implementations — Gram accumulation, the range-gated rescale,
the identity test, the rotation accounting — in every environment,
whether or not a JIT compiler is present.  The compiled tier's speed
is checked separately (TestAcceptance256 in test_strategy_parity.py,
CI's Numba leg).
"""

import numpy as np
import pytest

from repro.errors import NumericalError
from repro.linalg import native
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    resolve_strategy,
    round_workspace,
    stack_panels,
)
from repro.linalg.rotations import compute_rotations_batch


def _py_rotations(alpha, beta, gamma):
    """Run the kernel body as plain Python (works with or without
    Numba: ``py_func`` unwraps a compiled dispatcher)."""
    kernel = getattr(native._rotations_kernel, "py_func",
                     native._rotations_kernel)
    c = np.empty_like(alpha)
    s = np.empty_like(alpha)
    identity = np.empty(alpha.shape, dtype=np.bool_)
    kernel(alpha, beta, gamma, c, s, identity)
    return c, s, identity


def _py_sweep(b, v, ii, jj, precision, zero_sq):
    """Run the sweep kernel body on ``[b; v]``, writing back in place."""
    kernel = getattr(native._sweep_kernel, "py_func",
                     native._sweep_kernel)
    m = b.shape[0]
    w = stack_panels([b], [v] if v is not None else None)
    result = kernel(w, m, np.concatenate((ii, jj)), precision, zero_sq)
    b[...] = w[:m]
    if v is not None:
        v[...] = w[m:]
    return result


def _vectorized(w, m, idx, precision, zero_sq):
    return _sweep_pairs_indexed(
        w, m, idx, precision, zero_sq, round_workspace(w.shape, w.dtype)
    )


class TestRotationsKernel:
    def test_matches_numpy_batch(self, rng):
        n = 64
        x = rng.standard_normal((40, n))
        y = rng.standard_normal((40, n))
        alpha = np.einsum("ij,ij->j", x, x)
        beta = np.einsum("ij,ij->j", y, y)
        gamma = np.einsum("ij,ij->j", x, y)

        ref_c, ref_s, ref_id = compute_rotations_batch(alpha, beta, gamma)
        c, s, identity = _py_rotations(alpha, beta, gamma)

        np.testing.assert_array_equal(identity, ref_id)
        np.testing.assert_allclose(c, ref_c, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(s, ref_s, rtol=0.0, atol=1e-15)

    def test_extreme_scale_lanes(self):
        # Lanes whose Gram entries over/underflow a naive tau formula:
        # the rescale gate must produce the same angles the scalar
        # routine's frexp/ldexp path does.
        alpha = np.array([1e300, 1e-300, 4.0, 1e308])
        beta = np.array([2e300, 3e-300, 1.0, 1e307])
        gamma = np.array([5e299, 1e-300, 1.0, 5e307])
        ref_c, ref_s, ref_id = compute_rotations_batch(alpha, beta, gamma)
        c, s, identity = _py_rotations(alpha, beta, gamma)
        np.testing.assert_array_equal(identity, ref_id)
        np.testing.assert_allclose(c, ref_c, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(s, ref_s, rtol=0.0, atol=1e-15)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))

    def test_orthogonal_lane_is_identity(self):
        c, s, identity = _py_rotations(
            np.array([4.0]), np.array([1.0]), np.array([0.0])
        )
        assert identity[0]
        assert c[0] == 1.0 and s[0] == 0.0

    def test_wrapper_validates_like_numpy(self):
        with pytest.raises(NumericalError):
            native.rotations_batch(
                np.array([1.0]), np.array([np.nan]), np.array([0.5])
            )
        with pytest.raises(NumericalError):
            native.rotations_batch(
                np.array([-1.0]), np.array([1.0]), np.array([0.5])
            )

    def test_wrapper_matches_numpy_batch(self, rng):
        alpha = rng.uniform(0.5, 2.0, 16)
        beta = rng.uniform(0.5, 2.0, 16)
        gamma = rng.standard_normal(16)
        ref = compute_rotations_batch(alpha, beta, gamma)
        got = native.rotations_batch(alpha, beta, gamma)
        for got_arr, ref_arr in zip(got, ref):
            np.testing.assert_allclose(got_arr, ref_arr,
                                       rtol=0.0, atol=1e-15)


class TestSweepKernel:
    def _round(self, rng, n=16):
        b = np.asfortranarray(rng.standard_normal((n, n)))
        v = np.asfortranarray(np.eye(n))
        half = n // 2
        ii = np.arange(half, dtype=np.intp)
        jj = np.arange(half, n, dtype=np.intp)
        return b, v, ii, jj

    def test_matches_vectorized_round(self, rng):
        b, v, ii, jj = self._round(rng)
        n = b.shape[0]
        w = stack_panels([b], [v])
        w_ref = w.copy(order="F")
        idx = np.concatenate((ii, jj))
        kernel = getattr(native._sweep_kernel, "py_func",
                         native._sweep_kernel)

        worst, count = kernel(w, n, idx, 1e-12, 0.0)
        ref_worst, ref_count = _vectorized(w_ref, n, idx, 1e-12, 0.0)

        assert count == ref_count
        assert worst == pytest.approx(ref_worst, rel=1e-12)
        np.testing.assert_allclose(w[:n], w_ref[:n], atol=1e-13)
        np.testing.assert_allclose(w[n:], w_ref[n:], atol=1e-13)

    def test_none_v_updates_only_b(self, rng):
        b, v, ii, jj = self._round(rng)
        w_ref = b.copy(order="F")
        worst, count = _py_sweep(b, None, ii, jj, 1e-12, 0.0)
        ref_worst, ref_count = _vectorized(
            w_ref, b.shape[0], np.concatenate((ii, jj)), 1e-12, 0.0
        )
        assert count == ref_count
        np.testing.assert_allclose(b, w_ref, atol=1e-13)

    def test_zero_sq_floor_skips_dead_columns(self, rng):
        b, v, ii, jj = self._round(rng, n=8)
        b[:, int(ii[0])] = 1e-200  # far below the floor below
        floor = 1e-100
        before = b[:, int(jj[0])].copy()
        _py_sweep(b, v, ii, jj, 1e-12, floor)
        # The dead pair reports ratio 0 and must not rotate.
        np.testing.assert_array_equal(b[:, int(jj[0])], before)

    def test_precision_gate_counts_like_scalar(self, rng):
        # With an impossible precision nothing rotates and count is 0;
        # with precision 0 every pair is counted (identity or not).
        b, v, ii, jj = self._round(rng)
        worst, count = _py_sweep(b.copy(order="F"), v.copy(order="F"),
                                 ii, jj, 2.0, 0.0)
        assert count == 0
        worst2, count2 = _py_sweep(b.copy(order="F"), v.copy(order="F"),
                                   ii, jj, 0.0, 0.0)
        assert count2 == ii.size

    def test_wrapper_delegates_without_numba(self, rng, monkeypatch):
        monkeypatch.setattr(native, "NUMBA_AVAILABLE", False)
        b, v, ii, jj = self._round(rng)
        n = b.shape[0]
        w = stack_panels([b], [v])
        w_ref = w.copy(order="F")
        idx = np.concatenate((ii, jj))
        worst, count = native.sweep_pairs_indexed(
            w, n, idx, 1e-12, 0.0, round_workspace(w.shape, w.dtype)
        )
        ref = _vectorized(w_ref, n, idx, 1e-12, 0.0)
        assert (worst, count) == ref
        np.testing.assert_array_equal(w[:n], w_ref[:n])


class TestAvailabilityProbe:
    def test_available_tracks_numba_flag(self, monkeypatch):
        monkeypatch.delenv(native.DISABLE_ENV_VAR, raising=False)
        monkeypatch.setattr(native, "NUMBA_AVAILABLE", True)
        assert native.available()
        monkeypatch.setattr(native, "NUMBA_AVAILABLE", False)
        assert not native.available()

    def test_env_var_wins_over_numba(self, monkeypatch):
        monkeypatch.setattr(native, "NUMBA_AVAILABLE", True)
        monkeypatch.setenv(native.DISABLE_ENV_VAR, "1")
        assert not native.available()
        monkeypatch.setenv(native.DISABLE_ENV_VAR, "0")
        assert native.available()

    def test_full_driver_runs_under_forced_fallback(self, rng,
                                                    monkeypatch):
        # The regression scenario from the issue: an environment
        # without Numba asking for strategy="native" must compute the
        # correct SVD via the vectorized tier, not raise.
        from repro.linalg import hestenes_svd, svd

        monkeypatch.setattr(native, "NUMBA_AVAILABLE", False)
        assert resolve_strategy("native") == "vectorized"
        a = rng.standard_normal((24, 24))
        result = hestenes_svd(a, strategy="native")
        reference = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(
            result.singular_values, reference, atol=1e-10 * reference[0]
        )
        block = svd(a, method="block", block_width=6, strategy="native")
        np.testing.assert_allclose(
            block.singular_values, reference, atol=1e-10 * reference[0]
        )
