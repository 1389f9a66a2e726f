"""Kernel-level tests for the native (compiled) Jacobi tier.

The ``@njit`` decorator degrades to a no-op without Numba, so the
kernel body in :mod:`repro.linalg.native` stays executable as plain
Python.  These tests pin the kernel's *arithmetic* against the golden
NumPy round kernel — Gram accumulation, the range-gated rescale,
the identity test, the rotation accounting — in every environment,
whether or not a JIT compiler is present.  The compiled tier's speed
is checked separately (TestAcceptance256 in test_strategy_parity.py,
CI's Numba leg).
"""

import numpy as np
import pytest

from repro.linalg import native
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    resolve_strategy,
    round_workspace,
    stack_panels,
)


def _py_sweep(b, v, ii, jj, precision, zero_sq):
    """Run the sweep kernel body on ``[b; v]``, writing back in place."""
    kernel = getattr(native._sweep_kernel, "py_func",
                     native._sweep_kernel)
    m = b.shape[0]
    w = stack_panels([b], [v] if v is not None else None)
    result = kernel(w, m, np.concatenate((ii, jj)), precision,
                    np.full(ii.size, zero_sq))
    b[...] = w[:m]
    if v is not None:
        v[...] = w[m:]
    return result


def _vectorized(w, m, idx, precision, zero_sq):
    return _sweep_pairs_indexed(
        w, m, idx, precision, zero_sq, round_workspace(w.shape, w.dtype)
    )


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

        ratios, count = kernel(w, n, idx, 1e-12, np.zeros(ii.size))
        ref_ratios, ref_count = _vectorized(w_ref, n, idx, 1e-12, 0.0)

        assert count == ref_count
        assert ratios == pytest.approx(ref_ratios, rel=1e-12)
        np.testing.assert_allclose(w[:n], w_ref[:n], atol=1e-13)
        np.testing.assert_allclose(w[n:], w_ref[n:], atol=1e-13)

    def test_none_v_updates_only_b(self, rng):
        b, v, ii, jj = self._round(rng)
        w_ref = b.copy(order="F")
        ratios, count = _py_sweep(b, None, ii, jj, 1e-12, 0.0)
        ref_ratios, ref_count = _vectorized(
            w_ref, b.shape[0], np.concatenate((ii, jj)), 1e-12, 0.0
        )
        assert count == ref_count
        np.testing.assert_allclose(b, w_ref, atol=1e-13)

    def test_extreme_scale_lanes(self, rng):
        # Columns at 1e+-150 put the Gram entries near 1e+-300, outside
        # [GRAM_SCALE_MIN, GRAM_SCALE_MAX]: the kernel's frexp/ldexp
        # rescale must give the angles the NumPy kernel's rescale does.
        b, v, ii, jj = self._round(rng)
        b[:, ::2] *= 1e150
        b[:, 1::2] *= 1e-150
        # One pair at the top of the range, (alpha, beta, gamma) =
        # (1.6, 1.2, 1.0) * 1e308: 2*|gamma| overflows unless rescaled.
        i, j = int(ii[0]), int(jj[0])
        b[:, [i, j]] = 0.0
        b[0, i] = np.sqrt(1.6e308)
        b[0, j] = 1e308 / b[0, i]
        b[1, j] = np.sqrt(1.2e308 - b[0, j] ** 2)
        n = b.shape[0]
        w = stack_panels([b], [v])
        w_ref = w.copy(order="F")
        idx = np.concatenate((ii, jj))
        kernel = getattr(native._sweep_kernel, "py_func",
                         native._sweep_kernel)

        ratios, count = kernel(w, n, idx, 1e-12, np.zeros(ii.size))
        ref_ratios, ref_count = _vectorized(w_ref, n, idx, 1e-12, 0.0)

        assert count == ref_count == ii.size
        assert ratios == pytest.approx(ref_ratios, rel=1e-12)
        assert np.all(np.isfinite(w))
        for got, want in ((w[:n], w_ref[:n]), (w[n:], w_ref[n:])):
            # Relative to each column's peak, B and V rows apart.
            error = np.abs(got - want).max(axis=0)
            assert np.all(error <= 1e-14 * np.abs(want).max(axis=0))

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
        # An exactly orthogonal pair: counted, but its angle is the
        # identity and its columns stay as they are.
        b[:, [ii[0], jj[0]]] = 0.0
        b[0, ii[0]] = 3.0
        b[1, jj[0]] = 2.0
        ratios, count = _py_sweep(b.copy(order="F"), v.copy(order="F"),
                                  ii, jj, 2.0, 0.0)
        assert count == 0
        after = b.copy(order="F")
        ratios2, count2 = _py_sweep(after, v.copy(order="F"),
                                    ii, jj, 0.0, 0.0)
        assert count2 == ii.size
        np.testing.assert_array_equal(after[:, [ii[0], jj[0]]],
                                      b[:, [ii[0], jj[0]]])

    def test_wrapper_delegates_without_numba(self, rng, monkeypatch):
        monkeypatch.setattr(native, "NUMBA_AVAILABLE", False)
        b, v, ii, jj = self._round(rng)
        n = b.shape[0]
        w = stack_panels([b], [v])
        w_ref = w.copy(order="F")
        idx = np.concatenate((ii, jj))
        ratios, count = native.sweep_pairs_indexed(
            w, n, idx, 1e-12, 0.0, round_workspace(w.shape, w.dtype)
        )
        ref_ratios, ref_count = _vectorized(w_ref, n, idx, 1e-12, 0.0)
        assert count == ref_count
        assert ratios.tobytes() == ref_ratios.tobytes()
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
