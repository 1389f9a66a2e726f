"""The two-step preconditioner of ``svd(method="hestenes"|"block")``.

Both Jacobi methods take a Householder QR of the input's columns
sorted by descending norm, ``M[:, perm] = Q R``, then the LQ of that
triangle, ``R = L Q_1^T``, sweep ``L`` and compose ``U = Q U_x`` and
``V[perm] = Q_1 V_x`` from ``L = U_x S V_x^T``.  These tests pin what
that buys (fewer sweeps than the plain driver on the input itself, and
than sweeping ``R^T`` of the first step alone) and what it changes:
exactly-zero singular values carry zero U columns while V stays
orthonormal, every prepared task of one column count shares a stack,
and no SciPy import is needed.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.linalg import svd
from repro.linalg.convergence import DEFAULT_PRECISION
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS, _block_jacobi_svd
from repro.linalg.orderings import ShiftingRingOrdering
from repro.linalg.svd import _prepare
from repro.workloads.batch import TaskBatch, solve_batch
from repro.workloads.matrices import conditioned_matrix, random_matrix


def _solve_like_inputs():
    """Ten square inputs drawn like perfbench's solve workload: n in
    48..128, both methods, three of ten at condition 1e8."""
    rng = np.random.default_rng(24)
    sizes = (48, 64, 80, 96, 128)
    ops = []
    for i in range(10):
        n = sizes[i % len(sizes)]
        method = ("hestenes", "block")[i // len(sizes)]
        seed = int(rng.integers(0, 2**31 - 1))
        a = (conditioned_matrix(n, n, 1e8, seed=seed) if i in (1, 4, 8)
             else random_matrix(n, n, seed=seed))
        ops.append((a, method))
    return ops


def _width(method, n):
    return n // 2 if method == "hestenes" else min(8, n // 2)


class TestFewerSweeps:
    def test_sweeps_at_most_three_quarters_of_the_plain_driver(self):
        ops = _solve_like_inputs()
        preconditioned = plain = 0
        for a, method in ops:
            result = svd(a, method=method)
            assert result.converged and not result.degraded
            preconditioned += result.sweeps
            plain += _block_jacobi_svd(
                a,
                block_width=_width(method, a.shape[1]),
                precision=DEFAULT_PRECISION,
                max_sweeps=DEFAULT_MAX_SWEEPS,
                ordering_cls=ShiftingRingOrdering,
                fixed_sweeps=None,
                method=method,
            ).sweeps
        assert preconditioned <= 0.75 * plain, (preconditioned, plain)

    def test_lq_step_sweeps_fewer_than_the_qr_step_alone(self):
        # Sweeping R^T of the norm-sorted QR alone took 73 sweeps over
        # these inputs and the LQ step's L 60.
        two_step = one_step = 0
        for a, method in _solve_like_inputs():
            two_step += svd(a, method=method).sweeps
            perm = np.argsort(-np.einsum("ij,ij->j", a, a), kind="stable")
            one_step += _block_jacobi_svd(
                np.linalg.qr(a[:, perm])[1].T.copy(),
                block_width=_width(method, a.shape[1]),
                precision=DEFAULT_PRECISION,
                max_sweeps=DEFAULT_MAX_SWEEPS,
                ordering_cls=ShiftingRingOrdering,
                fixed_sweeps=None,
                method=method,
            ).sweeps
        assert two_step <= 0.9 * one_step, (two_step, one_step)

    def test_norm_sort_beats_unpivoted_qr_on_graded_inputs(self):
        # Column scales 1 ... 1e-8 in both orders: without the sort, R^T
        # of a QR takes more sweeps than the input itself.
        def plain_sweeps(a):
            return _block_jacobi_svd(
                a, block_width=a.shape[1] // 2, precision=1e-10,
                max_sweeps=DEFAULT_MAX_SWEEPS,
                ordering_cls=ShiftingRingOrdering, fixed_sweeps=None,
                method="hestenes",
            ).sweeps

        plain = unpivoted = sorted_qr = 0
        for seed in range(2):
            for scales in (np.logspace(0, -8, 64), np.logspace(-8, 0, 64)):
                a = random_matrix(64, 64, seed=seed) * scales
                plain += plain_sweeps(a)
                unpivoted += plain_sweeps(np.linalg.qr(a)[1].T.copy())
                sorted_qr += svd(a, method="hestenes",
                                 precision=1e-10).sweeps
        assert sorted_qr < plain < unpivoted, (sorted_qr, plain, unpivoted)


class TestZeroSingularValues:
    """Exactly-zero sigma carry zero U columns (zero V columns for a
    wide input, whose factors swap); the other factor, q1 times the
    accumulated rotations, is orthonormal to eps."""

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_zero_columns_give_zero_u_and_orthonormal_v(self, method):
        a = random_matrix(12, 12, seed=5)
        a[:, [3, 7, 8]] = 0.0
        result = svd(a, method=method, block_width=4 if method == "block"
                     else None)
        s = result.singular_values
        assert np.all(s[:9] > 0) and np.all(s[9:] == 0.0)
        assert np.all(result.u[:, 9:] == 0.0)
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(12),
                                   atol=1e-14)
        np.testing.assert_allclose(result.reconstruct(), a, atol=1e-12)

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_wide_input_zero_rows_give_zero_v(self, method):
        a = random_matrix(10, 16, seed=6)
        a[[2, 5], :] = 0.0
        result = svd(a, method=method)
        assert np.all(result.singular_values[8:] == 0.0)
        assert np.all(result.v[:, 8:] == 0.0)
        np.testing.assert_allclose(result.u.T @ result.u, np.eye(10),
                                   atol=1e-14)
        np.testing.assert_allclose(result.reconstruct(), a, atol=1e-12)

    def test_all_zero_matrix_keeps_orthonormal_v(self):
        result = svd(np.zeros((9, 7)))
        assert np.all(result.singular_values == 0.0)
        assert np.all(result.u == 0.0)
        np.testing.assert_allclose(result.v.T @ result.v, np.eye(7),
                                   atol=1e-15)


class TestShapesShareAStack:
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_mixed_shapes_bit_identical_to_solo_runs(self, method):
        # 32x16, 16x32 and 16x16 all prepare to one 16x16 L.
        rng = np.random.default_rng(7)
        matrices = [rng.standard_normal(shape) for shape in
                    [(32, 16), (16, 32), (16, 16), (16, 32), (32, 16)]]
        assert {
            _prepare(a, method, None, True, "auto", None).work.shape
            for a in matrices
        } == {(16, 16)}
        kwargs = dict(method=method)
        batch = solve_batch(TaskBatch(16, 16, matrices), **kwargs)
        for a, got in zip(matrices, batch):
            want = svd(a, **kwargs)
            assert got.u.tobytes() == want.u.tobytes()
            assert got.singular_values.tobytes() == \
                want.singular_values.tobytes()
            assert got.v.tobytes() == want.v.tobytes()
            assert got.sweep_residuals == want.sweep_residuals


def test_svd_imports_no_scipy():
    """A fresh interpreter factors through ``repro.svd`` without SciPy,
    whose import would add ~22 MB of peak RSS and ~0.3 s of start-up."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import repro\n"
        "a = np.random.default_rng(0).standard_normal((24, 12))\n"
        "for method in ('hestenes', 'block'):\n"
        "    repro.svd(a, method=method)\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
