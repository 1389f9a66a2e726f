"""Parity of the production round kernel with the scalar reference.

The drivers run one round kernel,
:func:`~repro.linalg.hestenes._sweep_pairs_indexed`, which processes
each ordering round (disjoint pairs) as one batch.  The per-pair
:func:`~repro.linalg.hestenes._sweep_pairs_scalar` is Eqs. 5-6 as
written and is kept as the oracle: :func:`scalar_kernel` substitutes it
through the drivers' call-time lookup of the kernel's module-global
name.  These tests pin the contract from docs/performance.md: same
rotations in the same logical order, so both kernels agree on singular
values (to floating-point summation order), sweep counts, and residual
histories — across the monolithic and block drivers, odd block counts,
wide, rank-deficient, and complex inputs, and every input class of the
validation battery — and the batched kernel is substantially faster.
"""

import contextlib
import time

import numpy as np
import pytest

import repro.linalg.hestenes as hestenes
from repro.core.config import HeteroSVDConfig
from repro.errors import NumericalError
from repro.exec.batch import BatchExecutor
from repro.linalg import hestenes_svd, sweep_pairs, svd
from repro.linalg.dnc import dnc_svd
from repro.linalg.block import block_pair_round_indices
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    _sweep_pairs_scalar,
    round_workspace,
    stack_panels,
)
from repro.linalg.orderings import (
    RingOrdering,
    RoundRobinOrdering,
    ShiftingRingOrdering,
)
from repro.linalg.streaming import StreamingSVD, streaming_svd
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig
from repro.validation import INPUT_CLASSES, PRECISION, Cell, cell_input
from repro.workloads.batch import TaskBatch, solve_batch
from repro.workloads.matrices import low_rank_matrix, random_matrix


@contextlib.contextmanager
def scalar_kernel():
    """Inside the block, the drivers run the scalar reference kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hestenes, "_sweep_pairs_indexed", _sweep_pairs_scalar)
        yield


def running_kernel(name: str):
    """``scalar_kernel()`` for ``"scalar"``; the production kernel, as
    is, for ``"vectorized"``."""
    return scalar_kernel() if name == "scalar" else contextlib.nullcontext()


def _both(a, **kwargs):
    with scalar_kernel():
        scalar = hestenes_svd(a, **kwargs)
    return scalar, hestenes_svd(a, **kwargs)


def _assert_parity(scalar, vectorized):
    np.testing.assert_allclose(
        scalar.singular_values, vectorized.singular_values,
        rtol=0.0, atol=1e-10 * scalar.singular_values[0],
    )
    assert scalar.sweeps == vectorized.sweeps


class TestHestenesParity:
    def test_singular_values_and_sweeps(self, rng):
        a = rng.standard_normal((96, 96))
        scalar, vectorized = _both(a)
        _assert_parity(scalar, vectorized)
        assert scalar.converged and vectorized.converged

    def test_residual_histories_match(self, rng):
        a = rng.standard_normal((32, 32))
        scalar, vectorized = _both(a)
        np.testing.assert_allclose(
            scalar.sweep_residuals, vectorized.sweep_residuals,
            rtol=1e-8,
        )

    def test_factors_reconstruct(self, rng):
        a = rng.standard_normal((48, 32))
        _, vectorized = _both(a)
        rebuilt = (vectorized.u * vectorized.singular_values) \
            @ vectorized.v.T
        np.testing.assert_allclose(rebuilt, a, atol=1e-8)

    @pytest.mark.parametrize(
        "ordering_cls",
        [RingOrdering, RoundRobinOrdering, ShiftingRingOrdering],
    )
    def test_every_ordering(self, rng, ordering_cls):
        a = rng.standard_normal((24, 24))
        _assert_parity(*_both(a, ordering_cls=ordering_cls))

    def test_rank_deficient(self):
        a = low_rank_matrix(40, 40, rank=5, seed=3, noise=0.0)
        scalar, vectorized = _both(a)
        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * max(scalar.singular_values[0], 1.0),
        )

    def test_fixed_sweeps(self, rng):
        a = rng.standard_normal((20, 20))
        scalar, vectorized = _both(a, fixed_sweeps=3)
        assert scalar.sweeps == vectorized.sweeps == 3
        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )


class TestBlockAndSVDParity:
    @pytest.mark.parametrize("shape,block_width", [
        ((32, 32), 8),
        ((48, 48), 8),   # odd block count (p=3): tournament bye round
        ((16, 32), 4),   # wide input: transposed internally
        ((33, 16), 4),   # odd row count, rectangular blocks
    ])
    def test_block_method(self, rng, shape, block_width):
        a = rng.standard_normal(shape)
        with scalar_kernel():
            scalar = svd(a, method="block", block_width=block_width)
        batched = svd(a, method="block", block_width=block_width)
        np.testing.assert_allclose(
            scalar.singular_values, batched.singular_values,
            rtol=0.0, atol=1e-10 * max(scalar.singular_values[0], 1.0),
        )
        assert scalar.sweeps == batched.sweeps

    def test_complex_input(self, rng):
        a = rng.standard_normal((24, 24)) \
            + 1j * rng.standard_normal((24, 24))
        with scalar_kernel():
            scalar = svd(a)
        vectorized = svd(a)
        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )

    @pytest.mark.parametrize("shape", [(64, 64), (80, 48)])
    @pytest.mark.parametrize("method", ["dnc", "streaming"])
    def test_reduction_methods(self, rng, method, shape):
        # The dnc leaves and the streaming fold's solves run the Jacobi
        # driver, so the seam reaches them too.
        a = rng.standard_normal(shape)
        calls = []

        def counted(*args):
            calls.append(None)
            return _sweep_pairs_scalar(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hestenes, "_sweep_pairs_indexed", counted)
            scalar = svd(a, method=method)
        assert calls
        _assert_parity(scalar, svd(a, method=method))


@pytest.mark.parametrize("tasks", [1, 3], ids=lambda t: f"T{t}")
@pytest.mark.parametrize("method", ["hestenes", "block"])
@pytest.mark.parametrize("input_class", list(INPUT_CLASSES))
def test_every_input_class(input_class, method, tasks):
    """The validation battery's Jacobi inputs, at its size and
    precision: one matrix through ``svd``, three as one stacked
    ``solve_batch`` run."""
    matrices = cell_input(Cell(method, input_class, tasks))

    def solve():
        if tasks == 1:
            return [svd(matrices[0], method=method, precision=PRECISION)]
        m, n = matrices[0].shape
        return solve_batch(TaskBatch(m, n, matrices), method=method,
                           precision=PRECISION)

    with scalar_kernel():
        scalar = solve()
    production = solve()
    assert len(scalar) == len(production) == tasks
    for want, got in zip(scalar, production):
        _assert_parity(want, got)


class TestSweepPairs:
    def test_matches_scalar_round(self, rng):
        n = 16
        b_vec = np.asfortranarray(rng.standard_normal((n, n)))
        w_ref = stack_panels([b_vec])
        pairs = [(i, i + n // 2) for i in range(n // 2)]
        idx = np.asarray(pairs, dtype=np.intp).T.ravel()

        worst, rotated = sweep_pairs(b_vec, None, pairs,
                                     precision=1e-12, zero_sq=0.0)
        ref_ratios, ref_rotated = _sweep_pairs_scalar(
            w_ref, n, idx, 1e-12, 0.0, None
        )

        assert rotated == ref_rotated
        assert worst == pytest.approx(ref_ratios.max(), rel=1e-12)
        np.testing.assert_allclose(b_vec, w_ref, atol=1e-12)

    def test_stacked_block_round_matches_scalar(self, rng):
        # One tournament round of 4 block pairs of width 8 (16 local
        # columns each), with V rows: every ordering round is one call
        # over 32 disjoint pairs, as in the block driver.
        width, groups, m = 8, 4, 24
        n = 2 * width * groups
        w_vec = stack_panels([rng.standard_normal((m, n))], [np.eye(n)])
        w_ref = w_vec.copy(order="F")
        work = round_workspace(w_vec.shape, w_vec.dtype)
        rounds = block_pair_round_indices(
            [range(g * 2 * width, (g + 1) * 2 * width)
             for g in range(groups)],
            ShiftingRingOrdering(2 * width),
        )
        for idx in rounds:
            assert idx.size == n
            got = _sweep_pairs_indexed(w_vec, m, idx, 1e-12, 0.0, work)
            ref = _sweep_pairs_scalar(w_ref, m, idx, 1e-12, 0.0, None)
            assert got[1] == ref[1]
            assert got[0] == pytest.approx(ref[0], rel=1e-12)
        np.testing.assert_allclose(w_vec, w_ref, rtol=0.0, atol=1e-12)

    def test_rejects_overlapping_pairs(self, rng):
        b = np.asfortranarray(rng.standard_normal((8, 8)))
        with pytest.raises(NumericalError):
            sweep_pairs(b, None, [(0, 1), (1, 2)], precision=1e-12,
                        zero_sq=0.0)


class TestAcceptance256:
    """The docs/performance.md acceptance numbers, pinned."""

    def test_parity_and_speedup_256(self):
        a = random_matrix(256, 256, seed=0)

        started = time.perf_counter()
        with scalar_kernel():
            scalar = hestenes_svd(a)
        scalar_s = time.perf_counter() - started

        started = time.perf_counter()
        vectorized = hestenes_svd(a)
        vectorized_s = time.perf_counter() - started

        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )
        assert scalar.sweeps == vectorized.sweeps
        # Measured 2.71x on a 2-CPU container (docs/performance.md);
        # 2x is the flake-proof floor for shared CI runners.
        assert scalar_s / vectorized_s >= 2.0


def test_svd_takes_no_kernel_option(square_matrix):
    # One round kernel: the old ``strategy`` knob is an unknown keyword.
    with pytest.raises(TypeError, match="strategy"):
        svd(square_matrix, strategy="vectorized")


_KERNEL_OPTION = {"strategy": "vectorized"}


@pytest.mark.parametrize("call", [
    lambda a: hestenes_svd(a, **_KERNEL_OPTION),
    lambda a: dnc_svd(a, **_KERNEL_OPTION),
    lambda a: StreamingSVD(a.shape[1], **_KERNEL_OPTION),
    lambda a: StreamingSVD.from_matrix(a, a.shape[1], **_KERNEL_OPTION),
    lambda a: streaming_svd(a, **_KERNEL_OPTION),
    lambda a: solve_batch(TaskBatch(*a.shape, [a]), **_KERNEL_OPTION),
    lambda a: BatchExecutor(
        HeteroSVDConfig(m=a.shape[0], n=a.shape[1], p_eng=4, p_task=1),
        **_KERNEL_OPTION,
    ),
    lambda a: ServeConfig(**_KERNEL_OPTION),
    # The keyword is refused before the lazy client ever connects.
    lambda a: ServeClient("localhost", 0).decompose(
        shape=list(a.shape), **_KERNEL_OPTION,
    ),
], ids=[
    "hestenes_svd", "dnc_svd", "StreamingSVD", "StreamingSVD.from_matrix",
    "streaming_svd", "solve_batch", "BatchExecutor", "ServeConfig",
    "ServeClient.decompose",
])
def test_no_layer_takes_a_kernel_option(square_matrix, call):
    # Every layer that used to forward ``strategy`` refuses it now.
    with pytest.raises(TypeError, match="strategy"):
        call(square_matrix)
