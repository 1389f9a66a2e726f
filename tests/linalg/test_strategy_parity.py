"""Cross-strategy parity for the Jacobi inner-loop kernels.

The ``vectorized`` kernel processes each ordering round (disjoint
pairs) as one batch.  These tests pin the contract from
docs/performance.md: same rotations in the same logical order as the
``scalar`` reference, so both strategies agree on singular values (to
floating-point summation order), sweep counts, and residual histories
— across the monolithic and block drivers, odd block counts, wide,
rank-deficient, and complex inputs — and the batched kernel is
substantially faster.
"""

import time

import numpy as np
import pytest

from repro.errors import NumericalError
from repro.linalg import (
    STRATEGIES,
    hestenes_svd,
    resolve_strategy,
    sweep_pairs,
    svd,
)
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
from repro.workloads.matrices import low_rank_matrix, random_matrix


class TestResolveStrategy:
    def test_auto_is_vectorized(self):
        assert resolve_strategy("auto") == "vectorized"

    @pytest.mark.parametrize("name", ["scalar", "vectorized"])
    def test_explicit_passthrough(self, name):
        assert resolve_strategy(name) == name

    def test_resolution_is_idempotent(self):
        for name in STRATEGIES:
            resolved = resolve_strategy(name)
            assert resolve_strategy(resolved) == resolved

    @pytest.mark.parametrize("name", ["simd", "native"])
    def test_unknown_strategy_raises(self, name):
        # "native" names no kernel: it is refused, not aliased.
        with pytest.raises(NumericalError, match="unknown strategy"):
            resolve_strategy(name)

    def test_registry_contents(self):
        assert STRATEGIES == ("auto", "scalar", "vectorized")

    def test_unknown_strategy_raises_from_svd(self, square_matrix):
        with pytest.raises(NumericalError):
            svd(square_matrix, strategy="gpu")


def _both(a, **kwargs):
    scalar = hestenes_svd(a, strategy="scalar", **kwargs)
    vectorized = hestenes_svd(a, strategy="vectorized", **kwargs)
    return scalar, vectorized


class TestHestenesParity:
    def test_singular_values_and_sweeps(self, rng):
        a = rng.standard_normal((96, 96))
        scalar, vectorized = _both(a)
        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )
        assert scalar.sweeps == vectorized.sweeps
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
        scalar, vectorized = _both(a, ordering_cls=ordering_cls)
        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )
        assert scalar.sweeps == vectorized.sweeps

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
        scalar = svd(a, method="block", block_width=block_width,
                     strategy="scalar")
        batched = svd(a, method="block", block_width=block_width,
                      strategy="vectorized")
        np.testing.assert_allclose(
            scalar.singular_values, batched.singular_values,
            rtol=0.0, atol=1e-10 * max(scalar.singular_values[0], 1.0),
        )
        assert scalar.sweeps == batched.sweeps

    def test_complex_input(self, rng):
        a = rng.standard_normal((24, 24)) \
            + 1j * rng.standard_normal((24, 24))
        scalar = svd(a, strategy="scalar")
        vectorized = svd(a, strategy="vectorized")
        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )

    def test_auto_matches_resolved_tier(self, rng):
        a = rng.standard_normal((32, 32))
        auto = svd(a, strategy="auto")
        resolved = svd(a, strategy=resolve_strategy("auto"))
        np.testing.assert_array_equal(
            auto.singular_values, resolved.singular_values
        )


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
        scalar = hestenes_svd(a, strategy="scalar")
        scalar_s = time.perf_counter() - started

        started = time.perf_counter()
        vectorized = hestenes_svd(a, strategy="vectorized")
        vectorized_s = time.perf_counter() - started

        np.testing.assert_allclose(
            scalar.singular_values, vectorized.singular_values,
            rtol=0.0, atol=1e-10 * scalar.singular_values[0],
        )
        assert scalar.sweeps == vectorized.sweeps
        # Measured 2.71x on a 2-CPU container (docs/performance.md);
        # 2x is the flake-proof floor for shared CI runners.
        assert scalar_s / vectorized_s >= 2.0
