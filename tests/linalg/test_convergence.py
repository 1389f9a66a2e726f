"""Unit tests for the convergence criterion (Eq. 6)."""

import math

import numpy as np
import pytest

from repro.linalg import convergence
from repro.linalg.convergence import (
    is_converged,
    off_diagonal_ratio,
    pair_convergence_ratio,
    zero_column_threshold_sq,
)


def reference_off_diagonal_ratio(matrix):
    """The per-pair double loop the vectorized form must reproduce."""
    gram = matrix.T @ matrix
    norms_sq = np.diag(gram).copy()
    zero_sq = zero_column_threshold_sq(
        math.sqrt(max(float(np.sum(norms_sq)), 0.0)), matrix.dtype
    )
    n = matrix.shape[1]
    worst = 0.0
    for i in range(n):
        if norms_sq[i] <= zero_sq:
            continue
        for j in range(i + 1, n):
            if norms_sq[j] <= zero_sq:
                continue
            ratio = abs(gram[i, j]) / (
                math.sqrt(norms_sq[i]) * math.sqrt(norms_sq[j])
            )
            if ratio > worst:
                worst = ratio
    return float(worst)


class TestPairConvergenceRatio:
    def test_orthogonal_pair_is_zero(self):
        assert pair_convergence_ratio(4.0, 9.0, 0.0) == 0.0

    def test_parallel_pair_is_one(self):
        # a_i = a_j: gamma = alpha = beta.
        assert pair_convergence_ratio(2.0, 2.0, 2.0) == pytest.approx(1.0)

    def test_zero_norm_column_counts_as_converged(self):
        assert pair_convergence_ratio(0.0, 5.0, 0.0) == 0.0
        assert pair_convergence_ratio(5.0, 0.0, 0.0) == 0.0

    def test_sign_insensitive(self):
        assert pair_convergence_ratio(1.0, 4.0, -1.0) == pair_convergence_ratio(
            1.0, 4.0, 1.0
        )

    def test_matches_cosine_definition(self, rng):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        ratio = pair_convergence_ratio(
            float(a @ a), float(b @ b), float(a @ b)
        )
        cosine = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert ratio == pytest.approx(cosine)


class TestOffDiagonalRatio:
    def test_orthogonal_matrix_is_zero(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 4)))
        assert off_diagonal_ratio(q) < 1e-14

    def test_duplicate_columns_hit_one(self):
        a = np.ones((6, 2))
        assert off_diagonal_ratio(a) == pytest.approx(1.0)

    def test_zero_columns_ignored(self):
        a = np.zeros((5, 3))
        a[:, 0] = [1, 0, 0, 0, 0]
        assert off_diagonal_ratio(a) == 0.0

    def test_is_the_max_over_pairs(self, rng):
        a = rng.standard_normal((10, 4))
        worst = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                worst = max(
                    worst,
                    pair_convergence_ratio(
                        float(a[:, i] @ a[:, i]),
                        float(a[:, j] @ a[:, j]),
                        float(a[:, i] @ a[:, j]),
                    ),
                )
        assert off_diagonal_ratio(a) == pytest.approx(worst)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "kind", ["random", "zero_columns", "tiny", "orthonormal", "duplicate"]
    )
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_bit_identical_to_pairwise_loop(self, rng, n, kind, dtype):
        a = rng.standard_normal((n + 3, n))
        if kind == "zero_columns":
            a[:, ::3] = 0.0
        elif kind == "tiny":
            a *= 1e-200 if dtype == np.float64 else 1e-20
        elif kind == "orthonormal":
            a, _ = np.linalg.qr(a)
        elif kind == "duplicate":
            a[:, 0] = a[:, -1]
        a = a.astype(dtype)
        assert off_diagonal_ratio(a) == reference_off_diagonal_ratio(a)


class TestUpperPairs:
    """The pair indices are built once per size and shared read-only."""

    def test_same_read_only_arrays_per_size(self):
        first, second = convergence._upper_pairs(12)
        again = convergence._upper_pairs(12)
        assert again[0] is first and again[1] is second
        assert not first.flags.writeable and not second.flags.writeable
        expected = np.triu_indices(12, 1)
        assert np.array_equal(first, expected[0])
        assert np.array_equal(second, expected[1])
        with pytest.raises(ValueError):
            first[0] = 1

    def test_sizes_above_the_kept_maximum_are_rebuilt(self, rng,
                                                      monkeypatch):
        monkeypatch.setattr(convergence, "UPPER_PAIRS_MAX_KEPT", 4)
        assert convergence._upper_pairs(8)[0].flags.writeable
        a = rng.standard_normal((11, 8))
        assert off_diagonal_ratio(a) == reference_off_diagonal_ratio(a)


class TestIsConverged:
    def test_threshold_behaviour(self, rng):
        a = rng.standard_normal((12, 6))
        ratio = off_diagonal_ratio(a)
        assert is_converged(a, precision=ratio * 2)
        assert not is_converged(a, precision=ratio / 2)
