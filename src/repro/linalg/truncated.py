"""Randomized truncated SVD on top of the Jacobi solvers.

Recommendation and subspace workloads (paper refs [2], [4], [5])
usually need only the top-``r`` singular triplets of a large matrix.
The randomized range-finder (Halko-Martinsson-Tropp) reduces the
problem to a small dense SVD that fits the accelerator comfortably:

1. sketch ``Y = A (A^T A)^q Omega`` with a Gaussian test matrix
   ``Omega`` of ``r + oversample`` columns,
2. orthonormalize ``Q = qr(Y)``,
3. factor the small ``B = Q^T A`` with the (accelerator-friendly)
   Jacobi SVD,
4. lift: ``U = Q U_B``.

Step 3 is exactly the dense small-matrix SVD HeteroSVD accelerates, so
this module is also the recipe for *offloading truncated SVDs of
matrices far larger than the on-chip budget*: the sketch runs on the
host (it is two GEMMs), the dense core on the accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.svd import svd


@dataclass
class TruncatedSVDResult:
    """Top-``r`` singular triplets.

    Attributes:
        u: Shape ``(m, r)``.
        singular_values: Shape ``(r,)``, descending.
        v: Shape ``(n, r)``.
        rank: The requested rank.
        sweeps: Jacobi sweeps of the small dense core.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    rank: int
    sweeps: int

    def reconstruct(self) -> np.ndarray:
        """The rank-``r`` approximation ``U diag(S) V^T``."""
        return (self.u * self.singular_values) @ self.v.T


def truncated_svd(
    a: np.ndarray,
    rank: int,
    oversample: int = 8,
    power_iterations: int = 2,
    seed: Optional[int] = None,
    precision: float = 1e-8,
) -> TruncatedSVDResult:
    """Randomized top-``rank`` SVD.

    Args:
        a: Input matrix (any shape).
        rank: Number of singular triplets to return.
        oversample: Extra sketch columns for accuracy (HMT recommend
            5-10).
        power_iterations: Subspace power iterations ``q``; 1-2 sharpen
            the spectrum decay substantially for noisy matrices.
        seed: RNG seed for the test matrix.
        precision: Convergence target of the dense Jacobi core.

    Raises:
        ConfigurationError: for invalid rank/oversampling.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ConfigurationError(f"expected a non-empty matrix, got {a.shape}")
    m, n = a.shape
    max_rank = min(m, n)
    if not 1 <= rank <= max_rank:
        raise ConfigurationError(
            f"rank must be in [1, {max_rank}], got {rank}"
        )
    if oversample < 0 or power_iterations < 0:
        raise ConfigurationError(
            "oversample and power_iterations must be non-negative"
        )

    sketch_cols = min(max_rank, rank + oversample)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, sketch_cols))

    y = a @ omega
    for _ in range(power_iterations):
        # Re-orthonormalize between passes for numerical stability.
        y, _ = np.linalg.qr(y)
        y = a @ (a.T @ y)
    q, _ = np.linalg.qr(y)

    b = q.T @ a  # sketch_cols x n, small and dense
    # b is wide, so svd() leaves its U (the factor lifted by q)
    # orthonormal to eps and V to ``precision``.
    core = svd(b, method="hestenes", precision=precision)
    u = q @ core.u[:, :rank]
    return TruncatedSVDResult(
        u=u,
        singular_values=core.singular_values[:rank].copy(),
        v=core.v[:, :rank],
        rank=rank,
        sweeps=core.sweeps,
    )
