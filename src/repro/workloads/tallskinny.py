"""Tall-skinny matrices — the least-squares / PCA panel use case.

Tall-skinny inputs (``m >> n``) are where the Jacobi methods' QR
preconditioner pays most: one Householder QR shrinks the matrix to an
``n x n`` triangle and only that core is swept (the single-panel TSQR
reduction; see :func:`repro.linalg.svd`).  :func:`tall_skinny_matrix`
generates the standard test shape — a Gaussian matrix with
geometrically decaying column scales, i.e. a controlled spectrum whose
condition number is set by ``decay ** (n - 1)`` — so solver
comparisons sweep conditioning without changing the aspect ratio (see
the crossover study in ``docs/workloads.md``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


def tall_skinny_matrix(
    m: int,
    n: int,
    decay: float = 0.9,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Gaussian tall-skinny matrix with geometric column scaling.

    Column ``j`` is scaled by ``decay ** j``, giving a graded spectrum
    whose spread is ``decay ** (n - 1)`` — ``decay=1.0`` is the
    unscaled Gaussian (condition number ~ ``sqrt(m/n)``), smaller
    values grade it harder.

    Args:
        m: Row count; must be at least ``n`` (the generator enforces
            tall-skinny, transpose yourself for short-fat panels).
        n: Column count.
        decay: Per-column geometric scale factor in ``(0, 1]``.
        seed: RNG seed.

    Returns:
        A dense ``m x n`` float matrix.
    """
    if n < 1 or m < n:
        raise ConfigurationError(
            f"tall-skinny requires m >= n >= 1, got {m}x{n}"
        )
    if not 0 < decay <= 1:
        raise ConfigurationError(
            f"decay must be in (0, 1], got {decay}"
        )
    rng = np.random.default_rng(seed)
    scales = decay ** np.arange(n)
    return rng.standard_normal((m, n)) * scales
