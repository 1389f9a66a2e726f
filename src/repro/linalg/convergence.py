"""Convergence criteria for one-sided Jacobi sweeps (paper Eq. 6).

The stopping rule checks, for every column pair, the normalized inner
product

.. math::

    \\frac{|b_i^T b_j|}{\\sqrt{(b_i^T b_i)(b_j^T b_j)}} < precision.

The maximum of this ratio over all pairs (the *off-diagonal ratio*) is
the sweep-level convergence metric tracked by the system module.  Pairs
involving a numerically zero column are treated as converged: a zero
column is orthogonal to everything.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

#: Default convergence threshold used across the package; matches the
#: rate of 1e-6 used for the paper's converged-run experiments.
DEFAULT_PRECISION = 1e-6

#: Largest column count whose pair indices :func:`_upper_pairs` keeps
#: (``n (n - 1)`` indices, 0.5 MB at 256); wider matrices rebuild them,
#: which costs little next to their Gram matrix.
UPPER_PAIRS_MAX_KEPT = 256


def zero_column_threshold_sq(
    frobenius_norm: float, dtype=np.float64
) -> float:
    """Squared norm below which a column counts as numerically zero.

    Rank-deficient (or wide) inputs drive null-space columns toward
    zero during the sweeps; their residual noise has O(1) mutual
    correlation and would never satisfy Eq. 6.  Following standard
    one-sided Jacobi practice, columns below ``~100 eps ||A||_F`` are
    treated as exact zeros by the convergence test.
    """
    eps = float(np.finfo(dtype).eps)
    return (100.0 * eps * frobenius_norm) ** 2


def pair_convergence_ratio(
    alpha: float, beta: float, gamma: float, zero_sq: float = 0.0
) -> float:
    """Normalized inner product of one pair from its Gram entries.

    Args:
        alpha: ``b_i^T b_i``.
        beta: ``b_j^T b_j``.
        gamma: ``b_i^T b_j``.
        zero_sq: Squared-norm floor (from
            :func:`zero_column_threshold_sq`); pairs involving a column
            below it count as converged.

    Returns:
        ``|gamma| / sqrt(alpha * beta)``, or ``0.0`` when either column
        is (numerically) zero.  The denominator is computed as
        ``sqrt(alpha) * sqrt(beta)`` so near-zero columns cannot
        underflow the product to zero.
    """
    if alpha <= zero_sq or beta <= zero_sq or alpha <= 0.0 or beta <= 0.0:
        return 0.0
    denominator = math.sqrt(alpha) * math.sqrt(beta)
    if denominator == 0.0:
        return 0.0
    return abs(gamma) / denominator


def pair_convergence_ratios(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray,
    zero_sq: "float | np.ndarray" = 0.0, *,
    norm_product: "np.ndarray | None" = None,
) -> np.ndarray:
    """Vectorized :func:`pair_convergence_ratio` over arrays of pairs.

    All three inputs are 1-D arrays of Gram entries for a batch of
    *disjoint* column pairs (one round of a parallel ordering).  Entry
    ``k`` of the result equals
    ``pair_convergence_ratio(alpha[k], beta[k], gamma[k], zero_sq[k])``:
    the same zero-column floor applies (one floor for every pair, or
    an array of per-pair floors when the pairs come from several
    matrices stacked in one round), and the denominator is computed
    as ``sqrt(alpha) * sqrt(beta)`` (not ``sqrt(alpha * beta)``) so
    near-zero columns cannot underflow the product.  The entries are
    upcast to float64 first.  The round kernel passes that
    denominator in as ``norm_product`` and shares it with
    :func:`~repro.linalg.rotations.compute_rotations_batch`.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if norm_product is None:
        norm_product = np.sqrt(alpha) * np.sqrt(beta)
    # One floor test covers both squared norms (NaN compares false).
    live = np.minimum(alpha, beta) > np.maximum(zero_sq, 0.0)
    live &= norm_product > 0.0
    ratios = np.zeros_like(norm_product)
    return np.divide(np.abs(gamma), norm_product, out=ratios, where=live)


@functools.lru_cache(maxsize=32)
def _kept_upper_pairs(size: int) -> Tuple[np.ndarray, np.ndarray]:
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _upper_pairs(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size, 1)``: every column pair ``i < j``.

    Read-only arrays built once per size up to
    :data:`UPPER_PAIRS_MAX_KEPT` (pure structure: they read no
    calibration constant); the Jacobi drivers test convergence after
    every sweep, mostly at a few sizes.
    """
    if size > UPPER_PAIRS_MAX_KEPT:
        return np.triu_indices(size, 1)
    return _kept_upper_pairs(size)


def off_diagonal_ratio(matrix: np.ndarray) -> float:
    """Maximum pair convergence ratio over all column pairs of a matrix.

    This is the quantity the receiver module reduces across AIEs and
    reports to the system module after each sweep.  A value below the
    chosen precision means the columns are mutually orthogonal to that
    tolerance and the orthogonalization stage may stop.
    """
    gram = matrix.T @ matrix
    norms_sq = np.diag(gram).copy()
    zero_sq = zero_column_threshold_sq(
        math.sqrt(max(float(np.sum(norms_sq)), 0.0)), matrix.dtype
    )
    # ``~(x <= floor)`` rather than ``x > floor`` keeps NaN norms in,
    # and the NaN ratios they produce are then skipped by the max.
    live = np.flatnonzero(~(norms_sq <= zero_sq))
    if live.size < 2:
        return 0.0
    # Roots and their product in float64, the quotient in the Gram's
    # own precision: the same IEEE operations as the per-pair formula.
    roots = np.sqrt(norms_sq[live].astype(np.float64))
    first, second = _upper_pairs(live.size)
    denominator = (roots[first] * roots[second]).astype(gram.dtype)
    ratios = np.abs(gram[live[first], live[second]]) / denominator
    return float(np.max(ratios, initial=0.0, where=~np.isnan(ratios)))


def is_converged(matrix: np.ndarray, precision: float = DEFAULT_PRECISION) -> bool:
    """True when every column pair satisfies Eq. 6 at ``precision``."""
    return off_diagonal_ratio(matrix) < precision
