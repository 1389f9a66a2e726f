"""Numerical substrate: one-sided (Hestenes) Jacobi SVD.

This subpackage implements, from scratch, the SVD mathematics HeteroSVD
accelerates (paper Section II-A):

* :mod:`repro.linalg.rotations` — the two-column Jacobi rotation
  (Eqs. 3-5) that orthogonalizes a column pair.
* :mod:`repro.linalg.orderings` — parallel orderings (ring /
  round-robin / shifting-ring) that schedule which column pairs are
  rotated together in each round of a sweep.
* :mod:`repro.linalg.convergence` — the convergence criterion (Eq. 6).
* :mod:`repro.linalg.hestenes` — the full one-sided Hestenes-Jacobi SVD
  driver, including the normalization step (Eq. 7).
* :mod:`repro.linalg.block` — column-block partitioning and block-pair
  enumeration used by the block-Jacobi variant (Algorithm 1).
* :mod:`repro.linalg.svd` — the public entry point.
* :mod:`repro.linalg.streaming` — incremental rank-k SVD with
  row-block folding (``method="streaming"``).
* :mod:`repro.linalg.dnc` — bidiagonal divide-and-conquer SVD
  (``method="dnc"``).
* :mod:`repro.linalg.reference` — validation against ``numpy.linalg``.
"""

from repro.linalg.rotations import (
    JacobiRotation,
    apply_rotation,
    compute_rotation,
    compute_rotations_batch,
)
from repro.linalg.orderings import (
    Ordering,
    RingOrdering,
    RoundRobinOrdering,
    ShiftingRingOrdering,
    sweep_rounds,
)
from repro.linalg.convergence import (
    off_diagonal_ratio,
    pair_convergence_ratio,
    pair_convergence_ratios,
)
from repro.linalg.hestenes import (
    STRATEGIES,
    HestenesResult,
    hestenes_svd,
    resolve_strategy,
    sweep_pairs,
)
from repro.linalg.block import (
    BlockPartition,
    block_pairs,
)
from repro.linalg.svd import SVDResult, svd
from repro.linalg.truncated import TruncatedSVDResult, truncated_svd
from repro.linalg.streaming import StreamingResult, StreamingSVD, streaming_svd
from repro.linalg.dnc import DnCResult, dnc_svd

__all__ = [
    "JacobiRotation",
    "compute_rotation",
    "compute_rotations_batch",
    "apply_rotation",
    "sweep_pairs",
    "pair_convergence_ratios",
    "STRATEGIES",
    "resolve_strategy",
    "Ordering",
    "RingOrdering",
    "RoundRobinOrdering",
    "ShiftingRingOrdering",
    "sweep_rounds",
    "off_diagonal_ratio",
    "pair_convergence_ratio",
    "HestenesResult",
    "hestenes_svd",
    "BlockPartition",
    "block_pairs",
    "SVDResult",
    "svd",
    "TruncatedSVDResult",
    "truncated_svd",
    "StreamingSVD",
    "StreamingResult",
    "streaming_svd",
    "DnCResult",
    "dnc_svd",
]
