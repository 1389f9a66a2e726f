"""Warm-start (incremental) SVD for streaming workloads.

Real-time deployments (subspace tracking, channel updates, rating
streams) re-factor matrices that changed only slightly since the last
solve.  One-sided Jacobi is naturally warm-startable: seed the sweep
state with the previous solution's ``B = U diag(S)`` rotated into the
new data's frame, and convergence restarts from an almost-orthogonal
configuration — typically 2-4 sweeps instead of ``log2(n) + 3``.

Concretely, with a previous factorization ``A0 = U0 S0 V0^T`` and new
data ``A1``, the warm start factors ``B_init = A1 V0`` with
:func:`~repro.linalg.hestenes.hestenes_svd`: if ``A1`` is close to
``A0``, ``B_init`` is close to column-orthogonal ``U0 S0`` and the
sweeps stop early.  ``B_init = U S W^T`` then gives ``A1 = U S (V0 W)^T``,
so the new right singular vectors are ``V0 W``.

This is an extension beyond the paper (its real-time motivation applied
to temporally correlated streams).  The sweeps are a cold solve's,
unchanged; only the seeding (``A1 V0``) and the final ``V0 W`` differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Type

import numpy as np

from repro.errors import NumericalError
from repro.linalg.convergence import DEFAULT_PRECISION
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS, hestenes_svd
from repro.linalg.orderings import Ordering, ShiftingRingOrdering


@dataclass
class IncrementalResult:
    """A warm-started factorization.

    Attributes:
        u / singular_values / v: The thin SVD of the new data.
        sweeps: Sweeps the warm start needed.
        converged: Whether the precision target was met.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    sweeps: int
    converged: bool

    def reconstruct(self) -> np.ndarray:
        """``U diag(S) V^T``."""
        return (self.u * self.singular_values) @ self.v.T


class IncrementalSVD:
    """Tracks the SVD of a slowly changing matrix.

    Args:
        precision: Convergence threshold (Eq. 6).
        max_sweeps: Sweep budget per update.
        ordering_cls: Pair schedule (defaults to the shifting ring).
    """

    def __init__(
        self,
        precision: float = DEFAULT_PRECISION,
        max_sweeps: int = DEFAULT_MAX_SWEEPS,
        ordering_cls: Optional[Type[Ordering]] = None,
    ):
        self.precision = precision
        self.max_sweeps = max_sweeps
        self._ordering_cls = ordering_cls or ShiftingRingOrdering
        self._v: Optional[np.ndarray] = None
        self.history: List[int] = []

    @property
    def warm(self) -> bool:
        """Whether a previous solution is available to seed from."""
        return self._v is not None

    def update(self, a: np.ndarray) -> IncrementalResult:
        """Factor the new snapshot, warm-starting when possible.

        Raises:
            NumericalError: for invalid input (must be tall, finite,
                with an even column count — checked by
                :func:`~repro.linalg.hestenes.hestenes_svd` — and as
                wide as the tracked state).
            ConvergenceError: if the sweep budget is exhausted.
        """
        a = np.asarray(a, dtype=float)
        if self._v is not None and (
            a.ndim != 2 or a.shape[1] != self._v.shape[0]
        ):
            raise NumericalError(
                f"tracked width {self._v.shape[0]} does not match new "
                f"shape {a.shape}; reset() before changing problem size"
            )

        # Warm start: rotate the new data into the previous right
        # singular frame — near-orthogonal if the data moved little.
        seeded = a if self._v is None else a @ self._v
        result = hestenes_svd(
            seeded,
            precision=self.precision,
            max_sweeps=self.max_sweeps,
            ordering_cls=self._ordering_cls,
        )
        v = result.v if self._v is None else self._v @ result.v
        self._v = v
        self.history.append(result.sweeps)
        return IncrementalResult(
            u=result.u,
            singular_values=result.singular_values,
            v=v,
            sweeps=result.sweeps,
            converged=result.converged,
        )

    def reset(self) -> None:
        """Forget the tracked state (next update is a cold solve)."""
        self._v = None
        self.history.clear()
