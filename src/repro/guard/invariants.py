"""Factorization invariant checks (the ``--check-invariants`` mode).

A one-sided Jacobi factorization that *claims* success should satisfy
two invariants regardless of how it got there:

* **orthogonality** — the worked matrix ``B = A V`` has (numerically)
  orthogonal columns, i.e. the Eq. 6 off-diagonal ratio is at the
  requested precision;
* **reconstruction** — ``U Σ Vᵀ`` reproduces ``A`` to a rounding-level
  relative error.  One-sided Jacobi maintains ``B = A V`` exactly
  through every rotation, so the reconstruction error is ``O(n·ε)``
  independent of convergence; a larger error means state corruption
  (lost updates, aliased panels), not slow convergence.

:func:`check_factor_invariants` measures both; the solver drivers use
it to attempt one re-orthogonalization sweep before degrading to the
LAPACK fallback with a :class:`~repro.errors.DegradedResultWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.obs import metrics as _metrics

#: Reconstruction tolerance is ``RECONSTRUCTION_TOL_FACTOR * n * eps``
#: — a generous multiple of the rounding accumulated over ``O(n)``
#: rotations per column.
RECONSTRUCTION_TOL_FACTOR = 1000.0

#: The post-hoc global orthogonality re-measure may exceed the
#: per-round pre-rotation worst ratio the sweep loop tracked (later
#: rotations perturb earlier pairs); allow this factor of slack.
ORTHOGONALITY_SLACK = 10.0


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one invariant check.

    Attributes:
        ok: Both invariants hold.
        reconstruction_error: ``||UΣVᵀ - A||_F / ||A||_F``.
        orthogonality_residual: Global Eq. 6 off-diagonal ratio of the
            worked matrix (None when not measured — unconverged runs
            only check reconstruction).
    """

    ok: bool
    reconstruction_error: float
    orthogonality_residual: Optional[float]

    def error(self, iterations: int, when: str = "") -> ConvergenceError:
        """The :class:`~repro.errors.ConvergenceError` of a failed check,
        which a solver raises or degrades on; ``when`` qualifies it."""
        return ConvergenceError(
            f"factor invariants violated{when} "
            f"(reconstruction error {self.reconstruction_error:.3e}, "
            f"orthogonality residual {self.orthogonality_residual})",
            iterations=iterations,
            residual=float(
                self.orthogonality_residual
                if self.orthogonality_residual is not None
                else self.reconstruction_error
            ),
        )


def orthogonality_residual(b: np.ndarray) -> float:
    """Vectorized global off-diagonal ratio (Eq. 6) of ``B``.

    Matches :func:`repro.linalg.convergence.off_diagonal_ratio` but in
    whole-matrix NumPy operations, so checking a 512-column factor
    costs one ``B^T B`` instead of ~131k Python-loop dot products.
    Columns with zero norm are skipped, as in the scalar routine.
    """
    gram = b.T @ b
    norms = np.sqrt(np.diag(gram).clip(min=0.0))
    live = norms > 0
    if not np.any(live):
        return 0.0
    g = np.abs(gram[np.ix_(live, live)])
    scale = np.outer(norms[live], norms[live])
    np.fill_diagonal(g, 0.0)
    return float((g / scale).max())


def check_factor_invariants(
    a: np.ndarray,
    b: np.ndarray,
    v: np.ndarray,
    precision: float,
    converged: bool = True,
) -> InvariantReport:
    """Verify the factorization invariants of a Jacobi working state.

    Args:
        a: The original (driver-internal, possibly padded) input.
        b: The worked matrix ``A V``.
        v: The accumulated rotations.
        precision: The Eq. 6 precision the run targeted.
        converged: Whether the driver claims convergence; the
            orthogonality invariant is only enforced then (a
            ``fixed_sweeps`` run is legitimately unconverged).

    Returns:
        An :class:`InvariantReport`.
    """
    _metrics.counter("guard.invariant_checks").inc()
    n = a.shape[1]
    eps = float(np.finfo(np.asarray(a).dtype).eps) if \
        np.asarray(a).dtype.kind == "f" else float(np.finfo(float).eps)
    a_norm = float(np.linalg.norm(a))
    recon = float(np.linalg.norm(b @ v.T - a))
    recon_rel = recon / a_norm if a_norm > 0 else recon
    recon_ok = recon_rel <= RECONSTRUCTION_TOL_FACTOR * n * eps

    orth: Optional[float] = None
    orth_ok = True
    if converged:
        orth = orthogonality_residual(b)
        orth_ok = orth <= ORTHOGONALITY_SLACK * precision

    ok = recon_ok and orth_ok
    if not ok:
        _metrics.counter("guard.invariant_failures").inc()
    return InvariantReport(
        ok=ok,
        reconstruction_error=recon_rel,
        orthogonality_residual=orth,
    )
