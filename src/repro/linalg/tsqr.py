"""Tall-skinny SVD via blocked TSQR panel reduction (``method="tsqr"``).

For an ``m x n`` matrix with ``m >> n`` the dense Jacobi solvers spend
their time rotating long columns; the TSQR dataflow (the low-latency
parallelizable SVD design of arXiv:2511.12461, in spirit) instead

1. slices the rows into panels and QR-factors each panel
   independently — the panels fan out through
   :class:`~repro.exec.parallel.ParallelRunner`, so ``jobs > 1`` uses
   the repo's process pool with its shared-memory fan-out;
2. reduces the per-panel ``R`` factors pairwise (stack two, re-QR)
   down a binary tree until a single ``n x n`` triangle remains;
3. hands that small dense core to ``svd(method="block")`` (whose V,
   the factor lifted in step 4, is orthonormal to eps) so the
   final factorization inherits the strategy tiers, the guard rails,
   and the deadline plumbing of the paper's block-Jacobi engine;
4. recovers the left vectors panel-wise as ``U = A V diag(1/s)``.

The singular values come entirely from step 3 on an orthogonally
reduced core, so they match ``np.linalg.svd`` to rtol 1e-10 at
float64 (the core is solved at ``min(precision, 1e-8)`` to keep that
contract at the looser library default).  The ``U = A V / s`` recovery
is the standard cheap route: its columns lose orthogonality gradually
with the condition number, and singular values below
``s_max * max(m, n) * eps`` yield zero ``U`` columns (same convention
as the Jacobi drivers' zero-column normalization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import NumericalError
from repro.guard.deadline import Deadline, as_deadline
from repro.guard.validate import validate_matrix
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS

__all__ = ["TSQRResult", "tall_skinny_svd", "panel_r"]


def panel_r(panel: np.ndarray) -> np.ndarray:
    """R factor of one row panel (module-level so process pools can
    pickle it)."""
    return np.linalg.qr(panel, mode="reduced")[1]


@dataclass
class TSQRResult:
    """Output of :func:`tall_skinny_svd`.

    Attributes:
        u: Left singular vectors, shape ``(m, r)``, recovered
            panel-wise from ``A V diag(1/s)``.
        singular_values: Descending singular values from the reduced
            core.
        v: Right singular vectors, shape ``(n, r)``.
        sweeps: Jacobi sweeps spent on the reduced core.
        converged: Whether the core solve converged.
        panels: Number of row panels QR-factored in step 1.
        tree_levels: Depth of the pairwise R-reduction tree.
        sweep_residuals: Core solver's per-sweep residuals.
        degraded: True when the core solve fell back to the LAPACK
            reference path.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    sweeps: int
    converged: bool
    panels: int
    tree_levels: int
    sweep_residuals: List[float] = field(default_factory=list)
    degraded: bool = False

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(S) V^T`` for residual checks."""
        return (self.u * self.singular_values) @ self.v.T


def tall_skinny_svd(
    a: np.ndarray,
    panel_rows: Optional[int] = None,
    jobs: Optional[int] = None,
    block_width: Optional[int] = None,
    precision: float = 1e-8,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    strategy: str = "auto",
    fallback: Optional[str] = None,
    validate: bool = True,
    deadline: "Optional[Deadline | float]" = None,
    check_invariants: bool = False,
) -> TSQRResult:
    """Thin SVD of a tall-skinny matrix by TSQR panel reduction.

    Args:
        a: Any real 2-D matrix; wide inputs are factored through the
            transpose (making them short-fat panel reductions).
        panel_rows: Rows per panel (default ``max(4 * n, 64)``); the
            last panel may be shorter.
        jobs: Worker processes for the panel fan-out (``None`` defers
            to ``HETEROSVD_JOBS`` via
            :func:`~repro.exec.parallel.resolve_jobs`; 1 runs
            inline).  Results are bit-identical across job counts —
            each panel's R is computed independently.
        block_width: Block width for the ``method="block"`` core
            solve.
        precision: Convergence threshold for the core solve, floored
            at 1e-8 so the rtol-1e-10 singular-value contract holds.
        max_sweeps: Sweep budget for the core solve.
        strategy: Strategy tier for the core solve.
        fallback: Forwarded to the core solve (``"reference"``
            degrades instead of raising on non-convergence).
        validate: Run :func:`~repro.guard.validate_matrix` first.
        deadline: Optional wall-clock budget, checked per reduction
            level and threaded into the core solve.
        check_invariants: Forwarded to the core solve.

    Returns:
        A :class:`TSQRResult`; singular values match
        ``np.linalg.svd`` to rtol 1e-10 at float64.
    """
    from repro.exec.parallel import ParallelRunner, resolve_jobs
    from repro.linalg.svd import svd as _svd

    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise NumericalError("cannot factor an empty matrix")
    if validate:
        validate_matrix(a, name="matrix")
    if panel_rows is not None and panel_rows < 1:
        raise NumericalError(f"panel_rows must be >= 1, got {panel_rows}")
    a = a.astype(float)
    deadline = as_deadline(deadline)

    m0, n0 = a.shape
    transposed = m0 < n0
    work = a.T.copy() if transposed else a
    m, n = work.shape
    rows_per_panel = panel_rows if panel_rows is not None else max(4 * n, 64)

    panels = [work[i:i + rows_per_panel] for i in range(0, m, rows_per_panel)]
    workers = resolve_jobs(jobs)
    if workers > 1 and len(panels) > 1:
        runner = ParallelRunner(jobs=min(workers, len(panels)))
        try:
            r_factors = runner.map(panel_r, panels)
        finally:
            runner.close()
    else:
        r_factors = [panel_r(panel) for panel in panels]

    tree_levels = 0
    while len(r_factors) > 1:
        tree_levels += 1
        if deadline is not None and deadline.expired():
            deadline.check(
                "tsqr_reduce", completed=tree_levels, total=None,
                pending=len(r_factors),
            )
        merged = [
            np.linalg.qr(
                np.vstack(r_factors[i:i + 2]), mode="reduced"
            )[1]
            if i + 1 < len(r_factors) else r_factors[i]
            for i in range(0, len(r_factors), 2)
        ]
        r_factors = merged

    core_cols = r_factors[0].shape[1]
    if block_width is None:
        # The block partition needs a width dividing the (even-padded)
        # column count; take the largest one at or below the paper's
        # engine maximum of 8.
        padded_cols = core_cols + (core_cols % 2)
        block_width = next(
            w for w in range(min(8, max(padded_cols // 2, 1)), 0, -1)
            if padded_cols % w == 0
        )
    core = _svd(
        r_factors[0],
        method="block",
        block_width=block_width,
        precision=min(precision, 1e-8),
        max_sweeps=max_sweeps,
        strategy=strategy,
        fallback=fallback,
        validate=False,
        prescale=False,
        deadline=deadline,
        check_invariants=check_invariants,
    )

    s = core.singular_values
    v = core.v
    s_max = float(s[0]) if s.size else 0.0
    cutoff = s_max * max(m, n) * np.finfo(float).eps
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    proj = v * inv_s
    u = np.vstack([panel @ proj for panel in panels])
    if transposed:
        u, v = v, u
    return TSQRResult(
        u=u,
        singular_values=s,
        v=v,
        sweeps=core.sweeps,
        converged=core.converged,
        panels=len(panels),
        tree_levels=tree_levels,
        sweep_residuals=core.sweep_residuals,
        degraded=core.degraded,
    )
