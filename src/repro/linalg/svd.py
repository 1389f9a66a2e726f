"""Public SVD entry point.

:func:`svd` is the library-level API: it accepts any real matrix,
handles transposition (``m < n``) and zero-padding to the Jacobi block
grid, dispatches to a solver method, and returns a uniform
:class:`SVDResult`.

Both Jacobi methods run the one sweep driver of
:mod:`repro.linalg.hestenes`, which performs the same restructuring
HeteroSVD implements in hardware (Algorithm 1): block pairs are
enumerated round-robin and a full parallel-ordering sweep runs over each
block pair's ``2k`` columns.  ``"hestenes"`` is its one-block-pair case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Type

import numpy as np

from repro.errors import NumericalError
from repro.guard.deadline import Deadline, as_deadline
from repro.guard.validate import (
    postscale_singular_values,
    prescale_matrix,
    validate_matrix,
)
from repro.linalg.convergence import DEFAULT_PRECISION
from repro.linalg.hestenes import (
    DEFAULT_MAX_SWEEPS,
    _block_jacobi_svd,
    hestenes_svd,
    resolve_strategy,
)
from repro.linalg.orderings import Ordering, ShiftingRingOrdering


@dataclass
class SVDResult:
    """Thin SVD ``A = U diag(S) V^H`` with solver diagnostics.

    Attributes:
        u: Shape ``(m, r)`` where ``r = min(m, n)``.
        singular_values: Shape ``(r,)``, descending.
        v: Shape ``(n, r)``; complex for complex inputs.
        sweeps: Outer sweeps executed.
        converged: Whether the precision target was met.
        method: ``"hestenes"`` or ``"block"``.
        sweep_residuals: Off-diagonal ratio after each sweep.
        degraded: True when the Jacobi solver did not converge and the
            factors come from the reference (LAPACK) fallback.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    sweeps: int
    converged: bool
    method: str
    sweep_residuals: List[float] = field(default_factory=list)
    degraded: bool = False

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(S) V^H`` (``V^T`` for real factors)."""
        return (self.u * self.singular_values) @ np.conj(self.v).T


def _complex_svd(
    a: np.ndarray,
    **kwargs,
) -> SVDResult:
    """SVD of a complex matrix via the real embedding.

    The embedding ``E = [[Re A, -Im A], [Im A, Re A]]`` carries each
    singular value of ``A`` with multiplicity two, and a real singular
    pair ``(u_r, v_r)`` of ``E`` maps back to the complex pair
    ``u = u_r[:m] + i u_r[m:]``, ``v = v_r[:n] + i v_r[n:]`` (the block
    structure makes ``E phi(w) = phi(A w)`` for the stacked
    real/imaginary representation ``phi``).  One vector of each
    duplicated pair is kept, giving the thin complex factorization
    ``A = U diag(S) V^H``.  HeteroSVD streams real data, so this is
    also exactly how a complex workload (e.g. a MIMO channel) would be
    offloaded to the accelerator.
    """
    m, n = a.shape
    embedding = np.block([[a.real, -a.imag], [a.imag, a.real]])
    real = svd(embedding, **kwargs)
    r = min(m, n)
    # Duplicated spectrum, descending: entries (0,1), (2,3), ... pair
    # up; keep the first of each pair.
    keep = list(range(0, 2 * r, 2))
    s = real.singular_values[keep]
    u = real.u[:m, keep] + 1j * real.u[m:, keep]
    v = real.v[:n, keep] + 1j * real.v[n:, keep]
    # The embedding splits each complex singular direction across two
    # real columns; renormalize the retained representative.
    u_norms = np.linalg.norm(u, axis=0)
    v_norms = np.linalg.norm(v, axis=0)
    nonzero = (u_norms > 0) & (v_norms > 0)
    u[:, nonzero] = u[:, nonzero] / u_norms[nonzero]
    v[:, nonzero] = v[:, nonzero] / v_norms[nonzero]
    return SVDResult(
        u=u,
        singular_values=s,
        v=v,
        sweeps=real.sweeps,
        converged=real.converged,
        method=real.method,
        sweep_residuals=real.sweep_residuals,
        degraded=real.degraded,
    )


def svd(
    a: np.ndarray,
    method: str = "hestenes",
    block_width: Optional[int] = None,
    precision: float = DEFAULT_PRECISION,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    ordering_cls: Optional[Type[Ordering]] = None,
    fixed_sweeps: Optional[int] = None,
    fallback: Optional[str] = None,
    strategy: str = "auto",
    validate: bool = True,
    prescale: "bool | str" = "auto",
    deadline: "Optional[Deadline | float]" = None,
    check_invariants: bool = False,
) -> SVDResult:
    """Compute the thin SVD of a real matrix by one-sided Jacobi.

    Args:
        a: Any real 2-D array.  Wide matrices are handled by factoring
            the transpose.  The Jacobi methods pad to the block grid:
            zero columns up to ``max(2w, ceil(n / w) w)`` for block
            width ``w`` (an even width for ``"hestenes"``), and zero
            rows if that makes the matrix wide; the padding contributes
            zero singular values that are dropped from the result.
        method: ``"hestenes"`` for the monolithic sweep (the
            one-block-pair case of the block driver), ``"block"``
            for the block-Jacobi restructuring of Algorithm 1,
            ``"tsqr"`` for tall-skinny TSQR panel reduction
            (:mod:`repro.linalg.tsqr`), ``"dnc"`` for bidiagonal
            divide-and-conquer (:mod:`repro.linalg.dnc`), or
            ``"streaming"`` for the incremental row-block fold
            (:mod:`repro.linalg.streaming`).  The crossover study in
            ``docs/workloads.md`` maps which method wins where.
        block_width: Columns per block for the block method (defaults to
            ``min(8, n // 2)``, i.e. the largest engine parallelism the
            paper evaluates).
        precision: Convergence threshold for Eq. 6.
        max_sweeps: Sweep budget in precision-driven mode.
        ordering_cls: Pair-scheduling ordering; defaults to the paper's
            :class:`ShiftingRingOrdering` (numerically identical to the
            ring ordering).
        fixed_sweeps: Run exactly this many sweeps without convergence
            checks (benchmark mode).
        fallback: ``"reference"`` returns the LAPACK factorization
            (``degraded=True``) on non-convergence instead of raising
            :class:`~repro.errors.ConvergenceError`.
        strategy: The round kernel both Jacobi drivers run:
            ``"scalar"`` for the per-pair reference kernel,
            ``"vectorized"`` for batched rounds
            (:func:`~repro.linalg.hestenes.sweep_pairs`), ``"native"``
            for the compiled (Numba) whole-round kernels of
            :mod:`repro.linalg.native`, ``"auto"`` (default) to probe
            native -> vectorized.  Strategies agree to 1e-10 on the
            singular values; see ``docs/performance.md``.
        validate: Run :func:`~repro.guard.validate_matrix` on the input
            (default).  Rejects NaN/Inf/non-numeric input with a
            structured :class:`~repro.errors.InputValidationError`
            instead of propagating NaN into the factors, and computes
            the health report driving ``prescale``.
        prescale: ``"auto"`` (default) rescales extreme-magnitude
            inputs (entries beyond ~1e±150) by an exact power of two
            before factoring and undoes the scale on the singular
            values; ``True`` forces the rescale decision through the
            health report even for ordinary inputs (still a no-op when
            already in range); ``False`` disables it.  Requires
            ``validate=True`` to have any effect.
        deadline: Optional wall-clock budget (a
            :class:`~repro.guard.Deadline` or seconds) checked once per
            ordering round; raises
            :class:`~repro.errors.DeadlineExceeded` with a
            :class:`~repro.guard.PartialResult` on expiry.
        check_invariants: Verify orthogonality/reconstruction
            invariants before returning, with one re-orthogonalization
            attempt and a degraded reference fallback (see
            :func:`~repro.guard.check_factor_invariants`).

    Returns:
        An :class:`SVDResult` with ``min(m, n)`` singular triplets.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise NumericalError("cannot factor an empty matrix")
    strategy = resolve_strategy(strategy)
    deadline = as_deadline(deadline)
    if prescale not in (False, True, "auto"):
        raise NumericalError(
            f"unknown prescale mode {prescale!r}; expected True, False "
            f"or 'auto'"
        )
    if fallback not in (None, "reference"):
        raise NumericalError(
            f"unknown fallback {fallback!r}; expected None or 'reference'"
        )
    health = validate_matrix(a, name="matrix") if validate else None
    if np.iscomplexobj(a):
        # The real embedding shares the input's magnitude range, so the
        # recursive call re-validates and pre-scales it consistently.
        return _complex_svd(
            a,
            method=method,
            block_width=block_width,
            precision=precision,
            max_sweeps=max_sweeps,
            ordering_cls=ordering_cls,
            fixed_sweeps=fixed_sweeps,
            fallback=fallback,
            strategy=strategy,
            validate=validate,
            prescale=prescale,
            deadline=deadline,
            check_invariants=check_invariants,
        )
    a = a.astype(float)
    scale_exponent = 0
    if health is not None and prescale in (True, "auto") and \
            health.scale_exponent != 0:
        a, scale_exponent = prescale_matrix(a, health)

    m, n = a.shape
    transposed = m < n
    work = a.T.copy() if transposed else a.copy()
    rank_bound = min(m, n)

    # The Jacobi methods pad with zero columns to their block grid of
    # whole blocks, at least two (hestenes: one pair of n // 2 columns,
    # i.e. an even width), and with zero rows when that makes the matrix
    # wide.  The reduction-based methods (tsqr/dnc/streaming) handle any
    # m >= n shape directly.
    rows, cols = work.shape
    if method in ("hestenes", "block"):
        even = cols + cols % 2
        if method == "hestenes":
            width = even // 2
        else:
            width = block_width if block_width is not None else min(8, even // 2)
        # A width below 1 is left for BlockPartition to reject.
        grid = max(2 * width, -(-even // width) * width) if width > 0 else even
        if grid > cols:
            work = np.pad(work, ((0, max(grid - rows, 0)), (0, grid - cols)))

    ordering = ordering_cls or ShiftingRingOrdering
    if method == "hestenes":
        result = hestenes_svd(
            work,
            precision=precision,
            max_sweeps=max_sweeps,
            ordering_cls=ordering,
            fixed_sweeps=fixed_sweeps,
            fallback=fallback,
            strategy=strategy,
            deadline=deadline,
            check_invariants=check_invariants,
        )
    elif method == "block":
        result = _block_jacobi_svd(
            work,
            block_width=width,
            precision=precision,
            max_sweeps=max_sweeps,
            ordering_cls=ordering,
            fixed_sweeps=fixed_sweeps,
            fallback=fallback,
            strategy=strategy,
            deadline=deadline,
            check_invariants=check_invariants,
        )
    elif method == "tsqr":
        from repro.linalg.tsqr import tall_skinny_svd

        result = tall_skinny_svd(
            work,
            block_width=block_width,
            precision=precision,
            max_sweeps=max_sweeps,
            strategy=strategy,
            fallback=fallback,
            validate=False,
            deadline=deadline,
            check_invariants=check_invariants,
        )
    elif method == "dnc":
        from repro.linalg.dnc import dnc_svd

        result = dnc_svd(
            work,
            precision=precision,
            max_sweeps=max_sweeps,
            strategy=strategy,
            fallback=fallback,
            validate=False,
            deadline=deadline,
        )
    elif method == "streaming":
        from repro.linalg.streaming import streaming_svd

        result = streaming_svd(
            work,
            precision=precision,
            max_sweeps=max_sweeps,
            strategy=strategy,
            validate=False,
            deadline=deadline,
        )
    else:
        raise NumericalError(f"unknown SVD method {method!r}")

    # Drop the padding: the zero columns stay zero and are never
    # rotated, so every nonzero singular value has a zero V component
    # and a zero U row there, and the restriction stays orthonormal.
    u = result.u[:rows, :rank_bound]
    v = result.v[:cols, :rank_bound]
    s = postscale_singular_values(
        result.singular_values[:rank_bound], scale_exponent
    )
    if transposed:
        u, v = v, u
    return SVDResult(
        u=u,
        singular_values=s,
        v=v,
        sweeps=result.sweeps,
        converged=result.converged,
        method=method,
        sweep_residuals=result.sweep_residuals,
        degraded=result.degraded,
    )
