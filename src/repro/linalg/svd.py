"""Public SVD entry point.

:func:`svd` is the library-level API: it accepts any real matrix,
handles transposition (``m < n``) and zero-padding to the Jacobi block
grid, dispatches to a solver method, and returns a uniform
:class:`SVDResult`.

Both Jacobi methods run the one sweep driver of
:mod:`repro.linalg.hestenes`, which performs the same restructuring
HeteroSVD implements in hardware (Algorithm 1): block pairs are
enumerated round-robin, one tournament round of disjoint block pairs
at a time.  ``"hestenes"`` runs a full parallel-ordering sweep of
column-pair rotations over its one block pair, all ``n`` columns: the
accelerator's arithmetic.  ``"block"`` rotates each block pair of
``2k`` columns at once by the eigenvectors of its panel's ``2k x 2k``
Gram matrix, one batched ``eigh`` per tournament round (block
rotations), and finishes on column-pair sweeps once those stall; when
``n <= 2k`` its one block pair is the whole matrix and the block
rotation the eigenvectors of its whole Gram matrix.

The driver does not sweep the ``m x n`` input ``M`` (``m >= n``) itself
but the ``L`` of Drmac and Veselic's two-step preconditioner (LAPACK
``xGEJSV``): a Householder QR of the columns sorted by descending norm,
``M[:, perm] = Q R``, then an LQ of that triangle, ``R = L Q_1^T``
(the QR of ``R^T``).  The columns of ``L`` arrive graded, so far fewer
sweeps converge, and a tall ``M`` shrinks to ``n x n``.  From
``L = U_x S V_x^T`` the factors are ``U = Q U_x`` and
``V[perm] = Q_1 V_x``: V is orthonormal to ~eps and U to ~precision,
the convention of plain Hestenes.  The accelerator model stays plain
Hestenes on ``M``.

:func:`svd` is the one-matrix case of :func:`_svd_many`, which prepares
each matrix and factors every group of same-shape Jacobi tasks as one
stacked driver run (``solve_batch`` and the batch executor's software
engine run many tasks this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Type

import numpy as np

from repro.errors import NumericalError, ReproError
from repro.guard.deadline import Deadline, as_deadline
from repro.guard.invariants import check_factor_invariants
from repro.guard.validate import (
    postscale_singular_values,
    prescale_matrix,
    validate_matrix,
)
from repro.linalg.convergence import DEFAULT_PRECISION
from repro.linalg.hestenes import (
    DEFAULT_MAX_SWEEPS,
    HestenesResult,
    _block_jacobi_svd,
    _hestenes_input,
    reference_fallback,
    resolve_strategy,
)
from repro.linalg.orderings import Ordering, ShiftingRingOrdering

#: The methods run by the one Jacobi driver; their same-shape tasks can
#: share a stacked run (:func:`_svd_stacked`).
JACOBI_METHODS = ("hestenes", "block")
#: Every ``svd(method=...)``: the Jacobi methods and the reduction-based
#: ones.  The batch executor, the serve wire protocol and the CLI accept
#: exactly these.
METHODS = JACOBI_METHODS + ("dnc", "streaming")


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
            the transpose.  The Jacobi methods sweep the ``n x n``
            ``L`` of its norm-sorted QR's LQ, padded to the block grid:
            zero columns and rows up to ``max(2w, ceil(n / w) w)`` for
            block width ``w`` (an even width for ``"hestenes"``); the
            padding contributes zero singular values that are dropped
            from the result.
        method: ``"hestenes"`` for the monolithic sweep of
            column-pair rotations (the one-block-pair case of the
            block driver's pairwise sweeps), ``"block"`` for the
            block-Jacobi restructuring of Algorithm 1 with block
            rotations: each tournament round rotates its disjoint
            block pairs at once by one batched ``eigh`` of their
            panels' Gram matrices,
            and a matrix whose block sweeps stall short of
            ``precision`` finishes on column-pair sweeps (with
            ``n <= 2 * block_width`` the one block pair is the whole
            matrix), ``"dnc"`` for bidiagonal divide-and-conquer
            (:mod:`repro.linalg.dnc`), or ``"streaming"`` for the
            incremental row-block fold (:mod:`repro.linalg.streaming`).
            The crossover study in ``docs/workloads.md`` maps which
            method wins where.
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
        strategy: The column-pair round kernel of the Jacobi
            methods' pairwise sweeps (``"block"``'s block rotations
            take none): ``"scalar"`` for the per-pair reference kernel,
            ``"vectorized"`` for batched rounds
            (:func:`~repro.linalg.hestenes.sweep_pairs`), ``"auto"``
            (default) for ``"vectorized"``.  Strategies agree to 1e-10 on the
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
            invariants before returning (see
            :func:`~repro.guard.check_factor_invariants`).  The Jacobi
            methods make one re-orthogonalization attempt and then
            degrade to the reference result; ``"dnc"`` and
            ``"streaming"`` raise
            :class:`~repro.errors.ConvergenceError`, or degrade under
            ``fallback="reference"``.

    Returns:
        An :class:`SVDResult` with ``min(m, n)`` singular triplets.
        For the Jacobi methods the shorter side's factor (V when
        ``m >= n``, else U) is ``Q_1`` times accumulated rotations,
        orthonormal to ~eps, and the other is orthonormal to
        ~``precision``; an exactly-zero singular value carries a zero
        column in that other factor.
    """
    return _svd_many(
        [a],
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
    )[0]


def _svd_many(
    matrices: "List[np.ndarray]",
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
) -> List[SVDResult]:
    """:func:`svd` of each matrix, with :func:`svd`'s arguments.

    Each matrix is checked and prepared in order; the real
    ``"hestenes"``/``"block"`` ones are then factored by
    :func:`_svd_stacked`, every group of one prepared shape as one
    stacked driver run, and the rest (complex inputs, the
    dnc/streaming methods) one by one as the loop reaches them.
    Every result is bit-identical to :func:`svd` on its matrix alone.
    The first failure, in task order, is raised.
    """
    strategy = resolve_strategy(strategy)
    deadline = as_deadline(deadline)
    solver = dict(
        precision=precision,
        max_sweeps=max_sweeps,
        fallback=fallback,
        strategy=strategy,
        deadline=deadline,
        check_invariants=check_invariants,
    )
    results: "List[Optional[SVDResult]]" = [None] * len(matrices)
    deferred = []
    for i, a in enumerate(matrices):
        task = _prepare(a, method, block_width, validate, prescale, fallback)
        if task is None:
            # The real embedding shares the input's magnitude range, so
            # the recursive call re-validates and pre-scales it
            # consistently.
            results[i] = _complex_svd(
                np.asarray(a),
                method=method,
                block_width=block_width,
                ordering_cls=ordering_cls,
                fixed_sweeps=fixed_sweeps,
                validate=validate,
                prescale=prescale,
                **solver,
            )
        elif method in JACOBI_METHODS:
            deferred.append((i, task))
        else:
            results[i] = _finish(
                task, _reduce(task.work, method, **solver),
                method,
            )
    outcomes = _svd_stacked(
        [task for _, task in deferred],
        method=method,
        ordering_cls=ordering_cls,
        fixed_sweeps=fixed_sweeps,
        **solver,
    )
    for (i, _), outcome in zip(deferred, outcomes):
        if isinstance(outcome, ReproError):
            raise outcome
        results[i] = outcome
    return results


def _reduce(
    work: np.ndarray,
    method: str,
    precision: float,
    max_sweeps: int,
    fallback: Optional[str],
    strategy: str,
    deadline: Optional[Deadline],
    check_invariants: bool,
):
    """A prepared matrix through one of the reduction-based methods.

    With ``check_invariants`` the factors are checked as the Jacobi
    driver checks its own (:func:`~repro.guard.check_factor_invariants`);
    a violation raises :class:`~repro.errors.ConvergenceError`, or
    under ``fallback="reference"`` returns the degraded LAPACK result.
    """
    if method == "dnc":
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
    else:
        from repro.linalg.streaming import streaming_svd

        result = streaming_svd(
            work,
            precision=precision,
            max_sweeps=max_sweeps,
            strategy=strategy,
            validate=False,
            deadline=deadline,
        )
    if check_invariants:
        report = check_factor_invariants(
            work, result.u * result.singular_values, result.v, precision,
            converged=result.converged,
        )
        if not report.ok:
            error = report.error(result.sweeps)
            if fallback != "reference":
                raise error
            return reference_fallback(work, error)
    return result


@dataclass
class _Task:
    """One real matrix prepared for a solver by :func:`_prepare`.

    ``work`` is what the solver factors.  For the reduction methods it
    is the (pre-scaled) matrix with ``m >= n``, transposed when the
    input is wide.  For the Jacobi methods it is ``L`` of that matrix's
    norm-sorted QR and its triangle's LQ, ``M[:, perm] = q R`` and
    ``R = L q1^T``, padded to the block grid of ``width``-column
    blocks; ``q1``'s rows are put back in input column order.
    ``rows`` x ``cols`` is ``work``'s shape before padding.
    ``injected`` is the reference fallback result that replaces a
    ``"hestenes"`` run when the ``linalg.nonconvergence`` fault fires
    under ``fallback="reference"``.
    """

    work: np.ndarray
    width: Optional[int]
    rows: int
    cols: int
    transposed: bool
    scale_exponent: int
    injected: Optional[HestenesResult] = None
    q: Optional[np.ndarray] = None
    q1: Optional[np.ndarray] = None


def _prepare(
    a: np.ndarray,
    method: str,
    block_width: Optional[int],
    validate: bool,
    prescale: "bool | str",
    fallback: Optional[str],
) -> Optional[_Task]:
    """:func:`svd`'s per-matrix checks and preparation.

    Validates, pre-scales and transposes a wide matrix; for the Jacobi
    methods takes the norm-sorted QR and its triangle's LQ and pads
    ``L`` to the block grid.  Runs every check and fault hook the
    solve of this matrix runs before its sweeps (``"hestenes"`` adds
    :func:`~repro.linalg.hestenes.hestenes_svd`'s own).  Returns None
    for a complex matrix, which :func:`svd` factors through its real
    embedding instead.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise NumericalError("cannot factor an empty matrix")
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
        return None
    a = a.astype(float)
    scale_exponent = 0
    if health is not None and prescale in (True, "auto") and \
            health.scale_exponent != 0:
        a, scale_exponent = prescale_matrix(a, health)

    m, n = a.shape
    transposed = m < n
    width = injected = q = q1 = None
    if method in JACOBI_METHODS:
        # Drmac and Veselic's two-step preconditioner: a Householder QR
        # of the columns sorted by descending norm shrinks a tall
        # matrix to the n x n R, and the LQ of R, R = L q1^T, grades
        # its columns further, so far fewer sweeps converge on L.  The
        # Jacobi methods pad L with zero columns and rows to their
        # block grid of whole blocks, at least two (hestenes: one pair
        # of n // 2 columns, i.e. an even width).
        tall = a.T if transposed else a
        perm = np.argsort(-np.einsum("ij,ij->j", tall, tall), kind="stable")
        q, r = np.linalg.qr(tall[:, perm])
        q1, r1 = np.linalg.qr(r.T)
        # V[perm] = q1 V_x: put q1's rows back in input column order.
        q1 = q1[np.argsort(perm)]
        rows = cols = r1.shape[0]
        even = cols + cols % 2
        if method == "hestenes":
            width = even // 2
        else:
            width = block_width if block_width is not None else min(8, even // 2)
        # A width below 1 is left for BlockPartition to reject.
        grid = max(2 * width, -(-even // width) * width) if width > 0 else even
        work = np.pad(r1.T, (0, grid - cols))
        if method == "hestenes":
            work, injected = _hestenes_input(work, fallback)
    elif method in METHODS:
        # The reduction-based methods handle any m >= n shape directly.
        work = a.T.copy() if transposed else a.copy()
        rows, cols = work.shape
    else:
        raise NumericalError(f"unknown SVD method {method!r}")
    return _Task(work, width, rows, cols, transposed, scale_exponent,
                 injected, q, q1)


def _finish(task: _Task, result, method: str) -> SVDResult:
    """The :class:`SVDResult` of a prepared task's solver result."""
    rank_bound = min(task.rows, task.cols)
    # Drop the padding: the zero columns stay zero and are never
    # rotated, so every nonzero singular value has a zero V component
    # and a zero U row there, and the restriction stays orthonormal.
    u = result.u[:task.rows, :rank_bound]
    v = result.v[:task.cols, :rank_bound]
    if task.q is not None:
        # M[:, perm] = q R, R = L q1^T and L = U_x S V_x^T give
        # U = q U_x and V[perm] = q1 V_x.
        u, v = task.q @ u, task.q1 @ v
    s = postscale_singular_values(
        result.singular_values[:rank_bound], task.scale_exponent
    )
    if task.transposed:
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


def _svd_stacked(
    tasks: List[_Task],
    method: str,
    precision: float = DEFAULT_PRECISION,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    ordering_cls: Optional[Type[Ordering]] = None,
    fixed_sweeps: Optional[int] = None,
    fallback: Optional[str] = None,
    strategy: str = "vectorized",
    deadline: Optional[Deadline] = None,
    check_invariants: bool = False,
) -> "List[SVDResult | ReproError]":
    """:func:`svd` of prepared ``"hestenes"``/``"block"`` tasks.

    Tasks of one prepared shape are factored as one stacked driver run
    (:func:`~repro.linalg.hestenes._block_jacobi_svd` on the list of
    their matrices), so each round-kernel call rotates that round of
    every one of them; each task's bits are those of :func:`svd` on it
    alone.  ``strategy`` must already be resolved.  Returns one outcome
    per task, in order: its :class:`SVDResult`, or the
    :class:`~repro.errors.ConvergenceError` /
    :class:`~repro.errors.DeadlineExceeded` that ended it.
    """
    outcomes: "List[SVDResult | ReproError | None]" = [None] * len(tasks)
    groups: "dict[tuple, List[int]]" = {}
    for i, task in enumerate(tasks):
        if task.injected is not None:
            outcomes[i] = _finish(task, task.injected, method)
        else:
            groups.setdefault(task.work.shape, []).append(i)
    for members in groups.values():
        results = _block_jacobi_svd(
            [tasks[i].work for i in members],
            block_width=tasks[members[0]].width,
            precision=precision,
            max_sweeps=max_sweeps,
            ordering_cls=ordering_cls or ShiftingRingOrdering,
            fixed_sweeps=fixed_sweeps,
            fallback=fallback,
            strategy=strategy,
            deadline=deadline,
            check_invariants=check_invariants,
            method=method,
        )
        for i, result in zip(members, results):
            outcomes[i] = (
                result if isinstance(result, ReproError)
                else _finish(tasks[i], result, method)
            )
    return outcomes
