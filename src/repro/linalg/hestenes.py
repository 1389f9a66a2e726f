"""One-sided Hestenes-Jacobi SVD driver (paper Section II-A).

The method iteratively orthogonalizes the columns of ``A`` by plane
rotations: ``B = A V`` where ``V`` accumulates the rotations.  Once all
column pairs satisfy the convergence criterion (Eq. 6), the
normalization step (Eq. 7) recovers the factorization

.. math::

    \\Sigma = \\sqrt{B^T B}, \\qquad U = B / \\Sigma,

so that ``A = U \\Sigma V^T``.

This module is the *reference software implementation*: it performs the
exact arithmetic the HeteroSVD accelerator distributes across orth-AIEs
and norm-AIEs, and it is the golden model the hardware-level functional
simulation (:mod:`repro.core.accelerator`) is validated against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Type

import numpy as np

from repro.errors import (
    ConvergenceError,
    DeadlineExceeded,
    DegradedResultWarning,
    NumericalError,
    ReproError,
)
from repro.guard.deadline import Deadline, as_deadline
from repro.guard.invariants import check_factor_invariants
from repro.guard.validate import validate_matrix
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults
from repro.linalg.convergence import (
    DEFAULT_PRECISION,
    off_diagonal_ratio,
    pair_convergence_ratio,
    pair_convergence_ratios,
    zero_column_threshold_sq,
)
from repro.linalg.block import (
    BlockPartition,
    block_pair_round_indices,
    block_pair_rounds,
)
from repro.linalg.orderings import Ordering, RingOrdering
from repro.linalg.rotations import (
    apply_rotation,
    compute_rotation,
    compute_rotations_batch,
)

#: Safety cap on sweeps; Hestenes-Jacobi converges quadratically and in
#: practice needs ~log2(n) + a few sweeps, so this is generous.
DEFAULT_MAX_SWEEPS = 60

#: Recognized values for the ``strategy`` knob of the Jacobi solvers.
#: The strategy picks only the round kernel the drivers call on their
#: stacked ``W = [B; V]``: ``"auto"`` probes availability (native ->
#: vectorized); ``"scalar"`` forces the per-pair reference kernel (the
#: golden reference the other tiers are pinned against);
#: ``"vectorized"`` forces the batched NumPy kernel; ``"native"``
#: requests the compiled (Numba) kernel of :mod:`repro.linalg.native`.
STRATEGIES = ("auto", "scalar", "vectorized", "native")


def resolve_strategy(strategy: str) -> str:
    """Map a user-facing strategy name to an executable tier.

    ``"scalar"`` and ``"vectorized"`` pass through unchanged.
    ``"auto"`` probes availability — the compiled ``"native"`` tier
    when Numba is importable (see :func:`repro.linalg.native.available`),
    else ``"vectorized"``; ``"scalar"`` always exists as the golden
    reference, so the probe cannot fail.  An explicit ``"native"``
    request degrades the same way rather than raising, so code tuned
    for a Numba-equipped host runs unchanged (just slower) without it.

    Raises:
        NumericalError: for unrecognized strategy names.
    """
    if strategy not in STRATEGIES:
        raise NumericalError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if strategy in ("auto", "native"):
        from repro.linalg import native

        return "native" if native.available() else "vectorized"
    return strategy


def _round_sweeper(strategy: str):
    """The round kernel for a resolved strategy.

    All three share the ``(w, m, idx, precision, zero_sq, work)``
    calling form, with ``zero_sq`` one floor or one per pair, and
    return ``(ratios, rotations)``: every pair's pre-rotation ratio.
    """
    if strategy == "native":
        from repro.linalg import native

        return native.sweep_pairs_indexed
    if strategy == "scalar":
        return _sweep_pairs_scalar
    return _sweep_pairs_indexed


def stack_panels(
    b_panels: "list[np.ndarray]",
    v_panels: "Optional[list[np.ndarray]]" = None,
) -> np.ndarray:
    """The round kernel's working array ``W = [B; V]``.

    The ``b_panels`` sit side by side in the top rows and the
    ``v_panels`` (when given) side by side below them, in one fresh
    Fortran-order array: a column of ``W`` is a column of ``B`` and its
    ``V`` column, contiguous, so the kernel moves both with one gather
    and one scatter.  ``W[:m]`` and ``W[m:]`` are ``B`` and ``V``.
    """
    m = b_panels[0].shape[0]
    rows = m + (v_panels[0].shape[0] if v_panels is not None else 0)
    w = np.empty(
        (rows, sum(p.shape[1] for p in b_panels)),
        dtype=np.result_type(*b_panels, *(v_panels or ())),
        order="F",
    )
    np.concatenate(b_panels, axis=1, out=w[:m])
    if v_panels is not None:
        np.concatenate(v_panels, axis=1, out=w[m:])
    return w


def round_workspace(
    shape: "tuple[int, int]", dtype
) -> "tuple[np.ndarray, np.ndarray]":
    """Scratch panels for :func:`_sweep_pairs_indexed` on a ``W`` of
    this shape and dtype.

    Two Fortran-order arrays shaped like ``W``; a round of ``k`` pairs
    uses their first ``2k`` columns.  They are float64 whatever ``W``'s
    type, so a float32 ``W`` is updated in float64 and rounded once on
    the scatter.  One workspace serves every round of a factorization.
    """
    dtype = np.result_type(dtype, np.float64)
    return (
        np.empty(shape, dtype=dtype, order="F"),
        np.empty(shape, dtype=dtype, order="F"),
    )


def sweep_pairs(
    b: np.ndarray,
    v: Optional[np.ndarray],
    pairs: "list[tuple[int, int]]",
    precision: float,
    zero_sq: float,
) -> "tuple[float, int]":
    """Rotate all pairs of one parallel-ordering round as a batch.

    This is the vectorized hot path: where the scalar kernel walks the
    round's pairs one by one (three dot products, one angle, one column
    update per pair), this routine performs the identical arithmetic
    as whole-panel NumPy operations through :func:`_sweep_pairs_indexed`
    on a stacked copy of ``b`` and ``v``, then writes the result back.

    **Why batching a round is safe** (the independent-pair invariant):
    every parallel Jacobi ordering — ring, round-robin, and the paper's
    shifting ring — schedules each round as a perfect matching on the
    columns: the ``k = n/2`` pairs are *disjoint*, so pair ``(i, j)``
    neither reads nor writes any column touched by another pair of the
    same round.  The Gram entries of all pairs can therefore be computed
    from the pre-round state, and all rotations applied at once, and the
    result is element-for-element the computation the scalar kernel
    performs in sequence (up to floating-point summation order inside
    the dot products).  This is exactly the concurrency the HeteroSVD
    hardware exploits: one round maps to one layer of orth-AIEs, all
    rotating simultaneously (paper Section III-B).

    Args:
        b: Working matrix, updated in place.
        v: Accumulated rotations, updated in place (may be None).
        pairs: Disjoint column pairs of one round, ``(i, j)`` with
            ``i != j``; every column at most once.
        precision: Eq. 6 threshold below which a pair is skipped.
        zero_sq: Zero-column floor for the convergence ratio.

    Returns:
        ``(worst_ratio, rotations)`` — the round's worst pre-rotation
        convergence ratio and the number of rotations applied, matching
        the scalar kernel's accounting.
    """
    idx = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T.ravel()
    if np.unique(idx).size != idx.size:
        raise NumericalError(
            "pairs of one round must be disjoint (each column at most "
            "once); batching overlapping pairs would reorder rotations"
        )
    m = b.shape[0]
    w = stack_panels([b], [v] if v is not None else None)
    ratios, count = _sweep_pairs_indexed(
        w, m, idx, precision, zero_sq, round_workspace(w.shape, w.dtype)
    )
    b[...] = w[:m]
    if v is not None:
        v[...] = w[m:]
    return float(ratios.max(initial=0.0)), count


def _sweep_pairs_indexed(
    w: np.ndarray,
    m: int,
    idx: np.ndarray,
    precision: float,
    zero_sq: "float | np.ndarray",
    work: "tuple[np.ndarray, np.ndarray]",
) -> "tuple[np.ndarray, int]":
    """Rotate one ordering round of ``W = [B; V]`` in place.

    ``idx`` is the round's left columns then its right columns
    (``concat(ii, jj)``); the drivers build it once per factorization,
    as the schedule does not change between sweeps.  ``w`` is a
    Fortran-order :func:`stack_panels` array whose first ``m`` rows are
    ``B``, and ``work`` its :func:`round_workspace`.  One pass:

    1. gather the round's ``2k`` columns, ``B`` and ``V`` rows at once;
    2. take the Gram triple from the gathered ``B`` rows (norms of all
       ``2k`` columns in one ``einsum``, the ``k`` cross products in a
       second) and upcast it to float64;
    3. form ``sqrt(alpha) * sqrt(beta)`` once for both the Eq. 6
       ratios and the angles' identity test;
    4. rotate into the workspace and scatter back in one assignment.

    ``zero_sq`` is the dead-column floor: one value for every pair, or
    one per pair when the round holds pairs of several stacked
    matrices, each with its own floor.  Pairs below ``precision`` keep
    their columns.  When most pairs rotate (mid-convergence) the whole
    panel is updated with identity angles for the converged pairs;
    when few do (final sweeps) only their columns are taken and
    written.  Every step is the element-wise arithmetic of the
    per-pair formulas, so the result does not depend on how the pairs
    were batched.

    Returns:
        ``(ratios, rotations)`` — the float64 pre-rotation Eq. 6 ratio
        of each pair, in ``idx`` order, and the number of pairs at or
        above ``precision``.  Callers reduce the ratios themselves
        (the worst over a round, or per stacked matrix).
    """
    k = idx.size // 2
    panel = w[:, idx]
    top = panel[:m]
    norms = np.einsum("ij,ij->j", top, top).astype(np.float64, copy=False)
    gamma = np.einsum("ij,ij->j", top[:, :k], top[:, k:]).astype(
        np.float64, copy=False
    )
    roots = np.sqrt(norms)
    alpha = norms[:k]
    beta = norms[k:]
    norm_product = roots[:k] * roots[k:]
    ratios = pair_convergence_ratios(
        alpha, beta, gamma, zero_sq, norm_product=norm_product
    )
    rotate = ratios >= precision
    count = int(np.count_nonzero(rotate))
    if count == 0:
        return ratios, 0
    if 2 * count >= k:
        # Cheaper than taking the rotated subset: converged pairs get
        # the identity (c=1, s=0 writes their columns back unchanged).
        c, s, _ = compute_rotations_batch(
            alpha, beta, gamma, norm_product=norm_product
        )
        if count < k:
            still = ~rotate
            c[still] = 1.0
            s[still] = 0.0
        targets = idx
    else:
        c, s, _ = compute_rotations_batch(
            alpha[rotate], beta[rotate], gamma[rotate],
            norm_product=norm_product[rotate],
        )
        both = np.concatenate((rotate, rotate))
        panel = panel[:, both]
        targets = idx[both]
        k = count
    out = work[0][:, :2 * k]
    scaled = work[1][:, :2 * k]
    np.multiply(panel, np.concatenate((c, c)), out=out)
    np.multiply(panel, np.concatenate((s, s)), out=scaled)
    np.subtract(out[:, :k], scaled[:, k:], out=out[:, :k])  # c bi - s bj
    np.add(out[:, k:], scaled[:, :k], out=out[:, k:])  # c bj + s bi
    w[:, targets] = out
    return ratios, count


def _sweep_pairs_scalar(
    w: np.ndarray,
    m: int,
    idx: np.ndarray,
    precision: float,
    zero_sq: "float | np.ndarray",
    work: "tuple[np.ndarray, np.ndarray]",
) -> "tuple[np.ndarray, int]":
    """Per-pair reference for :func:`_sweep_pairs_indexed`.

    Same arguments and accounting; ``work`` is unused.  Walks the
    round's pairs ``(idx[p], idx[k + p])`` one at a time: three dot
    products on the pair's ``B`` rows ``w[:m]``, the Eq. 6 ratio
    (:func:`~repro.linalg.convergence.pair_convergence_ratio`), and for
    a pair at or above ``precision`` one
    :func:`~repro.linalg.rotations.compute_rotation` applied by
    :func:`~repro.linalg.rotations.apply_rotation` to the whole ``W``
    column pair, ``B`` and ``V`` rows alike.  This is Eqs. 5-6 as
    written, the golden reference the batched and compiled kernels are
    pinned against (they agree to dot-product summation order).
    """
    k = idx.size // 2
    floors = np.broadcast_to(zero_sq, (k,)).tolist()
    ratios = np.empty(k)
    count = 0
    for p, (i, j) in enumerate(zip(idx[:k].tolist(), idx[k:].tolist())):
        bi = w[:m, i]
        bj = w[:m, j]
        alpha = float(bi @ bi)
        beta = float(bj @ bj)
        gamma = float(bi @ bj)
        ratio = pair_convergence_ratio(alpha, beta, gamma, floors[p])
        ratios[p] = ratio
        if ratio < precision:
            continue
        rotation = compute_rotation(alpha, beta, gamma)
        w[:, i], w[:, j] = apply_rotation(w[:, i], w[:, j], rotation)
        count += 1
    return ratios, count


@dataclass
class HestenesResult:
    """Output of :func:`hestenes_svd`.

    Attributes:
        u: Left singular vectors, shape ``(m, n)`` (thin form).
        singular_values: Singular values in descending order, shape ``(n,)``.
        v: Right singular vectors, shape ``(n, n)``.
        sweeps: Number of full sweeps executed.
        converged: Whether the convergence criterion was met.
        rotations: Total non-identity rotations applied.
        sweep_residuals: Off-diagonal ratio observed after each sweep.
        degraded: True when the iterative solver gave up and the
            factors come from the reference (LAPACK) fallback instead.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    sweeps: int
    converged: bool
    rotations: int
    sweep_residuals: List[float] = field(default_factory=list)
    degraded: bool = False

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(S) V^T`` for residual checks."""
        return (self.u * self.singular_values) @ self.v.T


def normalize_columns(b: np.ndarray, v: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Normalization step (Eq. 7) plus descending sort of singular values.

    Args:
        b: The orthogonalized matrix ``B = A V``.
        v: The accumulated rotation matrix.

    Returns:
        ``(u, singular_values, v_sorted)``.  Zero columns of ``B`` give
        zero singular values with zero ``U`` columns, keeping
        ``A = U S V^T`` exact for rank-deficient inputs.
    """
    sigma = np.linalg.norm(b, axis=0)
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    b = b[:, order]
    v = v[:, order]
    u = np.zeros_like(b)
    nonzero = sigma > 0
    u[:, nonzero] = b[:, nonzero] / sigma[nonzero]
    return u, sigma, v


def reference_fallback(a: np.ndarray, error: ConvergenceError) -> HestenesResult:
    """Reference (LAPACK) thin SVD, used when an iterative solver gives up.

    Emits a :class:`~repro.errors.DegradedResultWarning` and counts the
    event in the ``resilience.degraded_tasks`` metric; the returned
    result is marked ``degraded=True`` so callers can audit which
    factorizations did not come from the Jacobi path.
    """
    warnings.warn(
        f"falling back to reference SVD after non-convergence: {error}",
        DegradedResultWarning,
        stacklevel=2,
    )
    _metrics.counter("resilience.degraded_tasks").inc()
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    return HestenesResult(
        u=u,
        singular_values=s,
        v=vt.T,
        sweeps=error.iterations,
        converged=False,
        rotations=0,
        sweep_residuals=[],
        degraded=True,
    )


def _block_jacobi_svd(
    a: "np.ndarray | Sequence[np.ndarray]",
    block_width: int,
    precision: float,
    max_sweeps: int,
    ordering_cls: Type[Ordering],
    fixed_sweeps: Optional[int],
    fallback: Optional[str] = None,
    strategy: str = "vectorized",
    deadline: Optional[Deadline] = None,
    check_invariants: bool = False,
    method: str = "block",
) -> "HestenesResult | List[HestenesResult | ReproError]":
    """Block Hestenes-Jacobi: the software mirror of Algorithm 1.

    The one Jacobi sweep driver.  ``a`` (``m >= n``) is split into
    column blocks of ``block_width`` and every outer sweep runs a full
    ``ordering_cls`` sweep over each block pair's ``2 * block_width``
    columns.  With ``block_width = n // 2`` the one block pair holds
    every column, which is the monolithic sweep :func:`hestenes_svd`
    runs through here.  ``strategy`` (already resolved) picks only the
    round kernel.

    ``a`` may also be a list of ``T`` same-shape matrices, the paper's
    ``P_task`` tasks in flight: they sit side by side in one
    ``W = [B_1 ... B_T; V_1 ... V_T]`` and one round-kernel call
    rotates round ``r`` of every matrix still sweeping (their columns
    are disjoint, the argument that lets block pairs share a round).
    Each matrix keeps its own zero-column floor, sweep residual, sweep
    and rotation counts, and stops on its own convergence, so its bits
    are those of a run on it alone.  The list form returns one outcome
    per matrix, in order: a :class:`HestenesResult`, or the
    :class:`~repro.errors.ConvergenceError` (without ``fallback``) or
    :class:`~repro.errors.DeadlineExceeded` that ended it, returned
    rather than raised.  On deadline expiry the matrices that
    converged first are finished normally and the ones still sweeping
    share the one error, whose partial counts the first of them.  A
    single matrix returns its result or raises.

    ``method`` names the caller in the deadline kind and the
    :class:`~repro.errors.ConvergenceError` message, and picks the
    sweep residual: ``"hestenes"`` takes the sweep's worst
    pre-rotation pair ratio, ``"block"`` re-measures
    :func:`~repro.linalg.convergence.off_diagonal_ratio` of ``B``
    after the sweep.  The two rules can stop after different sweep
    counts in precision mode.
    """
    stacked = isinstance(a, (list, tuple))
    matrices = list(a) if stacked else [a]
    m, n = matrices[0].shape
    partition = BlockPartition(n_cols=n, block_width=block_width)
    ordering = ordering_cls(2 * block_width)
    hestenes = method == "hestenes"

    floors = np.array([
        zero_column_threshold_sq(float(np.linalg.norm(x)), x.dtype)
        for x in matrices
    ])
    # One Fortran-order W = [B; V]: each round kernel call moves a
    # column of B and its V column as one contiguous copy, and the
    # native kernel walks them stride-1.  Block pairs of one tournament
    # round touch disjoint column sets, so their (identical) sweeps
    # commute: interleaving them round by round performs the exact same
    # rotations as visiting each block pair in sequence, while
    # multiplying the batch width by the number of concurrent block
    # pairs.  Stack the per-round index arrays across each round's
    # pairs once; the schedule repeats identically every outer sweep.
    w = stack_panels(matrices, [np.eye(n)] * len(matrices))
    work = round_workspace(w.shape, w.dtype)
    sweep_rounds_fn = _round_sweeper(strategy)
    local_rounds = [
        idx
        for block_round in block_pair_rounds(partition.n_blocks)
        for idx in block_pair_round_indices(
            [partition.pair_columns(pair) for pair in block_round],
            ordering,
        )
    ]

    def rounds_for(tasks: "list[int]") -> "list[tuple[np.ndarray, np.ndarray]]":
        # Matrix t's round indices offset by its column base t*n, laid
        # out matrix-major within each half of concat(ii, jj), so a
        # round's ratios reshape to one row per matrix; and each pair's
        # floor.  Rebuilt only when the set of sweeping matrices shrinks.
        bases = np.asarray(tasks, dtype=np.intp)[:, None] * n
        return [
            ((idx.reshape(2, 1, -1) + bases).ravel(),
             np.repeat(floors[tasks], idx.size // 2))
            for idx in local_rounds
        ]

    def columns(t: int) -> slice:
        return slice(t * n, (t + 1) * n)

    count = len(matrices)
    rotations = [0] * count
    sweep_residuals: "list[list[float]]" = [[] for _ in range(count)]
    sweeps_done = [0] * count
    converged = [False] * count
    budget = fixed_sweeps if fixed_sweeps is not None else max_sweeps
    outcomes: "list[HestenesResult | ReproError | None]" = [None] * count

    def check_deadline(tasks: "list[int]") -> None:
        # Once per ordering round: one monotonic-clock read behind a
        # None test, so the hot loop pays nothing when unbounded.
        if deadline is None or not deadline.expired():
            return
        t = tasks[0]
        deadline.check(
            kind=f"{method}-sweep",
            completed=sweeps_done[t],
            total=budget,
            residual=sweep_residuals[t][-1] if sweep_residuals[t] else None,
            rotations=rotations[t],
        )

    def run_sweep(tasks, rounds) -> "tuple[list[float], list[int]]":
        # Per matrix: the sweep residual and the rotations applied.
        ratios = []
        for idx, floor in rounds:
            check_deadline(tasks)
            round_ratios, _ = sweep_rounds_fn(
                w, m, idx, precision, floor, work
            )
            ratios.append(round_ratios.reshape(len(tasks), -1))
        pair_ratios = np.concatenate(ratios, axis=1)
        rotated = np.count_nonzero(pair_ratios >= precision, axis=1)
        # The per-pair worst ratio is measured before rotations of later
        # pairs touch the same columns; the block rule re-measures
        # globally so the stopping rule matches Eq. 6 exactly.
        if hestenes:
            residuals = pair_ratios.max(axis=1).tolist()
        else:
            residuals = [off_diagonal_ratio(w[:m, columns(t)]) for t in tasks]
        return residuals, rotated.tolist()

    active = list(range(count))
    rounds = rounds_for(active)
    try:
        for _ in range(budget):
            residuals, rotated = run_sweep(active, rounds)
            still = []
            for t, residual, applied in zip(active, residuals, rotated):
                rotations[t] += applied
                sweeps_done[t] += 1
                sweep_residuals[t].append(residual)
                if fixed_sweeps is None and residual < precision:
                    converged[t] = True
                else:
                    still.append(t)
            if len(still) < len(active):
                active = still
                if not active:
                    break
                rounds = rounds_for(active)
    except DeadlineExceeded as error:
        for t in active:
            outcomes[t] = error

    def finish(t: int) -> "HestenesResult | ReproError":
        a_t = matrices[t]
        residuals = sweep_residuals[t]
        done = converged[t]
        if fixed_sweeps is not None:
            done = residuals[-1] < precision if residuals else False
        elif not done:
            # A zero budget exhausts before the first sweep measures
            # anything; report an infinite residual rather than crashing
            # on the empty history.
            residual = residuals[-1] if residuals else float("inf")
            detail = f"{sweeps_done[t]} iterations, residual {residual:.3e}"
            if deadline is not None:
                detail += f", deadline remaining {deadline.remaining():.3f}s"
            name = "Hestenes-Jacobi" if hestenes else "block Jacobi"
            error = ConvergenceError(
                f"{name} did not converge in {max_sweeps} sweeps ({detail})",
                iterations=sweeps_done[t],
                residual=residual,
            )
            if fallback == "reference":
                return reference_fallback(a_t, error)
            return error

        b, v = w[:m, columns(t)], w[m:, columns(t)]
        if check_invariants:
            report = check_factor_invariants(a_t, b, v, precision,
                                             converged=done)
            if not report.ok:
                # One repair attempt: an extra sweep re-orthogonalizes a
                # marginally-off factor; a corrupt one won't recover and
                # degrades to the reference fallback.
                _metrics.counter("guard.reorth_passes").inc()
                (extra_residual,), (extra_rotations,) = run_sweep(
                    [t], rounds_for([t])
                )
                rotations[t] += extra_rotations
                residuals.append(extra_residual)
                report = check_factor_invariants(a_t, b, v, precision,
                                                 converged=done)
            if not report.ok:
                error = ConvergenceError(
                    f"factor invariants violated after re-orthogonalization "
                    f"(reconstruction error {report.reconstruction_error:.3e}, "
                    f"orthogonality residual {report.orthogonality_residual})",
                    iterations=sweeps_done[t],
                    residual=float(
                        report.orthogonality_residual
                        if report.orthogonality_residual is not None
                        else report.reconstruction_error
                    ),
                )
                return reference_fallback(a_t, error)

        u, sigma, v = normalize_columns(b, v)
        return HestenesResult(
            u=u,
            singular_values=sigma,
            v=v,
            sweeps=sweeps_done[t],
            converged=done,
            rotations=rotations[t],
            sweep_residuals=residuals,
        )

    # Finish in task order, so per-task warnings, metrics and the
    # re-orthogonalization sweep happen as in one-at-a-time runs.
    for t in range(count):
        if outcomes[t] is None:
            try:
                outcomes[t] = finish(t)
            except DeadlineExceeded as error:
                outcomes[t] = error
    if stacked:
        return outcomes
    if isinstance(outcomes[0], ReproError):
        raise outcomes[0]
    return outcomes[0]


def _hestenes_input(
    a: np.ndarray, fallback: Optional[str]
) -> "tuple[np.ndarray, Optional[HestenesResult]]":
    """:func:`hestenes_svd`'s checks on one matrix, before the driver.

    Returns the matrix as float64 and, when the
    ``linalg.nonconvergence`` fault fires under
    ``fallback="reference"``, the fallback result that replaces the
    run (without a fallback the fault raises
    :class:`~repro.errors.ConvergenceError`).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-D matrix, got shape {a.shape}")
    m, n = a.shape
    if m < n:
        raise NumericalError(
            f"Hestenes-Jacobi requires m >= n (got {m}x{n}); "
            "pass the transpose and swap U/V"
        )
    if n < 2 or n % 2 != 0:
        raise NumericalError(f"column count must be even and >= 2, got {n}")
    validate_matrix(a, name="input matrix")
    if _faults.fired("linalg.nonconvergence") is not None:
        error = ConvergenceError(
            "injected fault: forced non-convergence "
            "(0 iterations, residual inf)",
            iterations=0,
            residual=float("inf"),
        )
        if fallback == "reference":
            return a, reference_fallback(a, error)
        raise error
    return a, None


def hestenes_svd(
    a: np.ndarray,
    precision: float = DEFAULT_PRECISION,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    ordering_cls: Optional[Type[Ordering]] = None,
    fixed_sweeps: Optional[int] = None,
    fallback: Optional[str] = None,
    strategy: str = "auto",
    deadline: "Optional[Deadline | float]" = None,
    check_invariants: bool = False,
) -> HestenesResult:
    """Compute the thin SVD of ``a`` by one-sided Jacobi rotations.

    After its input checks this runs :func:`_block_jacobi_svd` with
    ``block_width = n // 2``: one block pair holding every column,
    whose sweep is the monolithic Hestenes sweep.

    Args:
        a: Input matrix of shape ``(m, n)`` with ``m >= n`` and ``n``
            even (HeteroSVD streams column pairs; odd widths are not a
            hardware-relevant case and should be padded by the caller).
        precision: Convergence threshold for Eq. 6.
        max_sweeps: Iteration budget before raising
            :class:`~repro.errors.ConvergenceError`.
        ordering_cls: Ordering class scheduling the column pairs within
            a sweep; defaults to :class:`RingOrdering`.  The choice
            affects hardware dataflow, not the mathematical result.
        fixed_sweeps: When given, run exactly this many sweeps without
            checking convergence (the paper's fixed-6-iteration
            benchmarking mode) and never raise on non-convergence.
        fallback: ``"reference"`` degrades gracefully on
            non-convergence — the reference LAPACK SVD is returned
            (marked ``degraded=True``) instead of raising; None
            (default) keeps the raising behavior.
        strategy: The round kernel run on the stacked ``[B; V]``:
            ``"scalar"`` walks each round's pairs in a Python loop
            (the reference, :func:`_sweep_pairs_scalar`);
            ``"vectorized"`` rotates every round as one batch (see
            :func:`sweep_pairs`); ``"native"`` runs the compiled
            whole-round kernel of :mod:`repro.linalg.native` (falling
            back to vectorized when Numba is absent); ``"auto"``
            (default) probes native -> vectorized.  All tiers perform
            the same rotations in the same logical order and agree to
            floating-point summation order (singular values within
            ~1e-12 relative; pinned at 1e-10 by tests).
        deadline: Optional wall-clock budget — a
            :class:`~repro.guard.Deadline` or a number of seconds —
            checked cooperatively once per ordering round; on expiry
            :class:`~repro.errors.DeadlineExceeded` is raised carrying
            a :class:`~repro.guard.PartialResult` with the sweeps done
            and last residual.
        check_invariants: Verify the factorization invariants
            (orthogonality of ``B``, reconstruction of ``A``) before
            returning; on failure run one re-orthogonalization sweep,
            then degrade to the reference fallback with a
            :class:`~repro.errors.DegradedResultWarning`.

    Returns:
        A :class:`HestenesResult`.

    Raises:
        NumericalError: for invalid shapes or non-finite input (the
            latter as :class:`~repro.errors.InputValidationError`).
        ConvergenceError: when ``max_sweeps`` is exhausted (only in
            precision-driven mode, and only without ``fallback``).
        DeadlineExceeded: when ``deadline`` expires mid-factorization.
    """
    if fallback not in (None, "reference"):
        raise NumericalError(
            f"unknown fallback {fallback!r}; expected None or 'reference'"
        )
    strategy = resolve_strategy(strategy)
    deadline = as_deadline(deadline)
    a, injected = _hestenes_input(a, fallback)
    if injected is not None:
        return injected

    return _block_jacobi_svd(
        a,
        block_width=a.shape[1] // 2,
        precision=precision,
        max_sweeps=max_sweeps,
        ordering_cls=ordering_cls or RingOrdering,
        fixed_sweeps=fixed_sweeps,
        fallback=fallback,
        strategy=strategy,
        deadline=deadline,
        check_invariants=check_invariants,
        method="hestenes",
    )
