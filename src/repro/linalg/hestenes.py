"""One-sided Hestenes-Jacobi SVD driver (paper Section II-A).

The method iteratively orthogonalizes the columns of ``A`` by plane
rotations: ``B = A V`` where ``V`` accumulates the rotations.  Once all
column pairs satisfy the convergence criterion (Eq. 6), the
normalization step (Eq. 7) recovers the factorization

.. math::

    \\Sigma = \\sqrt{B^T B}, \\qquad U = B / \\Sigma,

so that ``A = U \\Sigma V^T``.

This module is the *reference software implementation*: its pairwise
sweeps perform the exact arithmetic the HeteroSVD accelerator
distributes across orth-AIEs and norm-AIEs, and they are the golden
model the hardware-level functional simulation
(:mod:`repro.core.accelerator`) is validated against.  The software
``method="block"`` instead rotates each block pair at once by the
eigenvectors of its panel's Gram matrix (block rotations), and
finishes on pairwise sweeps where those stall.
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
from repro.linalg.block import panel_schedule, sweep_schedule
from repro.linalg.orderings import Ordering, RingOrdering
from repro.linalg.rotations import (
    apply_rotation,
    compute_rotation,
    compute_rotations_batch,
)

#: Safety cap on sweeps; Hestenes-Jacobi converges quadratically and in
#: practice needs ~log2(n) + a few sweeps, so this is generous.
DEFAULT_MAX_SWEEPS = 60

#: A block sweep that leaves more than this share of the residual of
#: the sweep before has stalled: its matrix finishes on pairwise sweeps.
#: Converging block sweeps leave at most ~0.7 of it, but up to ~0.9
#: near the accuracy of the panel Gram eigenvectors (0.84 and 0.896
#: seen); once they reach it, the residual stays put or grows (0.94 or
#: more).  docs/performance.md gives the input set and the bands.
_BLOCK_STALL = 0.9

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
    written: no solver calls it; it is the oracle the tests pin the
    batched kernel against, by substituting it for
    ``_sweep_pairs_indexed`` (the two agree to dot-product summation
    order).
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


def _rotate_panels(
    w: np.ndarray,
    m: int,
    cols: np.ndarray,
    precision: float,
    zero_sq: np.ndarray,
) -> np.ndarray:
    """Rotate one tournament round of block pairs of ``W = [B; V]``.

    ``cols`` is a ``(panels, 2k)`` array: each row the columns of one
    block pair, and ``zero_sq`` each panel's dead-column floor.  The
    panels are disjoint, so one pass rotates them all:

    1. gather every panel, ``B`` and ``V`` rows at once, and take each
       panel's Gram matrix from its ``B`` rows;
    2. keep the panels holding a live pair at or above ``precision``
       (the Eq. 6 ratio with the pair kernel's floor);
    3. take their rotations from one batched ``eigh`` of those Gram
       matrices (:func:`_gram_rotations`);
    4. multiply each panel by its rotation, one batched ``matmul``,
       and scatter back.

    A panel with a column at or below its floor rotates only its live
    columns, by the eigenvectors of their Gram matrix alone: a dead
    column is never mixed with the others, as in the pair kernel, so
    the zero padding of the block grid stays zero with its unit ``V``
    columns.  Each panel's arithmetic is its own, so the result does
    not depend on which panels share a call.

    Returns:
        Per panel, whether it was rotated.
    """
    count, width = cols.shape
    rows = w.shape[0]
    panels = w[:, cols.ravel()].reshape(rows, count, width).transpose(1, 0, 2)
    top = panels[:, :m]
    gram = np.matmul(top.transpose(0, 2, 1), top).astype(np.float64,
                                                         copy=False)
    diagonal = np.arange(width)
    norms = gram[:, diagonal, diagonal]
    live = norms > np.maximum(zero_sq, 0.0)[:, None]
    # A dead column's infinite root zeroes its ratios.
    roots = np.where(live, np.sqrt(norms), np.inf)
    ratios = np.abs(gram) / (roots[:, :, None] * roots[:, None, :])
    ratios[:, diagonal, diagonal] = 0.0
    rotate = ratios.max(axis=(1, 2)) >= precision
    if not rotate.all():
        if not rotate.any():
            return rotate
        panels, gram, cols, live = (
            x[rotate] for x in (panels, gram, cols, live)
        )
    whole = live.all(axis=1)
    if whole.all():
        rotations = _gram_rotations(gram)
    else:
        rotations = np.empty_like(gram)
        if whole.any():
            rotations[whole] = _gram_rotations(gram[whole])
        for k in np.flatnonzero(~whole):
            keep = np.flatnonzero(live[k])
            sub = np.ix_(keep, keep)
            rotations[k] = np.eye(width)
            rotations[k][sub] = _gram_rotations(gram[k][sub][None])[0]
    # Each rotated panel lands as contiguous columns of one
    # Fortran-order array, ready for one scatter.
    rotated = np.empty((rows, cols.size), dtype=w.dtype, order="F")
    np.matmul(panels, rotations.astype(w.dtype, copy=False),
              out=rotated.reshape(rows, len(cols), width).transpose(1, 0, 2))
    w[:, cols.ravel()] = rotated
    return rotate


def _gram_rotations(gram: np.ndarray) -> np.ndarray:
    """The block rotation of each panel of a ``(p, s, s)`` Gram stack.

    The eigenvectors of one batched ``eigh``, in descending eigenvalue
    order, their columns permuted and signed towards the identity
    (:func:`_toward_identity`): a panel times its rotation has
    orthogonal columns, each close to the column it replaces.  That
    closeness is the UBC condition of Drmač's convergence proof for
    cyclic Jacobi with block rotations (SIMAX 31(3), 2009), and it
    keeps a nearly orthogonal panel's rotation nearly the identity.
    The Gram matrix squares the panel's condition number, so its small
    eigenvectors are accurate only to eps of the largest eigenvalue:
    on an ill-conditioned matrix the block sweeps stall, and the
    driver hands the matrix to pairwise sweeps.
    """
    _, vectors = np.linalg.eigh(gram)
    return _toward_identity(vectors[..., ::-1])


def _toward_identity(v: np.ndarray) -> np.ndarray:
    """Permute and sign the columns of each ``s x s`` matrix of ``v``.

    Column ``j`` of the result is the column of ``v`` assigned to row
    ``j``, with a non-negative diagonal entry.  When each row's largest
    entry sits in a different column, that column is the row's: every
    row's largest entry lands on the diagonal.  Otherwise (two rows
    share their largest column) the assignment is greedy, largest
    entry first, so a row whose largest entry went to another row
    gets its largest entry among the columns still free.  Where the
    argmax is a permutation the greedy assignment picks it too (ties
    aside), so the argmax is a fast path: ~93% of the panels of block
    solves take it, and running every panel through the greedy loop
    instead cost ~15% more solve time (docs/performance.md).
    """
    magnitude = np.abs(v)
    order = magnitude.argmax(axis=2)
    clash = (np.sort(order, axis=1) != np.arange(v.shape[-1])).any(axis=1)
    if clash.any():
        order[clash] = _greedy_assignment(magnitude[clash])
    # Row j of the transpose is column order[j] of v.
    picked = v.transpose(0, 2, 1)[np.arange(len(v))[:, None], order]
    signs = np.copysign(1.0, np.diagonal(picked, axis1=1, axis2=2))
    return picked.transpose(0, 2, 1) * signs[:, None, :]


def _greedy_assignment(magnitude: np.ndarray) -> np.ndarray:
    """Row-to-column assignment of each ``s x s`` matrix, largest first.

    ``s`` steps, each vectorized over the matrices: take every
    matrix's largest entry among its free rows and columns, assign
    that column to that row, and retire both.
    """
    magnitude = magnitude.copy()
    count, size, _ = magnitude.shape
    order = np.empty((count, size), dtype=np.intp)
    which = np.arange(count)
    for _ in range(size):
        rows, picked = np.divmod(magnitude.reshape(count, -1).argmax(axis=1),
                                 size)
        order[which, rows] = picked
        magnitude[which, rows, :] = -1.0
        magnitude[which, :, picked] = -1.0
    return order


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
        ``A = U S V^T`` exact for rank-deficient inputs.  Equal singular
        values keep their column order, so zero padding columns sort
        after the matrix's own zero columns, whose ``V`` columns (unit
        vectors inside the unpadded rows) keep the trimmed ``V``
        orthonormal.
    """
    sigma = np.linalg.norm(b, axis=0)
    order = np.argsort(-sigma, kind="stable")
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
    deadline: Optional[Deadline] = None,
    check_invariants: bool = False,
    method: str = "block",
) -> "HestenesResult | List[HestenesResult | ReproError]":
    """Block Hestenes-Jacobi: the software mirror of Algorithm 1.

    The one Jacobi sweep driver.  ``a`` (``m >= n``) is split into
    column blocks of ``block_width``, and every outer sweep visits each
    block pair of the tournament rounds of
    :func:`~repro.linalg.block.block_pair_rounds` in one of two ways:

    * a *pairwise* sweep runs a full ``ordering_cls`` sweep over the
      block pair's ``2 * block_width`` columns, ``(2k - 1) x k`` column
      pair rotations through the round kernel
      :func:`_sweep_pairs_indexed`: the accelerator's arithmetic.  With
      ``block_width = n // 2`` the one block pair holds every column,
      which is the monolithic sweep :func:`hestenes_svd` runs through
      here;
    * a *block* sweep rotates each block pair at once by the
      eigenvectors of the Gram matrix of its ``B`` rows
      (:func:`_rotate_panels`), one batched call per tournament round.
      When ``n <= 2k`` the one block pair is the whole matrix and its
      rotation the eigenvectors of the whole ``B^T B``.

    ``method="block"`` starts every matrix on block sweeps.  A Gram
    matrix's eigenvectors are accurate to eps of its largest
    eigenvalue, the square of the panel's largest column, so on an
    ill-conditioned matrix the block sweeps stall short of a tight
    ``precision``: once a block sweep leaves more than
    :data:`_BLOCK_STALL` of the residual of the sweep before, that
    matrix finishes on pairwise sweeps, which converge quadratically
    from there.  ``method="hestenes"`` sweeps pairwise throughout, at
    any ``block_width``: the accelerator's rotations.

    ``a`` may also be a list of ``T`` same-shape matrices, the paper's
    ``P_task`` tasks in flight: they sit side by side in one
    ``W = [B_1 ... B_T; V_1 ... V_T]`` and one kernel call rotates
    round ``r`` of every matrix still sweeping that way (their columns
    are disjoint, the argument that lets block pairs share a round).
    Each matrix keeps its own zero-column floor, sweep residual, sweep
    and rotation counts, sweep kind, and stops on its own convergence,
    so its bits are those of a run on it alone.  The list form returns
    one outcome per matrix, in order: a :class:`HestenesResult`, or the
    :class:`~repro.errors.ConvergenceError` (without ``fallback``) or
    :class:`~repro.errors.DeadlineExceeded` that ended it, returned
    rather than raised.  On deadline expiry the matrices that
    converged first are finished normally and the ones still sweeping
    share the one error, whose partial counts the first of them.  A
    single matrix returns its result or raises.

    Besides the sweep kind, ``method`` names the caller in the
    deadline kind and the :class:`~repro.errors.ConvergenceError`
    message, and picks the sweep residual: ``"hestenes"`` takes the
    sweep's worst pre-rotation pair ratio, ``"block"`` re-measures
    :func:`~repro.linalg.convergence.off_diagonal_ratio` of ``B``
    after every sweep, the pairwise sweeps of its finish included.
    The two rules can stop after different sweep counts in precision
    mode.  A result's ``rotations`` counts pair
    rotations and block rotations alike, one each.
    """
    stacked = isinstance(a, (list, tuple))
    matrices = list(a) if stacked else [a]
    m, n = matrices[0].shape
    hestenes = method == "hestenes"
    blocks = method == "block"
    local_panels = panel_schedule(n, block_width) if blocks else ()

    floors = np.array([
        zero_column_threshold_sq(float(np.linalg.norm(x)), x.dtype)
        for x in matrices
    ])
    # One Fortran-order W = [B; V]: each round kernel call moves a
    # column of B and its V column as one contiguous copy.  Block
    # pairs of one tournament round touch disjoint column sets, so
    # their (identical) sweeps commute: interleaving them round by
    # round performs the exact same rotations as visiting each block
    # pair in sequence, while multiplying the batch width by the
    # number of concurrent block pairs.  The per-round index arrays, stacked across each round's
    # pairs, are the shape's memoized schedule (sweep_schedule): it
    # repeats identically every outer sweep and every run, and is read
    # on a matrix's first pairwise sweep (a block solve that never
    # stalls makes none).  A block sweep reads the same tournament
    # rounds (panel_schedule).
    w = stack_panels(matrices, [np.eye(n)] * len(matrices))
    work = round_workspace(w.shape, w.dtype)

    def rounds_for(tasks: "list[int]") -> "list[tuple[np.ndarray, np.ndarray]]":
        # Matrix t's round indices offset by its column base t*n, laid
        # out matrix-major within each half of concat(ii, jj), so a
        # round's ratios reshape to one row per matrix; and each pair's
        # floor.
        bases = np.asarray(tasks, dtype=np.intp)[:, None] * n
        return [
            ((idx.reshape(2, 1, -1) + bases).ravel(),
             np.repeat(floors[tasks], idx.size // 2))
            for idx in sweep_schedule(ordering_cls, n, block_width)
        ]

    def panels_for(tasks: "list[int]") -> "list[tuple[np.ndarray, np.ndarray]]":
        # Each round's panel columns offset by t*n, matrix-major, so a
        # round's per-panel flags reshape to one row per matrix; and
        # each panel's floor.
        bases = np.asarray(tasks, dtype=np.intp)[:, None, None] * n
        return [
            ((cols + bases).reshape(-1, cols.shape[1]),
             np.repeat(floors[tasks], cols.shape[0]))
            for cols in local_panels
        ]

    def columns(t: int) -> slice:
        return slice(t * n, (t + 1) * n)

    count = len(matrices)
    rotations = [0] * count
    sweep_residuals: "list[list[float]]" = [[] for _ in range(count)]
    sweeps_done = [0] * count
    converged = [False] * count
    rotating_blocks = [blocks] * count
    budget = fixed_sweeps if fixed_sweeps is not None else max_sweeps
    outcomes: "list[HestenesResult | ReproError | None]" = [None] * count

    def check_deadline(tasks: "list[int]") -> None:
        # Once per kernel call: one monotonic-clock read behind a None
        # test, so the hot loop pays nothing when unbounded.
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

    def block_sweep(tasks, panels, active) -> "tuple[list[float], list[int]]":
        # Per matrix: the sweep residual and the block rotations applied.
        rotated = np.zeros(len(tasks), dtype=np.intp)
        for cols, floor in panels:
            check_deadline(active)
            flags = _rotate_panels(w, m, cols, precision, floor)
            rotated += np.count_nonzero(flags.reshape(len(tasks), -1), axis=1)
        residuals = [off_diagonal_ratio(w[:m, columns(t)]) for t in tasks]
        return residuals, rotated.tolist()

    def pair_sweep(tasks, rounds, active) -> "tuple[list[float], list[int]]":
        # Per matrix: the sweep residual and the rotations applied.
        ratios = []
        for idx, floor in rounds:
            check_deadline(active)
            # Looked up by module-global name at call time, so tracing
            # and the tests' reference kernel can stand in for it.
            round_ratios, _ = _sweep_pairs_indexed(
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

    # The schedules of the matrices sweeping each way, rebuilt only
    # when that set changes.
    built: "dict[bool, tuple[list[int], list]]" = {}

    def sweep_each_way(active: "list[int]") -> "dict[int, tuple[float, int]]":
        sweeps = {}
        for kind, sweep, schedule in ((True, block_sweep, panels_for),
                                      (False, pair_sweep, rounds_for)):
            tasks = [t for t in active if rotating_blocks[t] == kind]
            if not tasks:
                continue
            if kind not in built or built[kind][0] != tasks:
                built[kind] = (tasks, schedule(tasks))
            sweeps.update(zip(tasks, zip(*sweep(tasks, built[kind][1],
                                                active))))
        return sweeps

    active = list(range(count)) if budget > 0 else []
    try:
        while active:
            sweeps = sweep_each_way(active)
            still = []
            for t in active:
                residual, applied = sweeps[t]
                rotations[t] += applied
                sweeps_done[t] += 1
                sweep_residuals[t].append(residual)
                if fixed_sweeps is None and residual < precision:
                    converged[t] = True
                    continue
                if sweeps_done[t] < budget:
                    still.append(t)
                history = sweep_residuals[t]
                if rotating_blocks[t] and len(history) > 1 and \
                        not residual < _BLOCK_STALL * history[-2]:
                    rotating_blocks[t] = False
            active = still
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
                (extra_residual,), (extra_rotations,) = pair_sweep(
                    [t], rounds_for([t]), [t]
                )
                rotations[t] += extra_rotations
                residuals.append(extra_residual)
                report = check_factor_invariants(a_t, b, v, precision,
                                                 converged=done)
            if not report.ok:
                return reference_fallback(a_t, report.error(
                    sweeps_done[t], " after re-orthogonalization"
                ))

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
        deadline=deadline,
        check_invariants=check_invariants,
        method="hestenes",
    )
