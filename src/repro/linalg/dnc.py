"""Divide-and-conquer bidiagonal SVD (``method="dnc"``).

The solver reduces the input to upper-bidiagonal form with Householder
reflectors (Golub-Kahan) and then factors the bidiagonal matrix by the
divide-and-conquer recursion of Gu and Eisenstat, the same mechanism
the GPU-centered D&C SVD work (arXiv:2508.11467) accelerates and the
one behind LAPACK's ``dbdsdc``:

1. **Divide.**  A bidiagonal matrix ``B`` (``m`` rows) is split at row
   ``k = m // 2``: rows above the split form a *wide* ``k x (k + 1)``
   bidiagonal block ``B1``, rows below form ``B2`` with the parent's
   squareness, and row ``k`` couples the halves through its two
   entries ``(d_k, e_k)``.
2. **Conquer.**  Each half is factored recursively; blocks at or below
   ``leaf_size`` rows are handed to the existing one-sided Jacobi
   solver (:func:`repro.linalg.svd.svd` with ``method="hestenes"``),
   so the leaves inherit the repo's round kernels and guard rails.
3. **Merge.**  Substituting the half factorizations turns ``B`` into a
   diagonal-plus-arrow matrix ``M = e_0 z^T + D``.  Its singular
   values are the roots of the secular equation
   ``f(s) = 1 + sum_i z_i^2 / (d_i^2 - s^2)``, one root per interval
   of the interlacing diagonal; the roots are found by vectorized
   bisection and the singular vectors come from the closed-form
   arrowhead eigenvector expressions, with the ``z`` vector
   *recomputed* from the accepted roots (Gu's Loewner-matrix identity)
   so the vectors stay numerically orthonormal.  Deflation removes
   negligible couplings and near-equal diagonal pairs first, exactly
   as in ``dlasd2``.

Accuracy contract: at float64 the singular values agree with
``np.linalg.svd`` to a relative tolerance of 1e-10, and ``U diag(S)
V^T`` reconstructs the input to a few ULPs times the spectral norm.
The leaves are solved at ``min(precision, 1e-14)``: a leaf's ``U`` is
orthonormal only to about its stopping precision, so at the looser
Jacobi default (or at 1e-10) the merged factors miss
:func:`~repro.guard.check_factor_invariants`' ``1000·n·eps``
orthogonality tolerance.  The crossover study in
``docs/workloads.md`` records where this path overtakes the dense
Jacobi methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError, NumericalError
from repro.guard.deadline import Deadline, as_deadline
from repro.guard.validate import validate_matrix
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS, reference_fallback

__all__ = ["DnCResult", "dnc_svd"]

#: Largest bidiagonal block handed to the Jacobi leaf solver.
DEFAULT_LEAF_SIZE = 24

#: Bisection iterations for the secular solver; 90 halvings drive the
#: bracket below one ULP of the root for any float64 interval.
_SECULAR_ITERATIONS = 90

_EPS = np.finfo(float).eps


@dataclass
class DnCResult:
    """Output of :func:`dnc_svd`.

    Attributes:
        u: Left singular vectors, shape ``(m, r)`` with
            ``r = min(m, n)``.
        singular_values: Singular values in descending order.
        v: Right singular vectors, shape ``(n, r)``.
        sweeps: Total Jacobi sweeps spent in the leaf solves.
        converged: Always True unless the result is ``degraded``.
        merges: Number of secular merge steps performed.
        deflations: Entries removed by deflation across all merges.
        sweep_residuals: Kept empty (per-sweep residuals are a Jacobi
            notion); present for interface parity with
            :class:`~repro.linalg.hestenes.HestenesResult`.
        degraded: True when the ``fallback="reference"`` safety net
            replaced the factors with the LAPACK reference answer.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    sweeps: int
    converged: bool
    merges: int
    deflations: int
    sweep_residuals: List[float] = field(default_factory=list)
    degraded: bool = False

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(S) V^T`` for residual checks."""
        return (self.u * self.singular_values) @ self.v.T


class _Context:
    """Shared knobs and counters threaded through the recursion."""

    def __init__(
        self,
        leaf_size: int,
        precision: float,
        max_sweeps: int,
        strategy: str,
        deadline: Optional[Deadline],
    ):
        self.leaf_size = leaf_size
        self.precision = precision
        self.max_sweeps = max_sweeps
        self.strategy = strategy
        self.deadline = deadline
        self.sweeps = 0
        self.merges = 0
        self.deflations = 0

    def check_deadline(self, rows: int) -> None:
        if self.deadline is not None and self.deadline.expired():
            self.deadline.check("dnc_merge", completed=self.merges, rows=rows)


def _householder(x: np.ndarray) -> Tuple[np.ndarray, float]:
    """Reflector ``(v, beta)`` with ``(I - beta v v^T) x = -sign(x0)|x| e0``."""
    v = x.astype(float).copy()
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0 or v.size == 1:
        return v * 0.0, 0.0
    sign = 1.0 if v[0] >= 0 else -1.0
    v[0] += sign * alpha
    return v, 2.0 / float(v @ v)


def _bidiagonalize(
    a: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Golub-Kahan reduction ``a = U B V^T`` with ``B`` upper bidiagonal.

    Requires ``m >= n``.  Returns ``(u, d, e, v)`` where ``u`` is
    ``m x n`` with orthonormal columns, ``v`` is ``n x n`` orthogonal,
    ``d`` holds the ``n`` diagonal entries and ``e`` the ``n - 1``
    superdiagonal entries of ``B``.
    """
    m, n = a.shape
    work = a.copy()
    left: List[Tuple[int, np.ndarray, float]] = []
    right: List[Tuple[int, np.ndarray, float]] = []
    for j in range(n):
        v, beta = _householder(work[j:, j])
        if beta != 0.0:
            work[j:, j:] -= np.outer(v * beta, v @ work[j:, j:])
        left.append((j, v, beta))
        if j < n - 2:
            w, beta2 = _householder(work[j, j + 1:])
            if beta2 != 0.0:
                work[j:, j + 1:] -= np.outer(work[j:, j + 1:] @ w, w * beta2)
            right.append((j + 1, w, beta2))
    idx = np.arange(n)
    d = work[idx, idx].copy()
    e = work[idx[:-1], idx[:-1] + 1].copy() if n > 1 else np.zeros(0)

    u = np.zeros((m, n))
    u[idx, idx] = 1.0
    for j, v, beta in reversed(left):
        if beta != 0.0:
            u[j:, :] -= np.outer(v * beta, v @ u[j:, :])
    vmat = np.eye(n)
    for start, w, beta in reversed(right):
        if beta != 0.0:
            vmat[start:, :] -= np.outer(w * beta, w @ vmat[start:, :])
    return u, d, e, vmat


def _null_complement(v_thin: np.ndarray) -> np.ndarray:
    """Orthonormal columns completing ``v_thin`` to a square basis."""
    p, r = v_thin.shape
    q = np.linalg.qr(v_thin, mode="complete")[0]
    return q[:, r:]


def _leaf(
    d: np.ndarray, e: np.ndarray, wide: bool, ctx: _Context
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi solve of a small bidiagonal block.

    Returns ``(u, s, v)`` with ``s`` descending; for a wide block the
    returned ``v`` is square with the null-space column appended last.
    """
    from repro.linalg.svd import svd as _svd

    m = d.size
    cols = m + 1 if wide else m
    b = np.zeros((m, cols))
    idx = np.arange(m)
    b[idx, idx] = d
    if e.size:
        b[np.arange(e.size), np.arange(e.size) + 1] = e
    res = _svd(
        b,
        method="hestenes",
        precision=ctx.precision,
        max_sweeps=ctx.max_sweeps,
        strategy=ctx.strategy,
        validate=False,
        prescale=False,
        deadline=ctx.deadline,
    )
    ctx.sweeps += res.sweeps
    v = res.v
    if wide:
        v = np.hstack([v, _null_complement(v)])
    return res.u, res.singular_values, v


def _secular_solve(
    d: np.ndarray, z: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Roots of ``1 + sum_i z_i^2 / (d_i^2 - s^2) = 0``, ascending.

    ``d`` is ascending with ``d[0] == 0``; exactly one root lies in
    each interval ``(d_i, d_{i+1})`` (the last is capped by
    ``sqrt(d_max^2 + |z|^2)``) and ``f`` is strictly increasing there,
    so bisection converges unconditionally.  Following ``dlasd4``, the
    iteration tracks the *offset* ``mu`` from the nearest pole rather
    than the root itself: a weak coupling ``z_i`` puts its root within
    ``z_i^2 / d_i`` of the pole — far below one ULP of ``sigma`` — and
    only the anchored difference ``d_j - sigma = (d_j - d_a) - mu``
    keeps full relative accuracy there.

    Returns ``(sigma, diff)`` where ``diff[j, r] = d_j - sigma_r``
    evaluated through the anchored representation; every downstream
    formula (Loewner recomputation, vector assembly) must consume
    these differences instead of re-deriving them from ``sigma``.
    """
    p = d.size
    z2 = z * z
    idx = np.arange(p)
    zsum = float(z2.sum())
    width = np.empty(p)
    if p > 1:
        width[:-1] = d[1:] - d[:-1]
    width[-1] = zsum / (math.sqrt(float(d[-1] * d[-1]) + zsum) + float(d[-1]))

    def f_eval(a_idx: np.ndarray, mu: np.ndarray) -> np.ndarray:
        sigma = d[a_idx] + mu
        diff = (d[:, None] - d[a_idx][None, :]) - mu[None, :]
        # At the anchored pole the signed zero in ``diff`` makes the
        # term the correctly-signed infinity, which is exactly f's
        # limit there — no masking needed.
        with np.errstate(divide="ignore"):
            terms = z2[:, None] / (diff * (d[:, None] + sigma[None, :]))
            return 1.0 + terms.sum(axis=0)

    # One probe at each interval midpoint picks the nearer pole as the
    # anchor (the last interval's upper end is not a pole, so its root
    # always anchors low).
    half = 0.5 * width
    fmid = f_eval(idx, half)
    go_hi = (fmid < 0.0) & (idx < p - 1)
    a_idx = np.where(go_hi, idx + 1, idx)
    mu_lo = np.where(go_hi, -half, np.where(fmid < 0.0, half, 0.0))
    mu_hi = np.where(go_hi, 0.0, np.where(fmid < 0.0, width, half))
    for _ in range(_SECULAR_ITERATIONS):
        mu = 0.5 * (mu_lo + mu_hi)
        go_up = f_eval(a_idx, mu) < 0.0
        mu_lo = np.where(go_up, mu, mu_lo)
        mu_hi = np.where(go_up, mu_hi, mu)
    mu = 0.5 * (mu_lo + mu_hi)
    # A root collapsing onto its pole to the last bit would zero a
    # difference downstream; half a ULP of backward perturbation keeps
    # every factor finite.
    mu = np.where(mu == 0.0, np.copysign(np.finfo(float).tiny, mu), mu)
    sigma = d[a_idx] + mu
    diff = (d[:, None] - d[a_idx][None, :]) - mu[None, :]
    return sigma, diff


def _recompute_z(
    d: np.ndarray, sigma: np.ndarray, diff: np.ndarray
) -> np.ndarray:
    """Gu's Loewner identity: the ``|z|`` whose secular roots are exactly
    ``sigma`` for the diagonal ``d``.

    Evaluated as a product of O(1) interlacing ratios (never raw
    polynomial products), matching ``dlasd3``; using this ``z`` in the
    closed-form vector expressions makes the computed singular vectors
    orthonormal to working precision regardless of how accurately the
    roots were located.
    """
    p = d.size
    num = -diff * (sigma[None, :] + d[:, None])
    den = (d[None, :] - d[:, None]) * (d[None, :] + d[:, None])
    rows = np.arange(p)
    z2 = num[:, p - 1].copy()
    for j in range(p - 1):
        denom = np.where(rows > j, den[:, j], den[:, j + 1])
        z2 *= num[:, j] / denom
    return np.sqrt(np.maximum(z2, 0.0))


def _merge_vectors(
    d: np.ndarray, zhat: np.ndarray, sigma: np.ndarray, diff: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form singular vectors of ``M = e0 z^T + diag(d)``.

    Column ``r`` satisfies ``M v_r = sigma_r u_r`` with
    ``v_r[i] ~ zhat_i / (d_i^2 - sigma_r^2)`` and
    ``u_r = M v_r / sigma_r`` (whose first entry is ``-1`` by the
    secular equation), both normalized.  The pole-root differences
    come from the anchored representation of :func:`_secular_solve` —
    they are meaningful to full relative accuracy even when a root
    sits within an ULP of its pole.
    """
    delta = diff * (d[:, None] + sigma[None, :])
    v = zhat[:, None] / delta
    u = d[:, None] * v
    u[0, :] = -1.0
    v = v / np.linalg.norm(v, axis=0)
    u = u / np.linalg.norm(u, axis=0)
    return u, v


def _merge(
    k: int,
    a_k: float,
    b_k: float,
    u1: np.ndarray,
    s1: np.ndarray,
    v1: np.ndarray,
    u2: np.ndarray,
    s2: np.ndarray,
    v2: np.ndarray,
    wide: bool,
    ctx: _Context,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine half factorizations through one secular rank-one merge."""
    ctx.merges += 1
    m2 = s2.size
    rows = k + 1 + m2          # parent row count
    c1 = k + 1                 # columns owned by the wide top block
    total = c1 + v2.shape[0]   # parent column count
    ctx.check_deadline(rows)

    # Diagonal, coupling and row-ownership of every parent column in
    # the middle matrix  blockdiag(U1,1,U2)^T B blockdiag(V1,V2).
    d_col = np.zeros(total)
    d_col[:k] = s1
    d_col[c1:c1 + m2] = s2
    z_col = np.empty(total)
    z_col[:c1] = a_k * v1[k, :]
    z_col[c1:] = b_k * v2[0, :]
    row_of = np.full(total, -1, dtype=int)
    row_of[:k] = np.arange(k)
    row_of[c1:c1 + m2] = k + 1 + np.arange(m2)

    w_right = np.zeros((total, total))
    w_right[:c1, :c1] = v1
    w_right[c1:, c1:] = v2

    if wide:
        # Two d=0 columns (the null columns of B1 and B2).  A single
        # plane rotation between them pushes all coupling into the
        # first and leaves the second an exact null column of B — the
        # parent's null vector, set aside before the square merge.
        kc, lc = k, total - 1
        zk, zl = float(z_col[kc]), float(z_col[lc])
        r = math.hypot(zk, zl)
        c, s = (zk / r, zl / r) if r > 0.0 else (1.0, 0.0)
        z_col[kc], z_col[lc] = r, 0.0
        col_k = w_right[:, kc].copy()
        col_l = w_right[:, lc].copy()
        w_right[:, kc] = c * col_k + s * col_l
        w_right[:, lc] = -s * col_k + c * col_l
        sq_cols = np.arange(total - 1)
    else:
        sq_cols = np.arange(total)

    n_sq = sq_cols.size  # == rows
    d_sq = d_col[sq_cols]
    z_sq = z_col[sq_cols]
    r_sq = row_of[sq_cols]

    # Canonical order: the rowless (arrow) column first, then by d.
    order = np.lexsort((np.arange(n_sq), (r_sq >= 0).astype(int), d_sq))
    dd = d_sq[order]
    zz = z_sq[order].copy()
    mid_rows = np.where(r_sq[order] < 0, k, r_sq[order])
    col_pos = sq_cols[order]

    scale = max(float(dd.max(initial=0.0)), float(np.abs(zz).max(initial=0.0)))
    if scale == 0.0:
        u_out = np.eye(rows)
        v_out = np.eye(total) if wide else np.eye(n_sq)
        return u_out, np.zeros(rows), v_out
    tol = 8.0 * _EPS * scale

    # The arrow entry must stay alive for the secular problem to keep
    # its structure; clamping is a backward perturbation of order tol.
    if abs(zz[0]) < tol:
        zz[0] = tol

    # Deflation pass 1: negligible couplings split off immediately.
    deflated: List[Tuple[int, float]] = []  # (canonical index, sigma)
    alive = [0]
    for i in range(1, n_sq):
        if abs(zz[i]) <= tol:
            deflated.append((i, float(dd[i])))
        else:
            alive.append(i)

    # Deflation pass 2: rotate near-equal diagonal pairs so one of the
    # two couplings vanishes.  Rotating against the arrow entry (index
    # 0, d=0) only touches columns; ordinary pairs rotate rows too.
    givens: List[Tuple[int, int, float, float, bool]] = []
    kept = [alive[0]]
    for i in alive[1:]:
        prev = kept[-1]
        if dd[i] - dd[prev] <= tol:
            zp, zi = float(zz[prev]), float(zz[i])
            r = math.hypot(zp, zi)
            c, s = (zp / r, zi / r) if r > 0.0 else (1.0, 0.0)
            zz[prev], zz[i] = r, 0.0
            givens.append((prev, i, c, s, prev != 0))
            deflated.append((i, float(dd[i])))
        else:
            kept.append(i)
    ctx.deflations += len(deflated)

    kidx = np.array(kept, dtype=int)
    d_kept = dd[kidx]
    z_kept = zz[kidx]
    sigma, diff = _secular_solve(d_kept, z_kept)
    zhat = np.copysign(_recompute_z(d_kept, sigma, diff), z_kept)
    u_small, v_small = _merge_vectors(d_kept, zhat, sigma, diff)

    # Assemble in canonical (rotated) coordinates, secular columns
    # first, then deflated spikes.
    u_can = np.zeros((n_sq, n_sq))
    v_can = np.zeros((n_sq, n_sq))
    sig_all = np.empty(n_sq)
    p = kidx.size
    u_can[np.ix_(kidx, np.arange(p))] = u_small
    v_can[np.ix_(kidx, np.arange(p))] = v_small
    sig_all[:p] = sigma
    for offset, (ci, sv) in enumerate(deflated):
        col = p + offset
        u_can[ci, col] = 1.0
        v_can[ci, col] = 1.0
        sig_all[col] = sv

    # Undo the deflation rotations (inverse order, transposed planes).
    for i, j, c, s, rotate_rows in reversed(givens):
        vi = v_can[i, :].copy()
        v_can[i, :] = c * vi - s * v_can[j, :]
        v_can[j, :] = s * vi + c * v_can[j, :]
        if rotate_rows:
            ui = u_can[i, :].copy()
            u_can[i, :] = c * ui - s * u_can[j, :]
            u_can[j, :] = s * ui + c * u_can[j, :]

    desc = np.argsort(-sig_all, kind="stable")
    sig_all = sig_all[desc]
    u_can = u_can[:, desc]
    v_can = v_can[:, desc]

    # Map canonical coordinates back to middle-matrix rows/columns and
    # multiply the block factors through.
    u_mid = np.zeros((rows, rows))
    u_mid[mid_rows, :] = u_can
    v_embed = np.zeros((total, total if wide else n_sq))
    v_embed[col_pos, :n_sq] = v_can
    if wide:
        v_embed[total - 1, n_sq] = 1.0

    u_out = np.empty((rows, rows))
    u_out[:k, :] = u1 @ u_mid[:k, :]
    u_out[k, :] = u_mid[k, :]
    u_out[k + 1:, :] = u2 @ u_mid[k + 1:, :]
    v_out = w_right @ v_embed
    return u_out, sig_all, v_out


def _dnc(
    d: np.ndarray, e: np.ndarray, wide: bool, ctx: _Context
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recursive bidiagonal SVD; see module docstring for the scheme."""
    m = d.size
    if m <= ctx.leaf_size:
        return _leaf(d, e, wide, ctx)
    k = m // 2
    u1, s1, v1 = _dnc(d[:k], e[:k], True, ctx)
    u2, s2, v2 = _dnc(d[k + 1:], e[k + 1:], wide, ctx)
    return _merge(
        k, float(d[k]), float(e[k]), u1, s1, v1, u2, s2, v2, wide, ctx
    )


def dnc_svd(
    a: np.ndarray,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    precision: float = 1e-10,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    strategy: str = "auto",
    fallback: Optional[str] = None,
    validate: bool = True,
    deadline: "Optional[Deadline | float]" = None,
) -> DnCResult:
    """Thin SVD by bidiagonal divide-and-conquer.

    Args:
        a: Any real 2-D matrix (wide inputs are factored through the
            transpose).
        leaf_size: Largest bidiagonal block solved directly by the
            Jacobi leaf solver; must be at least 3 so every split
            leaves a coupling row.
        precision: Convergence threshold handed to the Jacobi leaves,
            floored at 1e-14 so the rtol-1e-10 singular-value contract
            and the factor invariants hold even at the looser library
            default.
        max_sweeps: Sweep budget for the Jacobi leaves.
        strategy: Round kernel for the leaves (``"auto"``,
            ``"scalar"``, ``"vectorized"``).
        fallback: ``"reference"`` re-solves with LAPACK (marking the
            result ``degraded=True``) if the composed factors fail a
            reconstruction residual check, mirroring the Jacobi
            drivers' non-convergence fallback.
        validate: Run :func:`~repro.guard.validate_matrix` first.
        deadline: Optional wall-clock budget (a
            :class:`~repro.guard.Deadline` or seconds), checked at
            every merge and threaded into the leaf solves.

    Returns:
        A :class:`DnCResult`; singular values match ``np.linalg.svd``
        to rtol 1e-10 at float64.
    """
    if leaf_size < 3:
        raise NumericalError(
            f"leaf_size must be >= 3, got {leaf_size}"
        )
    if fallback not in (None, "reference"):
        raise NumericalError(
            f"unknown fallback {fallback!r}; expected None or 'reference'"
        )
    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise NumericalError("cannot factor an empty matrix")
    if validate:
        validate_matrix(a, name="matrix")
    a = a.astype(float)
    deadline = as_deadline(deadline)

    m, n = a.shape
    transposed = m < n
    work = a.T.copy() if transposed else a.copy()
    ctx = _Context(
        leaf_size=leaf_size,
        precision=min(precision, 1e-14),
        max_sweeps=max_sweeps,
        strategy=strategy,
        deadline=deadline,
    )

    ub, d, e, vb = _bidiagonalize(work)
    if d.size <= ctx.leaf_size:
        ud, s, vd = _leaf(d, e, False, ctx)
    else:
        ud, s, vd = _dnc(d, e, False, ctx)
    u = ub @ ud
    v = vb @ vd
    if transposed:
        u, v = v, u

    degraded = False
    if fallback == "reference":
        residual = float(
            np.linalg.norm(a - (u * s) @ v.T if not transposed
                           else a - (u * s) @ v.T)
        )
        norm_a = float(np.linalg.norm(a))
        if residual > max(m, n) * 1e-8 * max(norm_a, 1.0):
            ref = reference_fallback(
                a,
                ConvergenceError(
                    "divide-and-conquer residual check failed "
                    f"({residual:.3e} vs norm {norm_a:.3e})",
                    iterations=ctx.merges,
                    residual=residual,
                ),
            )
            return DnCResult(
                u=ref.u,
                singular_values=ref.singular_values,
                v=ref.v,
                sweeps=ctx.sweeps,
                converged=False,
                merges=ctx.merges,
                deflations=ctx.deflations,
                degraded=True,
            )

    return DnCResult(
        u=u,
        singular_values=s,
        v=v,
        sweeps=ctx.sweeps,
        converged=True,
        merges=ctx.merges,
        deflations=ctx.deflations,
        degraded=degraded,
    )
