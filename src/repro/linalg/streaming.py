"""Incremental (streaming) rank-k SVD with row-block folding
(``method="streaming"``).

:class:`StreamingSVD` maintains a truncated factorization
``A ~= U diag(S) V^T`` of everything seen so far and folds new row
blocks in without ever re-touching old rows — the update cost depends
on the block and the rank, not on the stream length.  The mechanism
is Brand's incremental SVD: project the new block onto the current
right basis, QR the residual, factor the small
``(k + p) x (k + q)`` core with the existing Jacobi solver, and
rotate the bases.  This is the update path for evolving
recommender-style matrices (:func:`repro.workloads.rating_stream`
feeds it); the randomized range-finder in
:mod:`repro.linalg.truncated` provides the warm start
(:meth:`StreamingSVD.from_matrix`).

Accuracy contract: each fold is *exact* for the retained subspace —
if the stream's matrix truly has rank at most ``k``, the factors
match a batch ``np.linalg.svd`` to rtol 1e-10 at float64 (this is
what ``svd(method="streaming")`` relies on: at full rank nothing is
ever truncated).  When the stream carries energy beyond rank ``k``,
every fold discards the trailing singular values of its small core;
the accumulated Frobenius norm of everything discarded is tracked and
reported by :meth:`StreamingSVD.error_bound`, an upper bound (by the
triangle inequality) on ``||A - U diag(S) V^T||_F``.  The bound — and
the true error — is monotonically non-increasing in the retained rank
``k``: raising ``k`` can only shrink what truncation throws away (see
``docs/workloads.md`` for the measured curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, NumericalError
from repro.guard.deadline import Deadline, as_deadline
from repro.guard.validate import validate_matrix
from repro.linalg.hestenes import DEFAULT_MAX_SWEEPS

__all__ = ["StreamingSVD", "StreamingResult", "streaming_svd"]


class StreamingSVD:
    """Rank-``k`` SVD of a growing-row matrix, updated block by block.

    Use :meth:`from_matrix` to warm-start from an existing matrix via
    the randomized range-finder, or construct empty and let the first
    :meth:`update` bootstrap the factors.  ``u``/``singular_values``/
    ``v`` expose the current factorization; ``error_bound()`` bounds
    the truncation error accumulated so far (see module docstring for
    the contract).
    """

    def __init__(
        self,
        rank: int,
        precision: float = 1e-10,
        max_sweeps: int = DEFAULT_MAX_SWEEPS,
    ):
        if rank < 1:
            raise ConfigurationError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.precision = precision
        self.max_sweeps = max_sweeps
        self._u: Optional[np.ndarray] = None
        self._s: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._rows = 0
        self._updates = 0
        self._sweeps = 0
        self._discarded = 0.0

    @classmethod
    def from_matrix(
        cls,
        a: np.ndarray,
        rank: int,
        oversample: int = 8,
        power_iterations: int = 2,
        seed: Optional[int] = None,
        precision: float = 1e-10,
    ) -> "StreamingSVD":
        """Warm-start from ``a`` through the randomized range-finder.

        The initial factors come from
        :func:`~repro.linalg.truncated.truncated_svd` (rank capped at
        ``min(a.shape)``), so the start inherits its oversampling and
        power-iteration accuracy knobs; subsequent :meth:`update`
        calls fold new rows exactly.
        """
        from repro.linalg.truncated import truncated_svd

        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise NumericalError(
                f"expected a 2-D matrix, got shape {a.shape}"
            )
        self = cls(rank, precision=precision)
        res = truncated_svd(
            a,
            rank=min(rank, min(a.shape)),
            oversample=oversample,
            power_iterations=power_iterations,
            seed=seed,
            precision=min(precision, 1e-8),
        )
        self._u = res.u
        self._s = res.singular_values
        self._v = res.v
        self._rows = a.shape[0]
        return self

    @property
    def u(self) -> np.ndarray:
        """Left singular vectors of the stream so far, ``(rows, k)``."""
        self._require_data()
        return self._u

    @property
    def singular_values(self) -> np.ndarray:
        """Current singular values, descending, at most ``rank`` many."""
        self._require_data()
        return self._s

    @property
    def v(self) -> np.ndarray:
        """Right singular vectors, ``(n_cols, k)``."""
        self._require_data()
        return self._v

    @property
    def rows(self) -> int:
        """Total rows folded in so far."""
        return self._rows

    @property
    def updates(self) -> int:
        """Number of :meth:`update` calls applied."""
        return self._updates

    def _require_data(self) -> None:
        if self._s is None:
            raise NumericalError(
                "streaming factorization is empty; call update() or "
                "from_matrix() first"
            )

    def error_bound(self) -> float:
        """Upper bound on ``||A - U diag(S) V^T||_F`` from truncation.

        Each fold perturbs the represented matrix by exactly the
        Frobenius norm of what it truncates, so the sum of those
        norms bounds the final deviation by the triangle inequality;
        0.0 while no nonzero singular value has been dropped.
        Non-increasing in the retained rank (measured in
        ``docs/workloads.md``).
        """
        return self._discarded

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(S) V^T`` for residual checks."""
        self._require_data()
        return (self._u * self._s) @ self._v.T

    def update(self, rows: np.ndarray) -> "StreamingSVD":
        """Fold a new block of rows into the factorization.

        Args:
            rows: A 2-D block whose column count matches the stream
                (the first block fixes it).

        Returns:
            ``self``, for chaining.
        """
        from repro.linalg.svd import svd as _svd

        b = np.asarray(rows, dtype=float)
        if b.ndim != 2:
            raise NumericalError(
                f"expected a 2-D row block, got shape {b.shape}"
            )
        if b.size == 0:
            raise NumericalError("cannot fold an empty row block")
        validate_matrix(b, name="update block")

        if self._s is None:
            res = _svd(
                b,
                method="hestenes",
                precision=min(self.precision, 1e-12),
                max_sweeps=self.max_sweeps,
                validate=False,
                prescale=False,
            )
            keep = min(self.rank, res.singular_values.size)
            self._discarded += float(
                np.sqrt(np.sum(res.singular_values[keep:] ** 2))
            )
            self._u = res.u[:, :keep]
            self._s = res.singular_values[:keep]
            self._v = res.v[:, :keep]
            self._sweeps += res.sweeps
            self._rows = b.shape[0]
            self._updates += 1
            return self

        n = self._v.shape[0]
        if b.shape[1] != n:
            raise NumericalError(
                f"update block has {b.shape[1]} columns, stream has {n}"
            )
        u, s, v = self._u, self._s, self._v
        k = s.size
        p = b.shape[0]

        # Brand fold: split the block into its projection onto the
        # current right basis and an orthogonal residual, then rotate
        # everything by the SVD of the small core.
        c = b @ v
        resid = b - c @ v.T
        q, rr = np.linalg.qr(resid.T, mode="reduced")
        qn = q.shape[1]
        core = np.zeros((k + p, k + qn))
        core[np.arange(k), np.arange(k)] = s
        core[k:, :k] = c
        core[k:, k:] = rr.T
        core_res = _svd(
            core,
            method="hestenes",
            precision=min(self.precision, 1e-12),
            max_sweeps=self.max_sweeps,
            validate=False,
            prescale=False,
        )
        keep = min(self.rank, core_res.singular_values.size)
        self._discarded += float(
            np.sqrt(np.sum(core_res.singular_values[keep:] ** 2))
        )
        uk = core_res.u[:, :keep]
        vk = core_res.v[:, :keep]
        self._u = np.vstack([u @ uk[:k, :], uk[k:, :]])
        self._v = np.hstack([v, q]) @ vk
        self._s = core_res.singular_values[:keep]
        self._sweeps += core_res.sweeps
        self._rows += p
        self._updates += 1
        return self


@dataclass
class StreamingResult:
    """Output of the one-shot :func:`streaming_svd` driver.

    Attributes mirror the other solver results so ``svd()`` can wrap
    them uniformly; ``updates`` counts the folded row blocks.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    sweeps: int
    converged: bool
    updates: int
    sweep_residuals: List[float] = field(default_factory=list)
    degraded: bool = False

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(S) V^T`` for residual checks."""
        return (self.u * self.singular_values) @ self.v.T


def streaming_svd(
    a: np.ndarray,
    rank: Optional[int] = None,
    chunk_rows: Optional[int] = None,
    precision: float = 1e-10,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    validate: bool = True,
    deadline: "Optional[Deadline | float]" = None,
) -> StreamingResult:
    """One-shot SVD of ``a`` through the streaming fold.

    Streams the rows of ``a`` chunk by chunk through
    :class:`StreamingSVD`.  With the default full rank nothing is
    truncated, so the result matches ``np.linalg.svd`` to rtol 1e-10
    at float64 — this is the ``svd(method="streaming")`` path, useful
    to validate the fold and to bound its cost; pass a smaller
    ``rank`` for a genuinely truncated streaming pass.

    Args:
        a: Any real 2-D matrix; wide inputs stream the transpose.
        rank: Retained rank (default ``min(a.shape)``, i.e. exact).
        chunk_rows: Rows folded per update (default
            ``max(rank, 32)``).
        precision: Threshold for the small core solves.
        max_sweeps: Sweep budget for the core solves.
        validate: Run :func:`~repro.guard.validate_matrix` first.
        deadline: Optional wall-clock budget, checked between folds.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise NumericalError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise NumericalError("cannot factor an empty matrix")
    if validate:
        validate_matrix(a, name="matrix")
    a = a.astype(float)
    deadline = as_deadline(deadline)

    m0, n0 = a.shape
    transposed = m0 < n0
    work = a.T.copy() if transposed else a
    m, n = work.shape
    k = rank if rank is not None else n
    if k < 1:
        raise ConfigurationError(f"rank must be >= 1, got {k}")
    step = chunk_rows if chunk_rows is not None else max(k, 32)
    if step < 1:
        raise ConfigurationError(f"chunk_rows must be >= 1, got {step}")

    stream = StreamingSVD(k, precision=precision, max_sweeps=max_sweeps)
    for start in range(0, m, step):
        if deadline is not None and deadline.expired():
            deadline.check(
                "streaming_fold", completed=stream.updates,
                total=(m + step - 1) // step,
            )
        stream.update(work[start:start + step])

    u = stream.u
    v = stream.v
    if transposed:
        u, v = v, u
    return StreamingResult(
        u=u,
        singular_values=stream.singular_values,
        v=v,
        sweeps=stream._sweeps,
        converged=True,
        updates=stream.updates,
    )
