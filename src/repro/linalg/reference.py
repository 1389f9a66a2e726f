"""Golden-model error measures.

Every SVD implementation in this package is checked against
``numpy.linalg`` (LAPACK) through the metrics below;
:mod:`repro.validation` applies them to every solver's contract.
LAPACK runs at float64 (complex128 for complex input) on the same
values, so a float32 input is not charged the reference's own float32
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ValidationReport:
    """Accuracy metrics of a computed SVD against the input matrix.

    Attributes:
        reconstruction_error: ``||A - U S V^H||_F / ||A||_F`` (relative;
            absolute when ``A`` is zero).
        u_orthogonality: ``||U^H U - I||_max`` over the thin factor.
        v_orthogonality: ``||V^H V - I||_max``.
        singular_value_error: Max deviation of the computed spectrum
            from LAPACK's, scaled by the largest singular value.
    """

    reconstruction_error: float
    u_orthogonality: float
    v_orthogonality: float
    singular_value_error: float

    def within(self, tolerance: float) -> bool:
        """True when every metric is below ``tolerance``."""
        return (
            self.reconstruction_error < tolerance
            and self.u_orthogonality < tolerance
            and self.v_orthogonality < tolerance
            and self.singular_value_error < tolerance
        )


def _double(a: np.ndarray) -> np.ndarray:
    """``a`` at float64, or complex128 when it is complex."""
    a = np.asarray(a)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


def reference_singular_values(a: np.ndarray) -> np.ndarray:
    """LAPACK's spectrum of ``a`` at float64 (complex128), descending."""
    return np.linalg.svd(_double(a), compute_uv=False)


def reconstruction_error(
    a: np.ndarray, u: np.ndarray, s: np.ndarray, v: np.ndarray
) -> float:
    """Relative Frobenius reconstruction error of ``A ~ U diag(S) V^H``.

    ``A`` and ``S`` are first divided by ``max|A|``, so inputs scaled
    to 1e±300 neither overflow nor underflow the norms.
    """
    a = _double(a)
    s = np.asarray(s, dtype=float)
    peak = float(np.max(np.abs(a))) if a.size else 0.0
    if peak > 0:
        a = a / peak
        s = s / peak
    approx = (u * s) @ np.conj(v).T
    denom = np.linalg.norm(a)
    err = np.linalg.norm(a - approx)
    return float(err / denom) if denom > 0 else float(err)


def orthogonality_error(q: np.ndarray) -> float:
    """Max-norm deviation of ``Q^H Q`` from the identity.

    Columns with zero norm (padding of rank-deficient factorizations)
    are excluded: they carry no directional information.
    """
    norms = np.linalg.norm(q, axis=0)
    live = q[:, norms > 0]
    if live.shape[1] == 0:
        return 0.0
    gram = np.conj(live).T @ live
    return float(np.max(np.abs(gram - np.eye(live.shape[1]))))


def singular_value_error(a: np.ndarray, s: np.ndarray) -> float:
    """Max deviation of a computed spectrum from LAPACK, relative to ``s_max``.

    ``s`` is compared in descending order.  The error is ``inf`` when
    ``s`` does not hold exactly ``min(m, n)`` values, and NaN when it
    holds a NaN, so neither can pass a tolerance test.
    """
    s_ref = reference_singular_values(a)
    s = np.asarray(s, dtype=float)
    if s.shape != s_ref.shape:
        return float("inf")
    s_sorted = np.sort(s)[::-1]
    scale = s_ref[0] if len(s_ref) and s_ref[0] > 0 else 1.0
    return float(np.max(np.abs(s_sorted - s_ref)) / scale)


def validate_svd(
    a: np.ndarray, u: np.ndarray, s: np.ndarray, v: np.ndarray
) -> ValidationReport:
    """Full validation of one factorization against the golden model."""
    return ValidationReport(
        reconstruction_error=reconstruction_error(a, u, s, v),
        u_orthogonality=orthogonality_error(u),
        v_orthogonality=orthogonality_error(v),
        singular_value_error=singular_value_error(a, s),
    )
