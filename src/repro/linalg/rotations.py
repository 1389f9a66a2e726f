"""Two-column Jacobi rotations (paper Eqs. 3-5).

The one-sided Hestenes-Jacobi method orthogonalizes a matrix column pair
``(a_i, a_j)`` by right-multiplying it with a plane rotation

.. math::

    [b_i, b_j] = [a_i, a_j] \\cdot J, \\qquad
    J = \\begin{bmatrix} c & s \\\\ -s & c \\end{bmatrix},

where ``c`` and ``s`` are chosen so that ``b_i^T b_j = 0``.  Following
the paper:

.. math::

    \\tau = \\frac{a_j^T a_j - a_i^T a_i}{2 |a_i^T a_j|}, \\qquad
    t = \\frac{\\operatorname{sign}(\\tau)}{|\\tau| + \\sqrt{1+\\tau^2}},

    c = \\frac{1}{\\sqrt{1+t^2}}, \\qquad
    s = \\operatorname{sign}(a_i^T a_j) \\, t \\, c.

``t`` is the smaller-magnitude root of ``t^2 + 2\\tau t - 1 = 0`` which
keeps the rotation angle below 45 degrees and guarantees convergence of
the sweep process.  Note the paper prints the rotation matrix with the
off-diagonal signs flipped; the convention implemented here is the one
for which the annihilation ``b_i^T b_j = 0`` actually holds with the
stated ``(c, s)`` formulas (verified algebraically and by unit test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import NumericalError

#: Column pairs whose inner product is this small *relative to the
#: product of the column norms* are treated as already orthogonal and
#: are not rotated.  The check must be relative, not absolute: a matrix
#: scaled by 1e-150 has Gram entries near 1e-300 while its columns can
#: still be highly correlated.
ORTHOGONALITY_EPS = 1e-18

#: Gram entries above this magnitude are brought back to unit scale by
#: an exact power-of-two rescale before the rotation formulas run.  The
#: rotation angle depends only on *ratios* of the Gram triple, so a
#: common scale factor changes nothing mathematically — but it keeps
#: ``beta - alpha``, ``2*|gamma|`` and ``tau`` inside the normal float64
#: range for inputs scaled to 1e±300.  Entries inside
#: ``[GRAM_SCALE_MIN, GRAM_SCALE_MAX]`` are left untouched, so results
#: for ordinarily-scaled matrices are bit-identical to the unscaled
#: formulas.
GRAM_SCALE_MAX = 2.0 ** 512

#: Lower bound of the no-rescale range (see :data:`GRAM_SCALE_MAX`).
#: Below it, squared norms sit in or near the denormal range where the
#: relative orthogonality test and ``tau`` lose precision.
GRAM_SCALE_MIN = 2.0 ** -512


def _rescale_gram_scalar(
    alpha: float, beta: float, gamma: float
) -> "tuple[float, float, float]":
    """Exactly rescale an out-of-range Gram triple to unit scale.

    Multiplies all three entries by the power of two that brings the
    peak magnitude into ``[0.5, 1)``.  ``ldexp`` only adjusts the
    exponent field, so the rescale is exact and the rotation computed
    from the scaled triple equals the one from the original (Eq. 3 is
    scale-invariant).  In-range triples are returned unchanged.
    """
    peak = max(alpha, beta, abs(gamma))
    if peak == 0.0 or GRAM_SCALE_MIN <= peak <= GRAM_SCALE_MAX:
        return alpha, beta, gamma
    exponent = -math.frexp(peak)[1]
    return (
        math.ldexp(alpha, exponent),
        math.ldexp(beta, exponent),
        math.ldexp(gamma, exponent),
    )


@dataclass(frozen=True)
class JacobiRotation:
    """A plane rotation ``J = [[c, s], [-s, c]]`` acting on two columns.

    Attributes:
        c: Cosine of the rotation angle.
        s: Sine of the rotation angle (carries the sign of the inner
           product of the column pair, per Eq. 4).
        identity: True when no rotation is needed (pair already
           orthogonal); ``c == 1`` and ``s == 0`` in that case.
    """

    c: float
    s: float
    identity: bool = False

    def as_matrix(self) -> np.ndarray:
        """Return the 2x2 rotation matrix ``[[c, s], [-s, c]]``."""
        return np.array([[self.c, self.s], [-self.s, self.c]])


def compute_rotation(alpha: float, beta: float, gamma: float) -> JacobiRotation:
    """Compute the Jacobi rotation from the three Gram entries.

    Args:
        alpha: ``a_i^T a_i`` — squared norm of the left column.
        beta: ``a_j^T a_j`` — squared norm of the right column.
        gamma: ``a_i^T a_j`` — inner product of the pair.

    Returns:
        The rotation annihilating ``gamma``; the identity rotation when
        ``gamma`` is (numerically) zero.

    Raises:
        NumericalError: if any Gram entry is not finite or a squared
            norm is negative.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gamma)):
        raise NumericalError(
            f"non-finite Gram entries: alpha={alpha}, beta={beta}, gamma={gamma}"
        )
    if alpha < 0 or beta < 0:
        raise NumericalError(
            f"squared norms must be non-negative: alpha={alpha}, beta={beta}"
        )
    alpha, beta, gamma = _rescale_gram_scalar(alpha, beta, gamma)
    norm_product = math.sqrt(alpha) * math.sqrt(beta)
    if gamma == 0.0 or abs(gamma) <= ORTHOGONALITY_EPS * norm_product:
        return JacobiRotation(c=1.0, s=0.0, identity=True)

    tau = (beta - alpha) / (2.0 * abs(gamma))
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = math.copysign(1.0, gamma) * t * c
    return JacobiRotation(c=c, s=s)


def compute_rotations_batch(
    alpha: np.ndarray,
    beta: np.ndarray,
    gamma: np.ndarray,
    *,
    norm_product: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Vectorized :func:`compute_rotation` over arrays of Gram entries.

    This is the software analogue of what one *row* of orth-AIEs does in
    hardware: every AIE of the layer computes its rotation angle from
    its own pair's Gram entries, all at the same time.  Batching is
    valid because the pairs of one parallel-ordering round are disjoint
    by construction — no column appears in two pairs, so no rotation
    reads Gram entries another rotation of the same round invalidates
    (see :mod:`repro.linalg.orderings`).

    Lanes are independent: each runs the same element-wise operations
    whichever other lanes share the call.  The entries are upcast to
    float64 first (a float32 datapath gets float64 angles).  The
    finiteness and rescale checks read one ``peak = max(alpha, beta,
    |gamma|)`` vector, reduced once each way.

    Args:
        alpha: 1-D array, ``a_i^T a_i`` per pair.
        beta: 1-D array, ``a_j^T a_j`` per pair.
        gamma: 1-D array, ``a_i^T a_j`` per pair.
        norm_product: ``sqrt(alpha) * sqrt(beta)`` when the caller has
            it already (the round kernel shares it with
            :func:`~repro.linalg.convergence.pair_convergence_ratios`);
            recomputed for lanes that need the power-of-two rescale.

    Returns:
        ``(c, s, identity)`` arrays of the same length: cosines, sines,
        and the boolean mask of pairs that need no rotation (already
        orthogonal under the same relative :data:`ORTHOGONALITY_EPS`
        test as the scalar path).  Identity entries carry ``c=1, s=0``.

    Raises:
        NumericalError: if any Gram entry is non-finite or any squared
            norm is negative (same contract as the scalar routine).
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    abs_gamma = np.abs(gamma)
    peak = np.maximum(alpha, beta)
    np.maximum(peak, abs_gamma, out=peak)
    # A NaN anywhere propagates into ``top``; -inf or a negative norm
    # shows in ``floor``.
    top = np.maximum.reduce(peak, initial=0.0)
    floor = np.minimum.reduce(np.minimum(alpha, beta), initial=0.0)
    if not (math.isfinite(top) and floor >= 0.0):
        raise _gram_error(alpha, beta, gamma)
    if top > GRAM_SCALE_MAX or (
        np.minimum.reduce(peak, initial=GRAM_SCALE_MIN) < GRAM_SCALE_MIN
    ):
        # Same exact power-of-two rescale as the scalar path; lanes in
        # the safe range (or all zero) get exponent 0, and ldexp(x, 0)
        # is bit-identical.
        needs_rescale = (peak > GRAM_SCALE_MAX) | (
            (peak > 0.0) & (peak < GRAM_SCALE_MIN)
        )
        exponent = np.where(needs_rescale, -np.frexp(peak)[1], 0)
        alpha = np.ldexp(alpha, exponent)
        beta = np.ldexp(beta, exponent)
        gamma = np.ldexp(gamma, exponent)
        abs_gamma = np.abs(gamma)
        norm_product = None
    if norm_product is None:
        norm_product = np.sqrt(alpha) * np.sqrt(beta)
    # ``gamma == 0`` needs no test of its own: |0| <= eps * (x >= 0).
    identity = abs_gamma <= ORTHOGONALITY_EPS * norm_product
    # Compute tau only where a rotation happens; identity slots get a
    # harmless placeholder denominator to avoid divide-by-zero warnings.
    denominator = 2.0 * abs_gamma
    denominator[identity] = 2.0
    tau = beta - alpha
    tau /= denominator
    t = np.copysign(1.0, tau)
    t /= np.abs(tau) + np.hypot(1.0, tau)
    c = np.hypot(1.0, t)
    np.divide(1.0, c, out=c)
    s = np.copysign(1.0, gamma)
    s *= t
    s *= c
    c[identity] = 1.0
    s[identity] = 0.0
    return c, s, identity


def _gram_error(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> NumericalError:
    """The :func:`compute_rotations_batch` error for bad Gram entries."""
    if not (
        np.isfinite(alpha).all()
        and np.isfinite(beta).all()
        and np.isfinite(gamma).all()
    ):
        return NumericalError(
            "non-finite Gram entries in batched rotation computation"
        )
    return NumericalError(
        "squared norms must be non-negative in batched rotation "
        "computation"
    )


def apply_rotation(
    ai: np.ndarray, aj: np.ndarray, rotation: JacobiRotation
) -> "tuple[np.ndarray, np.ndarray]":
    """Apply ``[b_i, b_j] = [a_i, a_j] J`` and return the rotated pair.

    The inputs are not modified; fresh arrays are returned.  This is the
    operation each orth-AIE kernel performs on a streamed column pair.
    """
    if rotation.identity:
        return ai.copy(), aj.copy()
    bi = rotation.c * ai - rotation.s * aj
    bj = rotation.s * ai + rotation.c * aj
    return bi, bj


def rotate_pair(ai: np.ndarray, aj: np.ndarray) -> "tuple[np.ndarray, np.ndarray, JacobiRotation]":
    """Orthogonalize a column pair in one call.

    Convenience wrapper combining the Gram computation (three dot
    products, the dominant AIE workload), :func:`compute_rotation`, and
    :func:`apply_rotation`.

    Returns:
        ``(b_i, b_j, rotation)`` with ``b_i^T b_j ~ 0``.
    """
    alpha = float(ai @ ai)
    beta = float(aj @ aj)
    gamma = float(ai @ aj)
    rotation = compute_rotation(alpha, beta, gamma)
    bi, bj = apply_rotation(ai, aj, rotation)
    return bi, bj, rotation
