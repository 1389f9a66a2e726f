"""Compiled (Numba) kernel tier for the Jacobi round loop.

``strategy="native"`` runs the same whole-round sweep the vectorized
NumPy path performs — Gram triple, convergence test, rotation angle,
column update, for every disjoint pair of an ordering round — as one
fused, JIT-compiled loop.  Where the vectorized path gathers the round
into a panel, makes whole-panel passes for the Gram ``einsum`` and the
update, and scatters the panel back (each a full pass over the data),
the native kernel streams every column pair exactly once: Gram
accumulation, rotation, and update happen in registers while the pair
is hot in cache.  That is the same fusion argument the HeteroSVD
orth-AIE kernel makes in hardware (one 58-cycle FMACS bucket instead
of separate load/compute/store passes); its speed-up over the
vectorized tier is a target, not a measured figure (see
docs/performance.md).

The module degrades gracefully along two axes:

* **Numba absent** — importing this module never fails.  ``njit``
  becomes a no-op decorator, so the kernel below remains a plain
  Python function (used by the parity tests to pin its arithmetic
  without a compiler), and :func:`available` returns False so
  :func:`~repro.linalg.hestenes.resolve_strategy` routes ``"auto"``
  and explicit ``"native"`` requests to the vectorized tier instead of
  raising.  The public wrapper likewise delegates to the NumPy round
  kernel, so calling it without Numba is correct, just not compiled.
* **Explicitly disabled** — setting the ``HETEROSVD_NO_NATIVE``
  environment variable (to anything but ``""``/``"0"``) forces the
  probe to report unavailability even with Numba installed; CI uses it
  to pin the fallback leg, and operators can use it to rule the JIT
  out when chasing a numerical discrepancy.

**Parity contract**: :func:`_sweep_kernel` is the compiled mirror of
the per-pair reference kernel
:func:`repro.linalg.hestenes._sweep_pairs_scalar` (Eqs. 5-6 through
:func:`repro.linalg.rotations.compute_rotation`) and takes the calling
form of the vectorized round kernel
:func:`repro.linalg.hestenes._sweep_pairs_indexed`: the same stacked
Fortran-order ``W = [B; V]`` with the Gram triple
taken from its first ``m`` rows: the ``zero_sq`` dead-column floor and
Eq. 6 ratio with the ``sqrt(alpha) * sqrt(beta)`` denominator, the
exact power-of-two Gram rescale
(:data:`~repro.linalg.rotations.GRAM_SCALE_MAX` range gating), the
relative :data:`~repro.linalg.rotations.ORTHOGONALITY_EPS` identity
test, and one rotation applied to a column's ``B`` and ``V`` rows
alike.  Where the vectorized kernel gathers the round into a panel and
scatters it back, this one updates ``W`` in place pair by pair, as the
scalar reference does.  The tiers agree to floating-point summation order (the dot products
accumulate sequentially here versus NumPy's ``einsum`` and BLAS order; singular
values agree to ~1e-14 relative and sweep counts are identical on the
parity suite).
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.linalg.rotations import (
    GRAM_SCALE_MAX,
    GRAM_SCALE_MIN,
    ORTHOGONALITY_EPS,
)

#: Environment variable that force-disables the compiled tier.
DISABLE_ENV_VAR = "HETEROSVD_NO_NATIVE"


def _disabled_by_env() -> bool:
    return os.environ.get(DISABLE_ENV_VAR, "").strip() not in ("", "0")


try:
    if _disabled_by_env():
        raise ImportError(f"native tier disabled via {DISABLE_ENV_VAR}")
    from numba import njit  # type: ignore[import-not-found]

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via monkeypatching
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-op ``@njit`` stand-in: keeps the kernels importable (and
        testable as plain Python) when Numba is not installed."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


def available() -> bool:
    """True when the compiled tier can actually execute.

    This is the availability probe behind
    :func:`~repro.linalg.hestenes.resolve_strategy`: Numba importable
    and not disabled via :data:`DISABLE_ENV_VAR`.  Tests monkeypatch
    :data:`NUMBA_AVAILABLE` to pin both outcomes.
    """
    return NUMBA_AVAILABLE and not _disabled_by_env()


@njit(cache=True)
def _sweep_kernel(w, m, idx, precision, floors):  # pragma: no cover
    """Fused whole-round sweep: Gram + convergence + rotate + update.

    The compiled mirror of the round kernels in
    :mod:`repro.linalg.hestenes` (same arguments as
    :func:`~repro.linalg.hestenes._sweep_pairs_indexed`, minus the
    workspace): for each
    disjoint pair ``(idx[p], idx[k + p])`` of one ordering round,
    accumulate the Gram triple over the first ``m`` rows of ``w``,
    apply the pair's dead-column floor ``floors[p]`` and the Eq. 6
    convergence test, and — for pairs at or above ``precision`` —
    compute the
    rotation (with the same range-gated rescale and relative identity
    test as ``compute_rotation``) and apply it to every row of the
    pair's two columns, ``B`` and ``V`` alike, in place.

    Returns ``(ratios, rotations)`` with the scalar kernel's
    accounting: every pair's pre-rotation ratio, and ``rotations``
    counting pairs that met the precision gate, whether or not the
    angle came out as the identity.
    """
    rows = w.shape[0]
    k = idx.shape[0] // 2
    ratios = np.zeros(k)
    count = 0
    for p in range(k):
        i = idx[p]
        j = idx[k + p]
        alpha = 0.0
        beta = 0.0
        gamma = 0.0
        for r in range(m):
            wi = w[r, i]
            wj = w[r, j]
            alpha += wi * wi
            beta += wj * wj
            gamma += wi * wj
        floor = floors[p]
        if alpha <= floor or beta <= floor or alpha <= 0.0 or beta <= 0.0:
            ratio = 0.0
        else:
            denominator = math.sqrt(alpha) * math.sqrt(beta)
            ratio = abs(gamma) / denominator if denominator > 0.0 else 0.0
        ratios[p] = ratio
        if ratio < precision:
            continue
        count += 1
        peak = alpha if alpha > beta else beta
        abs_gamma = abs(gamma)
        if abs_gamma > peak:
            peak = abs_gamma
        if peak != 0.0 and (peak > GRAM_SCALE_MAX or peak < GRAM_SCALE_MIN):
            exponent = -math.frexp(peak)[1]
            alpha = math.ldexp(alpha, exponent)
            beta = math.ldexp(beta, exponent)
            gamma = math.ldexp(gamma, exponent)
        norm_product = math.sqrt(alpha) * math.sqrt(beta)
        if gamma == 0.0 or abs(gamma) <= ORTHOGONALITY_EPS * norm_product:
            # Identity angle: counted (the precision gate passed) but
            # nothing to apply — matches the scalar kernel, where
            # apply_rotation on an identity rotation is a no-op copy.
            continue
        tau = (beta - alpha) / (2.0 * abs(gamma))
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        c = 1.0 / math.hypot(1.0, t)
        s = math.copysign(1.0, gamma) * t * c
        for r in range(rows):
            wi = w[r, i]
            wj = w[r, j]
            w[r, i] = c * wi - s * wj
            w[r, j] = s * wi + c * wj
    return ratios, count


def sweep_pairs_indexed(
    w: np.ndarray,
    m: int,
    idx: np.ndarray,
    precision: float,
    zero_sq: "float | np.ndarray",
    work: "tuple[np.ndarray, np.ndarray]",
) -> "tuple[np.ndarray, int]":
    """Native-tier drop-in for ``hestenes._sweep_pairs_indexed``.

    Same calling form and accounting as the vectorized routine; the
    drivers select it when the resolved strategy is ``"native"``.  The
    compiled kernel updates ``w`` in place and leaves ``work`` unused;
    a single ``zero_sq`` is spread to one floor per pair for it.
    Without Numba (the resolver should not route here then, but direct
    callers exist), delegates to the NumPy implementation.
    """
    if not available():
        from repro.linalg.hestenes import _sweep_pairs_indexed

        return _sweep_pairs_indexed(w, m, idx, precision, zero_sq, work)
    floors = np.ascontiguousarray(
        np.broadcast_to(np.asarray(zero_sq, dtype=np.float64),
                        (idx.size // 2,))
    )
    ratios, count = _sweep_kernel(w, int(m), idx, float(precision), floors)
    return ratios, int(count)
