"""Cycle models of the AIE kernels (orth-AIE and norm-AIE).

The paper's performance model consumes per-kernel execution times
"estimated by the AIE simulator in advance" (Section IV-B).  We replace
the vendor simulator with an analytic vector-ISA model: an AIE1 core
retires 8 fp32 multiply-accumulates per cycle, and the kernels are
simple streaming loops, so cycle counts follow from operation counts
plus fixed overheads (lock acquisition, loop prologue, the scalar
rotation math of Eqs. 4-5).

Operation budget of one orthogonalization (column length ``m``):

* three dot products ``a_i.a_i``, ``a_j.a_j``, ``a_i.a_j`` — one fused
  pass of ``3 m`` MACs;
* the scalar rotation parameters ``tau, t, c, s`` — a fixed sequence of
  divides and square roots on the scalar unit;
* the rotation update ``[b_i, b_j] = [a_i, a_j] J`` — ``2 m`` multiplies
  and ``2 m`` MACs.

One normalization (per column): a squared-norm reduction, one scalar
square root, and a reciprocal-scaled copy (Eq. 7).

:class:`~repro.core.perf_model.PerformanceModel` turns these cycle
counts into seconds (``t_orth``, ``t_norm_kernel``) at the device's AIE
clock.

The fixed overheads were calibrated once so the end-to-end timing
simulation reproduces the magnitude of the paper's Table IV
measurements; they are ordinary constructor arguments, so experiments
can re-calibrate without touching library code.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.versal.device import DeviceSpec, VCK190

#: Cycles of scalar math for Eqs. 4-5 on the AIE scalar unit: three
#: divides (8 cycles each), two square roots (10 each), plus the
#: add/multiply/sign/abs chain.  Derived from the instruction-level
#: schedule in :mod:`repro.versal.aie_isa` (which the unit tests hold
#: this constant to).
ROTATION_SCALAR_CYCLES = 67

#: Accumulator setup, constant broadcasts and horizontal reductions
#: around the two vector passes (from the same ISA schedule).
VECTOR_SETUP_CYCLES = 12

#: Fixed per-kernel-invocation overhead: lock acquire/release, loop
#: prologue/epilogue, pointer setup.
KERNEL_OVERHEAD_CYCLES = 55

#: Overhead of a norm-kernel invocation (single input/output stream).
NORM_OVERHEAD_CYCLES = 40

#: Scalar square root + reciprocal for one sigma (Eq. 7) plus the
#: accumulator setup/reduction — derived from the ISA schedule in
#: :mod:`repro.versal.aie_isa`.
NORM_SCALAR_CYCLES = 23


def _vector_passes(m: int, lanes: int) -> int:
    """Cycles of one length-``m`` streaming pass at ``lanes`` elems/cycle."""
    return math.ceil(m / lanes)


def orth_kernel_cycles(m: int, device: DeviceSpec = VCK190) -> float:
    """AIE cycles to orthogonalize one column pair of length ``m``.

    Args:
        m: Column length (matrix row count).
        device: Supplies the vector width (MACs per cycle).

    Raises:
        ConfigurationError: for non-positive ``m``.
    """
    if m < 1:
        raise ConfigurationError(f"column length must be >= 1, got {m}")
    lanes = device.macs_per_cycle
    dot_cycles = 3 * _vector_passes(m, lanes)
    update_cycles = 4 * _vector_passes(m, lanes)
    return (
        dot_cycles
        + update_cycles
        + VECTOR_SETUP_CYCLES
        + ROTATION_SCALAR_CYCLES
        + KERNEL_OVERHEAD_CYCLES
    )


def norm_kernel_cycles(m: int, n_cols: int = 1, device: DeviceSpec = VCK190) -> float:
    """AIE cycles to normalize ``n_cols`` columns of length ``m`` (Eq. 7)."""
    if m < 1:
        raise ConfigurationError(f"column length must be >= 1, got {m}")
    if n_cols < 1:
        raise ConfigurationError(f"column count must be >= 1, got {n_cols}")
    lanes = device.macs_per_cycle
    per_column = (
        _vector_passes(m, lanes)  # squared-norm reduction (vfma pass)
        + _vector_passes(m, lanes)  # reciprocal-scaled copy (vmul pass;
        # loads and stores dual-issue with the compute slots)
        + NORM_SCALAR_CYCLES
    )
    return NORM_OVERHEAD_CYCLES + n_cols * per_column

