"""Comparison baselines.

The paper compares HeteroSVD against the strongest published FPGA and
GPU SVD implementations:

* :mod:`repro.baselines.fpga_bcv` — the ultra-parallel BCV-Jacobi FPGA
  solver of Hu et al. [6] on a XC7V690T (Table II baseline).
* :mod:`repro.baselines.gpu_wcycle` — the W-cycle batched Jacobi SVD of
  Xiao et al. [11] on a GeForce RTX 3090 (Table III / Fig. 9 baseline).
* :mod:`repro.baselines.cpu_numpy` — LAPACK via numpy, for software
  context in the examples.

Neither baseline system is available to run, so both are analytical
behavioural models calibrated once against the numbers their papers /
Table II-III report; the calibration constants are documented inline
and in EXPERIMENTS.md.
"""

from repro.baselines.fpga_bcv import FPGABaselineModel, FPGA_RESOURCES
from repro.baselines.gpu_wcycle import GPUBaselineModel, RTX3090
from repro.baselines.cpu_numpy import lapack_svd_seconds

__all__ = [
    "FPGABaselineModel",
    "FPGA_RESOURCES",
    "GPUBaselineModel",
    "RTX3090",
    "lapack_svd_seconds",
]
