"""Versal ACAP hardware substrate model.

Models the slice of the VCK190 platform that HeteroSVD's co-design and
performance model depend on (paper Section II-B):

* :mod:`repro.versal.device` — device description and resource budgets.
* :mod:`repro.versal.tile` / :mod:`repro.versal.array` — the AIE array:
  tile grid, per-row mirrored core/memory topology, neighbour relations.
* :mod:`repro.versal.memory` — 4 x 8 KB memory banks per tile with an
  allocator.
* :mod:`repro.versal.communication` — the data-movement mechanisms of
  Fig. 1: neighbour memory access, DMA, and stream
  broadcast / dynamic packet forwarding.
* :mod:`repro.versal.plio` — PL<->AIE stream interfaces and bandwidth.
* :mod:`repro.versal.noc` — NoC/DDR channel model.
* :mod:`repro.versal.kernels` — cycle models of the orth/norm kernels.
"""

from repro.versal.device import VCK190, DeviceSpec
from repro.versal.tile import AIETile, MemorySide, TileKind
from repro.versal.array import AIEArray
from repro.versal.memory import MemoryBank, MemoryModule
from repro.versal.communication import (
    Transfer,
    TransferKind,
    classify_move,
    transfer_cycles,
)
from repro.versal.plio import PLIOPort, PLIODirection
from repro.versal.noc import DDRChannel
from repro.versal.kernels import orth_kernel_cycles, norm_kernel_cycles

__all__ = [
    "VCK190",
    "DeviceSpec",
    "AIETile",
    "MemorySide",
    "TileKind",
    "AIEArray",
    "MemoryBank",
    "MemoryModule",
    "Transfer",
    "TransferKind",
    "classify_move",
    "transfer_cycles",
    "PLIOPort",
    "PLIODirection",
    "DDRChannel",
    "orth_kernel_cycles",
    "norm_kernel_cycles",
]
