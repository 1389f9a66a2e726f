"""Shifting-ring movement schedule and DMA-count analytics (Fig. 3).

This module builds the *structural* movement schedule of a block-pair
sweep — which columns move where between the ``2k - 1`` orth-layers —
and counts the DMA transfers each ordering/dataflow combination incurs.
It reproduces the paper's headline co-design numbers:

* traditional ring ordering + naive dataflow: ``2k(k-1)`` DMAs,
* shifting ring ordering + relocated dataflow: ``2(k-1)`` DMAs,

for a block pair of ``2k`` columns (``k = P_eng``), e.g. 12 vs 4 for
the paper's ``m x 6`` example.

The movement pattern per transition follows the ring dataflow contract
the paper describes: each of the ``k`` slots passes one column straight
down and one column leftward, with the leftmost slot's column wrapping
around to the rightmost slot.  The *pair schedule* (which column pairs
are rotated — see :mod:`repro.linalg.orderings`) is mathematically
independent of this physical slot traffic; the hardware realizes the
schedule by choosing, per slot, which of its two rotated outputs takes
the straight port and which takes the ring port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.core.dataflow import (
    DataflowMode,
    Movement,
    MovementKind,
    classify_movement,
)
from repro.versal.communication import TransferKind


@dataclass(frozen=True)
class Transition:
    """All column movements between two consecutive orth-layers.

    Attributes:
        index: Transition number (0 moves layer 0's outputs to layer 1).
        into_even_row: Parity of the destination layer's AIE row.
        shifted: Whether the shifting-ring rotation applies here.
        movements: One entry per column of the block pair.
    """

    index: int
    into_even_row: bool
    shifted: bool
    movements: "tuple[Movement, ...]"

    def dma_count(self, mode: DataflowMode) -> int:
        """DMA transfers this transition needs under a dataflow mode."""
        return sum(
            1
            for mv in self.movements
            if classify_movement(mode, mv) is TransferKind.DMA
        )


@dataclass(frozen=True)
class MovementSchedule:
    """The full inter-layer traffic of one block-pair sweep.

    Immutable: the schedule is pure structure (no calibration constant
    enters it), so one instance per ``(k, shifting, first_row)`` is
    shared by every model, simulator and accelerator through
    :func:`movement_schedule`.

    Args:
        k: Slots per layer (``P_eng``); the block pair has ``2k``
            columns and the sweep ``2k - 1`` layers.
        shifting: Apply the shifting-ring slot rotation (the co-design)
            on transitions into even rows.
        first_row: AIE row hosting layer 0 (parity anchor; placements
            starting on an odd row flip which transitions are the
            expensive ones, not how many).
    """

    k: int
    shifting: bool = True
    first_row: int = 1
    transitions: "tuple[Transition, ...]" = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.first_row < 0:
            raise ConfigurationError(
                f"first_row must be >= 0, got {self.first_row}"
            )
        object.__setattr__(self, "transitions", self._build())

    @property
    def n_layers(self) -> int:
        """Orth-layers in the sweep (``2k - 1``)."""
        return 2 * self.k - 1

    @property
    def n_transitions(self) -> int:
        """Layer transitions (``2k - 2``)."""
        return self.n_layers - 1

    def _build(self) -> "tuple[Transition, ...]":
        transitions: List[Transition] = []
        for t in range(self.n_transitions):
            dest_row = self.first_row + t + 1
            into_even = dest_row % 2 == 0
            shifted = self.shifting and into_even
            movements: List[Movement] = []
            for slot in range(self.k):
                # One column of the slot's rotated pair goes straight
                # down to the same slot of the next layer...
                movements.append(
                    Movement(
                        column=2 * slot,
                        kind=MovementKind.STRAIGHT,
                        into_even_row=into_even,
                        shifted=shifted,
                    )
                )
                # ...the other follows the ring: one slot leftward,
                # wrapping at the array boundary.
                kind = MovementKind.WRAP if slot == 0 else MovementKind.LEFT
                movements.append(
                    Movement(
                        column=2 * slot + 1,
                        kind=kind,
                        into_even_row=into_even,
                        shifted=shifted,
                    )
                )
            transitions.append(
                Transition(
                    index=t,
                    into_even_row=into_even,
                    shifted=shifted,
                    movements=tuple(movements),
                )
            )
        return tuple(transitions)

    # -- analytics ----------------------------------------------------------
    def dma_count(self, mode: DataflowMode) -> int:
        """Total DMA transfers of one sweep under a dataflow mode."""
        return sum(t.dma_count(mode) for t in self.transitions)

    def neighbor_count(self, mode: DataflowMode) -> int:
        """Total neighbour accesses of one sweep under a dataflow mode."""
        total_movements = 2 * self.k * self.n_transitions
        return total_movements - self.dma_count(mode)

    def dma_memory_overhead_columns(self, mode: DataflowMode) -> int:
        """Extra column buffers DMA double-buffering needs per sweep.

        Each DMA copy requires a second buffer at the destination
        (Section II-B), which is what the mem-AIEs of the placement
        absorb.
        """
        return self.dma_count(mode)


#: Shared schedules by ``(k, shifting, first_row)``.
_SHARED_SCHEDULES: "Dict[Tuple[int, bool, int], MovementSchedule]" = {}


def movement_schedule(
    k: int, shifting: bool = True, first_row: int = 1
) -> MovementSchedule:
    """The shared :class:`MovementSchedule` for ``(k, shifting, first_row)``.

    Built on first request and returned as the same object ever after:
    a design-space sweep asks for a handful of distinct schedules
    thousands of times.
    """
    key = (k, shifting, first_row)
    schedule = _SHARED_SCHEDULES.get(key)
    if schedule is None:
        schedule = MovementSchedule(k=k, shifting=shifting, first_row=first_row)
        _SHARED_SCHEDULES[key] = schedule
    return schedule


def traditional_dma_transfers(k: int) -> int:
    """Paper's closed form for ring ordering + naive dataflow: ``2k(k-1)``."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    return 2 * k * (k - 1)


def codesign_dma_transfers(k: int) -> int:
    """Paper's closed form for the co-design: ``2(k-1)``."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    return 2 * (k - 1)


def dma_reduction_factor(k: int) -> float:
    """Ratio of traditional to co-design DMA transfers (``k`` for k > 1)."""
    codesign = codesign_dma_transfers(k)
    if codesign == 0:
        return 1.0
    return traditional_dma_transfers(k) / codesign
