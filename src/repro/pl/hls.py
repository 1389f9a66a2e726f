"""HLS loop-overhead model (the paper's ``t_hls``).

High-level synthesis inserts extra cycles when control passes between
loops: the pipeline of the inner loop must flush before the outer loop
iterates (see UG1399).  The paper computes ``t_hls`` "based on the loop
structure in the code"; we model it as a fixed per-transition cost
multiplied by the number of loop boundary crossings a task executes.

For HeteroSVD's PL dataflow the relevant loop nest per task is::

    for iteration:              # ITER
        for block_pair:         # num
            for column_packet:  # 2k   (pipelined, II=1)

so one task crosses ``ITER * num`` inner-loop boundaries plus ``ITER``
outer boundaries, plus a handful of one-off stage transitions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Cycles lost per loop boundary crossing (pipeline flush + re-prime).
HLS_LOOP_SWITCH_CYCLES = 6

#: One-off transitions per task (start-up, orth->norm, norm->writeback).
HLS_FIXED_TRANSITIONS = 3


def _any(mask) -> bool:
    """Whether ``mask`` (a bool or an array of them) holds a True."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def loop_overhead_cycles(iterations, num_block_pairs):
    """Total HLS loop-switch cycles for one task (elementwise over
    arrays of tasks)."""
    if _any(iterations < 0) or _any(num_block_pairs < 0):
        raise ConfigurationError(
            f"negative loop counts: iterations={iterations}, "
            f"num={num_block_pairs}"
        )
    crossings = iterations * num_block_pairs + iterations + HLS_FIXED_TRANSITIONS
    return crossings * HLS_LOOP_SWITCH_CYCLES


def loop_overhead_seconds(iterations, num_block_pairs, pl_frequency_hz):
    """``t_hls`` in seconds at a given PL clock (elementwise)."""
    if _any(pl_frequency_hz <= 0):
        raise ConfigurationError(
            f"PL frequency must be positive, got {pl_frequency_hz}"
        )
    return loop_overhead_cycles(iterations, num_block_pairs) / pl_frequency_hz
