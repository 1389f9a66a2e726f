"""Joint functional + timing co-simulation at per-layer granularity.

:mod:`repro.core.accelerator` computes *what* the hardware produces;
:mod:`repro.core.timing` computes *when*, collapsing the orth-layer
chain into the tandem-queue recurrence
``exit = max(entry + traverse, prev_exit + bottleneck)``.  This module
does neither shortcut: every block pair is pushed through every
orth-layer as an individual FIFO-resource service carrying real column
data, and the per-layer events are replayed on the discrete-event
engine.

That buys two cross-checks the separated models cannot provide:

* the co-simulated ``U`` and singular values must equal the functional
  accelerator's bit for bit (same round kernel,
  :func:`repro.linalg.hestenes._sweep_pairs_indexed`, on the same
  rotation schedule), and
* the co-simulated makespan validates the timing simulator's collapsed
  recurrence against the brute-force per-layer interleaving (the
  recurrence is exact for deterministic homogeneous stages; the
  co-simulation confirms it on the *heterogeneous* stage profiles the
  DMA classification and chunk crossings produce).

The cost is speed — one resource service and one engine event per pair
per layer — so the co-simulation targets small and medium sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.perf_model import COLUMN_GAP_PL_CYCLES, orth_stage_durations
from repro.core.placement import Placement, place
from repro.errors import NumericalError
from repro.linalg.block import (
    BlockPartition,
    block_pair_round_indices,
    block_pairs,
)
from repro.linalg.convergence import zero_column_threshold_sq
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    round_workspace,
    stack_panels,
)
from repro.pl.hls import HLS_LOOP_SWITCH_CYCLES
from repro.sim.engine import Resource, SimulationEngine
from repro.sim.trace import Trace
from repro.units import FLOAT32_BITS
from repro.versal.kernels import norm_kernel_cycles


@dataclass
class CoSimResult:
    """Output of a co-simulation run.

    Attributes:
        u / sigma: The factorization (descending singular values).
        iterations: Orthogonalization sweeps executed.
        converged: Whether the precision target was met.
        makespan: End-to-end simulated seconds.
        kernel_events: Orth-layer executions simulated (and replayed on
            the event engine).
        layer_utilization: Busy fraction of the busiest orth-layer.
        trace: Per-stage activity aggregation.
    """

    u: np.ndarray
    sigma: np.ndarray
    iterations: int
    converged: bool
    makespan: float
    kernel_events: int
    layer_utilization: float
    trace: Trace = field(repr=False, default_factory=Trace)


class CoSimulator:
    """Per-layer functional/timing co-simulation of one HeteroSVD task.

    Args:
        config: The design point.
        placement: Optional placed design for distance-aware timing; a
            fresh placement is derived otherwise.
    """

    def __init__(
        self, config: HeteroSVDConfig, placement: Optional[Placement] = None
    ):
        self.config = config
        self.placement = placement if placement is not None else place(config)
        accel = HeteroSVDAccelerator(config, placement=self.placement)
        self._ordering = accel._ordering
        self._mode = accel._mode
        self._schedule = accel._schedule
        self._dtype = accel._dtype

    def _t_tx_pair(self) -> float:
        cfg = self.config
        cycles = (
            cfg.p_eng * cfg.m * FLOAT32_BITS / cfg.device.plio_width_bits
            + cfg.p_eng * COLUMN_GAP_PL_CYCLES
        )
        return cycles / cfg.pl_frequency_hz

    def run(self, matrix: np.ndarray) -> CoSimResult:
        """Co-simulate one SVD task with real data.

        Raises:
            NumericalError: for shape/validity violations (same contract
                as the functional accelerator).
        """
        cfg = self.config
        matrix = np.asarray(matrix, dtype=self._dtype)
        if matrix.shape != (cfg.m, cfg.n):
            raise NumericalError(
                f"matrix shape {matrix.shape} does not match configured "
                f"{(cfg.m, cfg.n)}"
            )
        if not np.all(np.isfinite(matrix)):
            raise NumericalError("input matrix contains non-finite entries")

        partition = BlockPartition(cfg.n, cfg.block_width)
        pairs = block_pairs(partition.n_blocks)
        # One ordering round per orth-layer: the round kernel's ``idx``
        # over the ``2k`` local columns of a block pair's panel.
        layer_indices = block_pair_round_indices(
            [range(cfg.pair_cols)], self._ordering
        )
        work = round_workspace((cfg.m, cfg.pair_cols), self._dtype)
        stages = orth_stage_durations(
            cfg, self._schedule, self._mode, self.placement
        )
        t_tx = self._t_tx_pair()
        t_rx = t_tx
        hls_gap = HLS_LOOP_SWITCH_CYCLES / cfg.pl_frequency_hz
        precision = cfg.precision

        working = matrix.copy()
        zero_sq = zero_column_threshold_sq(
            float(np.linalg.norm(matrix)), self._dtype
        )
        engine = SimulationEngine()
        trace = Trace(enabled=False)
        tx_port = Resource("tx")
        rx_port = Resource("rx")
        layer_ports = [Resource(f"layer{i}") for i in range(cfg.orth_layers)]
        block_avail = [0.0] * partition.n_blocks

        budget = cfg.fixed_iterations if cfg.fixed_iterations is not None else 60
        iterations = 0
        converged = False
        kernel_events = 0
        last_rx = 0.0

        while True:
            worst_ratio = 0.0
            for pair in pairs:
                cols = partition.pair_columns(pair)
                ready = max(block_avail[pair[0]], block_avail[pair[1]])
                tx_end = tx_port.serve(ready, t_tx + hls_gap)
                trace.log("tx", tx_end - t_tx - hls_gap, tx_end)

                # The pair's data travels layer by layer: each layer is
                # a FIFO resource executing the round's slot-parallel
                # rotations (functional: one round-kernel call on the
                # pair's panel) for its stage duration (timing).
                data = stack_panels([working[:, cols]])
                entry = tx_end
                for layer in range(cfg.orth_layers):
                    exit_time = layer_ports[layer].serve(entry, stages[layer])
                    ratios, _ = _sweep_pairs_indexed(
                        data, cfg.m, layer_indices[layer], precision,
                        zero_sq, work,
                    )
                    layer_worst = float(ratios.max(initial=0.0))
                    if layer_worst > worst_ratio:
                        worst_ratio = layer_worst
                    kernel_events += 1
                    trace.log("orth_layer", exit_time - stages[layer], exit_time)
                    engine.schedule(
                        max(0.0, exit_time - engine.now),
                        lambda: None,
                        label=f"layer{layer}",
                    )
                    engine.run()
                    entry = exit_time

                rx_end = rx_port.serve(entry, t_rx)
                trace.log("rx", entry, rx_end)
                working[:, cols] = data
                block_avail[pair[0]] = rx_end
                block_avail[pair[1]] = rx_end
                last_rx = max(last_rx, rx_end)

            iterations += 1
            converged = worst_ratio < precision
            if cfg.fixed_iterations is not None:
                if iterations >= cfg.fixed_iterations:
                    break
            elif converged or iterations >= budget:
                break

        # Normalization stage (Eq. 7): blocks stream through the norm
        # PLIOs; the kernel tail and result drain follow the last block.
        norm_block = self._t_tx_pair()
        norm_kernel = (
            norm_kernel_cycles(cfg.m, 1, cfg.device)
            / cfg.device.aie_frequency_hz
        )
        makespan = (
            last_rx
            + partition.n_blocks * norm_block
            + norm_kernel
            + norm_block
        )
        trace.log("norm", last_rx, makespan)

        sigma = np.linalg.norm(working, axis=0)
        u = np.zeros_like(working)
        nonzero = sigma > 0
        u[:, nonzero] = working[:, nonzero] / sigma[nonzero]
        order = np.argsort(sigma)[::-1]
        horizon = makespan if makespan > 0 else 1.0
        busiest = max(
            (port.utilization(horizon) for port in layer_ports), default=0.0
        )
        return CoSimResult(
            u=u[:, order],
            sigma=sigma[order],
            iterations=iterations,
            converged=bool(converged),
            makespan=makespan,
            kernel_events=kernel_events,
            layer_utilization=busiest,
            trace=trace,
        )
