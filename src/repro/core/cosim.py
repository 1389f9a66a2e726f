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

from repro.core.accelerator import HeteroSVDAccelerator, checked_input
from repro.core.config import HeteroSVDConfig
from repro.core.perf_model import PerformanceModel
from repro.core.placement import Placement, place
from repro.guard.validate import postscale_singular_values
from repro.linalg.block import BlockPartition, block_pairs, sweep_schedule
from repro.linalg.convergence import zero_column_threshold_sq
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    round_workspace,
    stack_panels,
)
from repro.pl.system_module import Phase, SystemModule
from repro.sim.engine import Resource, SimulationEngine
from repro.sim.trace import Trace


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

    Stage, Tx/Rx and norm durations are read from :attr:`model`; the
    sweeps stop by the accelerator's own rule
    (:class:`~repro.pl.system_module.SystemModule`).

    Args:
        config: The design point.
        placement: Optional placed design for distance-aware timing; a
            fresh placement is derived otherwise.

    Attributes:
        model: The design point's :class:`PerformanceModel`.
    """

    def __init__(
        self, config: HeteroSVDConfig, placement: Optional[Placement] = None
    ):
        self.config = config
        self.placement = placement if placement is not None else place(config)
        accel = HeteroSVDAccelerator(config, placement=self.placement)
        self._ordering_cls = accel._ordering_cls
        self._dtype = accel._dtype
        self.model = PerformanceModel(config, self.placement)

    def run(self, matrix: np.ndarray) -> CoSimResult:
        """Co-simulate one SVD task with real data.

        Raises:
            NumericalError: for shape/validity violations (the
                accelerator's :func:`checked_input`, which also pre-scales
                extreme-magnitude inputs).
            SimulationError: if the sweeps do not converge within the
                system module's iteration bound (as the accelerator).
        """
        cfg = self.config
        matrix, scale_exponent = checked_input(matrix, cfg)

        partition = BlockPartition(cfg.n, cfg.block_width)
        pairs = block_pairs(partition.n_blocks)
        # One ordering round per orth-layer: the round kernel's ``idx``
        # over the ``2k`` local columns of a block pair's panel: the
        # memoized schedule of a two-block matrix.
        layer_indices = sweep_schedule(
            self._ordering_cls, cfg.pair_cols, cfg.block_width
        )
        work = round_workspace((cfg.m, cfg.pair_cols), self._dtype)
        model = self.model
        stages = model.stages
        t_tx = model.t_tx()
        t_rx = model.t_rx()
        hls_gap = model.t_hls_switch()
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

        system = SystemModule(
            precision=precision, fixed_iterations=cfg.fixed_iterations
        )
        kernel_events = 0
        last_rx = 0.0

        while system.phase is Phase.ORTHOGONALIZATION:
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

            system.report_iteration(worst_ratio)

        # Normalization stage (Eq. 7): blocks stream through the norm
        # PLIOs, one Tx time each; the kernel tail and result drain
        # follow the last block.
        makespan = (
            last_rx
            + partition.n_blocks * t_tx
            + model.t_norm_kernel()
            + t_tx
        )
        trace.log("norm", last_rx, makespan)
        system.report_normalization_done()

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
            sigma=postscale_singular_values(sigma[order], scale_exponent),
            iterations=system.iterations_completed,
            converged=system.converged,
            makespan=makespan,
            kernel_events=kernel_events,
            layer_utilization=busiest,
            trace=trace,
        )
