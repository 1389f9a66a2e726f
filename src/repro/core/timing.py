"""Cycle-approximate timing simulation — the on-board stand-in.

The paper validates its analytical model against VCK190 measurements
(Tables IV and V).  Without the board, this module provides the
measurement side: an event-accurate simulation of the HeteroSVD
pipeline that resolves effects the analytical model only approximates:

* exact block-availability dependencies between consecutive block pairs
  (the model lumps them into ``t_algo``/``t_datawait``),
* per-layer heterogeneity: DMA-bearing transitions and chunk-crossing
  DMAs slow *specific* layers, not an averaged stage,
* DDR contention between task pipelines during the first iteration
  (blocks of a pair arrive sequentially from DDR, Eq. 12's origin),
* per-pair HLS loop-switch gaps and the result write-back.

The orth-layer chain is resolved with the exact tandem-queue recurrence
for deterministic service times: a pair entering at ``a_j`` leaves the
chain at ``max(a_j + traverse, e_{j-1} + bottleneck)`` where
``traverse`` is the sum and ``bottleneck`` the max of the per-layer
stage durations.  This is exact for a FIFO pipeline whose stage times
do not depend on the pair, and keeps the simulation O(num) per sweep.

Every static duration comes from the design point's
:class:`~repro.core.perf_model.PerformanceModel`, so a rescaled
calibration constant moves model and simulation alike, and their
disagreement measures the model's approximations only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.core.config import HeteroSVDConfig
from repro.core.perf_model import PerformanceModel
from repro.errors import SimulationError
from repro.linalg.block import block_pairs
from repro.sim.engine import Resource
from repro.sim.trace import Trace
from repro.units import FLOAT32_BITS
from repro.versal.noc import DDRChannel


@dataclass
class TimingResult:
    """Outcome of a timing simulation.

    Attributes:
        config: The simulated design point.
        n_tasks: Batch size simulated.
        iterations: Sweeps per task.
        task_times: End-to-end seconds of each task (end - its start).
        makespan: Batch completion time (the system time of Eq. 14).
        iteration_times: Per-iteration seconds of the first task; entry
            0 includes the DDR ramp-up.
        steady_iteration_time: Iteration time unaffected by DDR (the
            quantity Table IV reports).
        orth_utilization: Busy fraction of the placed orth-AIEs.
        plio_utilization: Busy fraction of the Tx streams.
        trace: Stage-level activity summary.
    """

    config: HeteroSVDConfig
    n_tasks: int
    iterations: int
    task_times: List[float]
    makespan: float
    iteration_times: List[float]
    steady_iteration_time: float
    orth_utilization: float
    plio_utilization: float
    trace: Trace = field(repr=False, default_factory=Trace)

    @property
    def latency(self) -> float:
        """Single-task latency (first task's end-to-end time)."""
        return self.task_times[0]

    @property
    def throughput(self) -> float:
        """Tasks per second over the batch."""
        return self.n_tasks / self.makespan


class TimingSimulator:
    """Event-accurate pipeline simulation of a HeteroSVD design point.

    Every static duration (Eq. 8's Tx/Rx streaming, the per-layer
    stages, the norm-kernel tail, the per-pair HLS gap, the DDR fetch
    at a given bandwidth share) and the sweep count are read from
    :attr:`model`; the simulator owns only what is dynamic: block
    availability, port queueing, DDR sharing and interleaving.

    Args:
        config: The design point.
        ddr: Shared DDR channel model (one per board).
        placement: Optional placed design; enables the distance-aware
            refinement of chunk-crossing stages.
        layer_slowdown: Per-layer slowdown factors (>= 1), keyed by
            orth-layer index.

    Attributes:
        model: The design point's :class:`PerformanceModel`.
    """

    def __init__(
        self,
        config: HeteroSVDConfig,
        ddr: Optional[DDRChannel] = None,
        placement=None,
        layer_slowdown: Optional[dict] = None,
    ):
        self.config = config
        self.ddr = ddr if ddr is not None else DDRChannel(config.device)
        self.placement = placement
        # What-if analysis: per-layer slowdown factors (>= 1) modelling
        # stragglers — thermal throttling, process variation, or a
        # derated tile.  Keys are orth-layer indices.
        self.layer_slowdown = dict(layer_slowdown or {})
        for layer, factor in self.layer_slowdown.items():
            if not 0 <= layer < config.orth_layers:
                raise SimulationError(
                    f"slowdown layer {layer} outside "
                    f"[0, {config.orth_layers})"
                )
            if factor < 1.0:
                raise SimulationError(
                    f"slowdown factor must be >= 1, got {factor} "
                    f"for layer {layer}"
                )
        self.model = PerformanceModel(config, placement)

    def stage_durations(self) -> List[float]:
        """Per-layer stage times (the model's), with any configured
        straggler slowdowns applied."""
        durations = list(self.model.stages)
        for layer, factor in self.layer_slowdown.items():
            durations[layer] *= factor
        return durations

    # -- simulation -------------------------------------------------------------
    def simulate(self, n_tasks: int = 1) -> TimingResult:
        """Simulate a batch of ``n_tasks`` over ``P_task`` pipelines."""
        if n_tasks < 1:
            raise SimulationError(f"n_tasks must be >= 1, got {n_tasks}")
        cfg = self.config
        model = self.model
        iters = model.iterations()
        trace = Trace(enabled=False)

        stages = self.stage_durations()
        traverse = sum(stages)
        bottleneck = max(stages)
        t_tx = model.t_tx()
        t_rx = model.t_rx()
        hls_gap = model.t_hls_switch()
        # One block on the norm Tx PLIO streams like one on a Tx PLIO.
        norm_block = t_tx
        norm_kernel = model.t_norm_kernel()
        pairs = block_pairs(cfg.n_blocks)
        # DDR contention: with P_task pipelines streaming concurrently,
        # each sees its bandwidth share.  (A fair-share rate model, not
        # a FIFO resource: tasks are simulated sequentially, so a shared
        # FIFO resource would serialize them spuriously.)  The first
        # iteration loads each task's matrix exactly once — blocks are
        # reused across pairs — so the per-pair DDR cost is the matrix
        # load amortized over ``num`` pairs.
        active_pipelines = min(cfg.p_task, n_tasks)
        ddr_share = self.ddr.bits_per_s / active_pipelines
        ddr_fetch = model.ddr_fetch(ddr_share)
        writeback = (cfg.m * cfg.n + cfg.n) * FLOAT32_BITS / ddr_share

        pipeline_free = [0.0] * cfg.p_task
        task_times: List[float] = []
        first_task_iterations: List[float] = []
        orth_busy_total = 0.0
        tx_busy_total = 0.0

        for task_index in range(n_tasks):
            pipe = task_index % cfg.p_task
            start = pipeline_free[pipe]
            tx_port = Resource(f"tx{task_index}")
            rx_port = Resource(f"rx{task_index}")
            ddr_port = Resource(f"ddr{task_index}")
            tx_port.free_at = start
            rx_port.free_at = start
            ddr_port.free_at = start

            avail = [start] * cfg.n_blocks
            prev_exit = start
            iteration_starts: List[float] = []
            iteration_ends: List[float] = []

            for iteration in range(iters):
                iter_start = None
                for u, v in pairs:
                    ready = max(avail[u], avail[v])
                    if iteration == 0:
                        # The task's DDR stream delivers the pair...
                        ready = ddr_port.serve(ready, ddr_fetch)
                        # ...and the two blocks arrive sequentially on
                        # the task's path, doubling the effective Tx
                        # time of the first iteration (Eq. 12).
                        tx_time = 2 * t_tx + hls_gap
                    else:
                        tx_time = t_tx + hls_gap
                    tx_end = tx_port.serve(ready, tx_time)
                    if iter_start is None:
                        iter_start = tx_end - tx_time
                    exit_time = max(tx_end + traverse, prev_exit + bottleneck)
                    prev_exit = exit_time
                    rx_end = rx_port.serve(exit_time, t_rx)
                    avail[u] = rx_end
                    avail[v] = rx_end
                iteration_starts.append(iter_start if iter_start is not None else start)
                iteration_ends.append(max(avail))
                trace.log("iteration", iteration_starts[-1], iteration_ends[-1])

            # Normalization: blocks stream sequentially through the norm
            # PLIOs; each block's columns are normalized in parallel by
            # the k norm-AIEs.
            t = max(avail)
            for _ in range(cfg.n_blocks):
                t += norm_block
            t += norm_kernel + norm_block  # kernel tail + result drain
            trace.log("norm", max(avail), t)

            # Result write-back to DDR (at the task's bandwidth share).
            end = ddr_port.serve(t, writeback)
            trace.log("writeback", t, end)

            pipeline_free[pipe] = end
            task_times.append(end - start)
            if task_index == 0:
                first_task_iterations = [
                    iteration_ends[i] - iteration_starts[i] for i in range(iters)
                ]
            orth_busy_total += iters * cfg.num_block_pairs * traverse
            tx_busy_total += tx_port.busy_time

        makespan = max(pipeline_free)
        # Orth utilization: busy AIE-seconds over available AIE-seconds.
        placed_orth = cfg.orth_aies_per_task * cfg.p_task
        orth_util = 0.0
        if makespan > 0 and placed_orth > 0:
            # Each stage occupies the k orth-AIEs of one layer.
            busy_aie_seconds = orth_busy_total * cfg.p_eng
            orth_util = min(
                1.0, busy_aie_seconds / (makespan * placed_orth)
            )
        plio_util = 0.0
        if makespan > 0:
            plio_util = min(1.0, tx_busy_total / (makespan * cfg.p_task))

        steady = (
            first_task_iterations[1]
            if len(first_task_iterations) > 1
            else first_task_iterations[0]
        )
        return TimingResult(
            config=cfg,
            n_tasks=n_tasks,
            iterations=iters,
            task_times=task_times,
            makespan=makespan,
            iteration_times=first_task_iterations,
            steady_iteration_time=steady,
            orth_utilization=orth_util,
            plio_utilization=plio_util,
            trace=trace,
        )

    def measure_iteration_time(self) -> float:
        """Single-iteration processing time (the Table IV measurement).

        Runs two sweeps and reports the second, which is free of the
        DDR ramp-up, matching the paper's steady-state measurement.
        """
        two_sweeps = TimingSimulator(
            replace(self.config, fixed_iterations=2),
            self.ddr,
            self.placement,
            self.layer_slowdown,
        )
        return two_sweeps.simulate(1).steady_iteration_time
