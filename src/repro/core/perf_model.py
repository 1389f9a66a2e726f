"""Analytical performance model (paper Section IV-B, Eqs. 8-14).

The model decomposes one orthogonalization iteration into the pipeline
of Fig. 7 — data sending (Tx), orth-AIE execution, data receiving (Rx)
— plus the latency terms the paper identifies:

* ``t_Tx`` / ``t_Rx``: PLIO streaming time of one block pair (Eq. 8).
  Each block of the pair travels on its own PLIO at ``width`` bits per
  PL cycle, with a per-column packet overhead (header word plus
  dynamic-forwarding routing gap).
* ``t_AIEwait`` (Eq. 9): stall when the AIE-side pipeline's bottleneck
  stage exceeds the transmission interval, so new pairs wait for the
  array.  The bottleneck stage is one orthogonalization plus the
  inter-layer movement, which is where the co-design's DMA savings
  appear as time.
* ``t_algo`` (Eq. 10): the round-robin data dependency between an
  iteration's first transmission and the previous iteration's last
  receive.
* ``t_datawait`` (Eq. 11): drain stall when the pipeline empties before
  enough block pairs are available — dominant for small ``num``.
* ``t_DDR`` (Eq. 12): serialized block-pair loading during the first
  iteration.
* ``t_hls``: HLS loop-switch overhead (see :mod:`repro.pl.hls`).

The per-iteration and per-task compositions follow Eq. 13-14.  Note:
Eq. 13 as printed multiplies ``t_blocks`` by ``num - 1`` *and* folds
``num`` inside ``t_blocks``, which double-counts; we read it as the
pipelined composition ``t_iter = t_blocks + AIE_total + t_Rx`` (one
transmission period per pair, plus the drain of the last pair), which
reproduces the paper's measured magnitudes.

Calibration: the PLIO column gap (16 PL cycles) and the kernel
overheads in :mod:`repro.versal.kernels` were fitted once against the
magnitudes of the paper's Table IV; see EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import HeteroSVDConfig
from repro.core.dataflow import DataflowMode
from repro.core.ordering_codesign import MovementSchedule, movement_schedule
from repro.pl.hls import HLS_LOOP_SWITCH_CYCLES, loop_overhead_seconds
from repro.units import FLOAT32_BITS
from repro.versal.communication import TransferKind, transfer_cycles
from repro.versal.kernels import norm_kernel_cycles, orth_kernel_cycles
from repro.versal.noc import DDRChannel

#: Version of the performance-model semantics.  Bump whenever a change
#: to the model (equations, calibration constants, resource or power
#: coefficients) alters the numbers an evaluation produces: cached
#: evaluations in :mod:`repro.exec.cache` are keyed on this string, so
#: a bump invalidates every persisted result at once.
MODEL_VERSION = "1"

#: Per-column packet overhead on a PLIO stream, in PL cycles: one
#: header word plus the dynamic-forwarding routing gap (calibrated).
COLUMN_GAP_PL_CYCLES = 16


def orth_stage_durations(
    config: HeteroSVDConfig,
    schedule: MovementSchedule,
    mode: DataflowMode,
    placement=None,
) -> "list[float]":
    """Per-layer stage time of the orth pipeline, in seconds.

    A layer's stage is its kernel execution plus its outbound movement:
    neighbour accesses for aligned transitions, DMA where the
    classification demands it, and the full-pair DMA copy at chunk
    crossings (lane changes on the physical array).  The final layer
    drains through the Rx PLIOs, so it is kernel-only.  Read through
    :attr:`PerformanceModel.stages` by the analytical model (which needs
    the sum and the max) and the simulators (which pace every layer
    individually).

    Args:
        placement: Optional :class:`~repro.core.placement.Placement`;
            when given, chunk-crossing DMAs additionally pay the
            stream-network head latency of the actual route between the
            crossing layers' tiles (distance-aware refinement).
    """
    f_aie = config.device.aie_frequency_hz
    col_bits = config.m * FLOAT32_BITS
    t_orth = orth_kernel_cycles(config.m, config.device) / f_aie
    t_dma = transfer_cycles(TransferKind.DMA, col_bits) / f_aie
    t_nbr = transfer_cycles(TransferKind.NEIGHBOR, col_bits) / f_aie

    usable_rows = config.device.aie_rows - 2
    crossings = max(0, math.ceil(config.orth_layers / usable_rows) - 1)
    crossing_after = {usable_rows * (i + 1) - 1 for i in range(crossings)}

    durations = []
    for layer in range(config.orth_layers):
        stage = t_orth
        if layer < config.orth_layers - 1:
            transition = schedule.transitions[layer]
            if mode is DataflowMode.NAIVE and transition.into_even_row:
                # Every slot moves both of its columns by unplanned DMA
                # copies that the orth-AIEs must double-buffer: the
                # copies sit on the layer's critical path.
                stage += 2 * t_dma
            else:
                # Neighbour writes; the co-design's single wrap DMA per
                # transition drains through dedicated mem-AIE landing
                # buffers (the DMA-layers of Fig. 5) in parallel with
                # the next rotation, so it does not pace the layer.
                stage += 2 * t_nbr
            if layer in crossing_after:
                stage += 2 * t_dma
                stage += _crossing_head_latency(
                    placement, layer, f_aie
                )
        durations.append(stage)
    return durations


def _crossing_head_latency(placement, layer: int, f_aie: float) -> float:
    """Stream-network head latency of a chunk-crossing DMA, seconds.

    Zero without a placement (the flat model); with one, the actual
    dimension-ordered route between the crossing layers' slot-0 tiles
    is measured on the placed array.
    """
    if placement is None:
        return 0.0
    from repro.versal.interconnect import dma_route_cycles

    task = placement.tasks[0]
    src = task.orth.get((layer, 0))
    dst = task.orth.get((layer + 1, 0))
    if src is None or dst is None:
        return 0.0
    return dma_route_cycles(placement.array, src, dst) / f_aie


def estimated_iterations(n: int, precision: float = 1e-6) -> int:
    """Sweeps a one-sided Jacobi needs to converge at ``precision``.

    Fitted to the measured sweep counts of the software driver on
    Gaussian matrices: ``~log2(n) + 3`` at 1e-6, with roughly one extra
    sweep per four orders of magnitude of additional precision
    (quadratic convergence makes the precision dependence weak).
    """
    base = max(4, math.ceil(math.log2(max(2, n))) + 3)
    extra = max(0, math.ceil(math.log10(1e-6 / precision) / 4))
    return base + extra


def config_iterations(config: HeteroSVDConfig) -> int:
    """Sweep count of a design point: fixed for benchmarking, estimated
    otherwise."""
    if config.fixed_iterations is not None:
        return config.fixed_iterations
    return estimated_iterations(config.n, config.precision)


@dataclass(frozen=True)
class PerformanceBreakdown:
    """All model terms for one design point, in seconds.

    Mirrors the pipeline decomposition of Fig. 7 so the timing
    simulation's trace can be compared term by term.
    """

    t_tx: float
    t_rx: float
    t_orth: float
    t_stage: float
    t_aiewait: float
    t_algo: float
    t_period: float
    t_datawait: float
    t_ddr: float
    t_hls_per_iteration: float
    aie_total: float
    t_iter: float
    t_norm: float


def _max(a, b):
    """``max(a, b)``, elementwise when either operand is an array.

    On a tie ``max`` returns its first operand and ``np.maximum`` its
    second, which differ for ``-0.0`` against ``0.0``: the operands are
    swapped, so a lane keeps the bits ``max`` gives one point.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(b, a)
    return max(a, b)


def _where(condition, a, b):
    """``a if condition else b``, elementwise for an array condition."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def fair_ddr_share(device, p_task):
    """A pipeline's DDR bandwidth share, bits/s, with all ``P_task``
    pipelines loading concurrently."""
    return DDRChannel(device).bits_per_s / p_task


def _ddr_fetch(m, n, num, share_bits_per_s):
    """:meth:`PerformanceModel.ddr_fetch`, elementwise."""
    matrix_bits = m * n * FLOAT32_BITS
    return matrix_bits / _max(1, num) / share_bits_per_s


def _norm_kernel_seconds(m: int, device) -> float:
    """:meth:`PerformanceModel.t_norm_kernel` of column length ``m``."""
    return norm_kernel_cycles(m, 1, device) / device.aie_frequency_hz


def model_terms(
    m: int, device, p_eng, pl_frequency_hz, n, n_blocks, num, ddr_share,
    stage_max, stage_sum,
) -> PerformanceBreakdown:
    """Eqs. 8-13 of design points that share ``m`` and ``device``.

    The other arguments are Python scalars (one point: every field of
    the result is a Python float) or arrays with one lane per design
    point (a table: every field but the scalar ``t_orth`` is then an
    array of the points' values).  This is the model's one copy of these
    expressions: :class:`PerformanceModel` evaluates it on one point, a
    DSE sweep (:meth:`repro.core.dse.DesignSpaceExplorer.score`) on all
    of its points at once.  Straight-line, in dependency order; every
    expression keeps the operands and evaluation order the term
    methods document, and ``max`` and the ``num < 2`` cases go through
    :func:`_max` and :func:`_where`, so a lane of a table holds the
    bits of the same point evaluated alone.

    Args:
        n / n_blocks / num: Padded column count, blocks and block
            pairs per sweep.
        ddr_share: The pipeline's DDR bandwidth share, bits/s
            (:func:`fair_ddr_share`).
        stage_max / stage_sum: ``max`` and ``sum`` of the point's
            :attr:`PerformanceModel.stages`.
    """
    f_aie = device.aie_frequency_hz
    # Eq. 8, both directions.
    payload_cycles = p_eng * (m * FLOAT32_BITS) / device.plio_width_bits
    gap_cycles = p_eng * COLUMN_GAP_PL_CYCLES
    t_tx = (payload_cycles + gap_cycles) / pl_frequency_hz
    t_rx = t_tx
    t_orth = orth_kernel_cycles(m, device) / f_aie
    t_stage = stage_max
    aie_total = stage_sum
    # Eq. 9.
    t_aiewait = _max(t_stage - t_tx, 0.0)
    # Eq. 10.
    single = num < 2
    t_algo = _where(single, 0.0, t_tx + t_aiewait)
    # Steady-state initiation interval.
    reuse_gap = _max(1, n_blocks // 2)
    loop_delay = aie_total + t_rx + t_tx
    t_period = _max(t_tx + t_aiewait, loop_delay / reuse_gap)
    # Eq. 11.
    pipeline = aie_total + t_rx + t_algo
    t_datawait = _where(
        single, 0.0, _max(pipeline - (num - 1) * t_period, 0.0)
    )
    # Eq. 12, generalized.
    first_interval = _max(
        _max(_ddr_fetch(m, n, num, ddr_share), 2 * t_tx), t_period
    )
    t_ddr = num * (first_interval - t_period)
    # Eq. 13.
    t_blocks = (num - 1) * t_period + t_algo + t_datawait
    t_iter = t_blocks + t_tx + aie_total + t_rx
    # Normalization; U block + sigma return on the norm Rx PLIO.
    per_block_cycles = payload_cycles + gap_cycles
    stream = n_blocks * per_block_cycles / pl_frequency_hz
    kernel_tail = _norm_kernel_seconds(m, device)
    drain = per_block_cycles / pl_frequency_hz
    return PerformanceBreakdown(
        t_tx=t_tx,
        t_rx=t_rx,
        t_orth=t_orth,
        t_stage=t_stage,
        t_aiewait=t_aiewait,
        t_algo=t_algo,
        t_period=t_period,
        t_datawait=t_datawait,
        t_ddr=t_ddr,
        t_hls_per_iteration=loop_overhead_seconds(1, num, pl_frequency_hz),
        aie_total=aie_total,
        t_iter=t_iter,
        t_norm=stream + kernel_tail + drain,
    )


def task_time(terms: PerformanceBreakdown, iterations, num, pl_frequency_hz):
    """Eq. 14: end-to-end time of one SVD task, elementwise over a
    :func:`model_terms` table (or one point's breakdown)."""
    t_hls = loop_overhead_seconds(iterations, num, pl_frequency_hz)
    return terms.t_ddr + iterations * terms.t_iter + terms.t_norm + t_hls


def system_time(task_seconds, n_tasks, p_task):
    """Eq. 14: completion time of ``n_tasks`` over ``P_task`` pipelines
    (whole waves of ``task_seconds`` each), elementwise."""
    waves = -(-n_tasks // p_task)
    return waves * task_seconds


class PerformanceModel:
    """Latency/throughput estimator for one HeteroSVD design point.

    Every model term is evaluated once per instance, in :attr:`_terms`
    (:func:`model_terms` on this one point); the term methods read it.
    A DSE sweep evaluates the same function on all of its points at
    once (:meth:`repro.core.dse.DesignSpaceExplorer.score`).  The
    timing simulator and co-simulator take every static duration they
    pace from an instance of this class.  The caching rule: nothing
    that reads a calibration constant outlives one sweep.  The terms
    read constants that :mod:`repro.analysis.sensitivity` rescales in
    place between model builds, so this class memoises nothing across
    instances; a sweep keeps the stage durations it computed until it
    ends, and no longer.

    Args:
        config: The design point to model.
        placement: Optional placed design; enables the distance-aware
            refinement of chunk-crossing DMA latencies.
    """

    def __init__(self, config: HeteroSVDConfig, placement=None):
        self.config = config
        self.placement = placement
        self._schedule = movement_schedule(config.p_eng, config.use_codesign)
        self._mode = (
            DataflowMode.RELOCATED if config.use_codesign else DataflowMode.NAIVE
        )

    @functools.cached_property
    def _terms(self) -> PerformanceBreakdown:
        """Eqs. 8-13 of this design point: :func:`model_terms` on one
        point, each term computed once."""
        cfg = self.config
        return model_terms(
            cfg.m, cfg.device, cfg.p_eng, cfg.pl_frequency_hz, cfg.n,
            cfg.n_blocks, cfg.num_block_pairs,
            fair_ddr_share(cfg.device, cfg.p_task), *self.stage_totals,
        )

    # -- primitive terms -----------------------------------------------------
    @functools.cached_property
    def stages(self) -> "tuple[float, ...]":
        """Per-layer stage times of the orth pipeline, in seconds.

        :func:`orth_stage_durations` of this design point, computed
        once; a tuple, so a caller that reshapes it (the timing
        simulator's straggler slowdowns) works on its own copy.
        """
        return tuple(orth_stage_durations(
            self.config, self._schedule, self._mode, self.placement
        ))

    @property
    def stage_totals(self) -> "tuple[float, float]":
        """``max`` and ``sum`` of :attr:`stages` (the bottleneck stage
        and one pair's traversal), the two :func:`model_terms` reads."""
        stages = self.stages
        return max(stages), sum(stages)

    @property
    def column_bits(self) -> int:
        """Bits of one streamed column."""
        return self.config.m * FLOAT32_BITS

    def t_tx(self) -> float:
        """Eq. 8: Tx time of one block pair (both PLIOs in parallel)."""
        return self._terms.t_tx

    def t_rx(self) -> float:
        """Eq. 8 applied to the receive direction (symmetric design)."""
        return self._terms.t_rx

    def t_orth(self) -> float:
        """One column-pair orthogonalization on an orth-AIE."""
        return self._terms.t_orth

    def t_move(self) -> float:
        """Mean per-slot inter-layer movement time (2 columns).

        Averages the movement schedule's neighbour/DMA classification —
        the co-design's ``2k(k-1) -> 2(k-1)`` DMA reduction enters the
        timing model here.
        """
        cfg = self.config
        schedule = self._schedule
        if schedule.n_transitions == 0:
            return 0.0
        dma = schedule.dma_count(self._mode)
        total = 2 * cfg.p_eng * schedule.n_transitions
        neighbor = total - dma
        seconds = (
            dma * transfer_cycles(TransferKind.DMA, self.column_bits)
            + neighbor * transfer_cycles(TransferKind.NEIGHBOR, self.column_bits)
        ) / cfg.device.aie_frequency_hz
        # Movements within a transition happen on k slots in parallel;
        # each slot handles two columns.
        per_slot_transitions = schedule.n_transitions * cfg.p_eng
        return seconds / per_slot_transitions

    def t_stage(self) -> float:
        """Bottleneck stage of the orth pipeline: kernel + movement.

        The slowest layer paces the whole pipeline: a new block pair can
        enter only every ``t_stage`` once the array is full.
        """
        return self._terms.t_stage

    def t_aiewait(self) -> float:
        """Eq. 9: stall when the array is slower than transmission."""
        return self._terms.t_aiewait

    def t_algo(self) -> float:
        """Eq. 10: round-robin dependency latency.

        Zero for a single block pair: with nothing to re-pair, the
        round-robin dependency does not exist.
        """
        return self._terms.t_algo

    def t_period(self) -> float:
        """Steady-state initiation interval between block pairs.

        Three throttles compete: the transmission interval (Eq. 8 plus
        the AIE-wait of Eq. 9), and the round-robin data dependency —
        a block is reused roughly every ``p/2`` pairs (one tournament
        round), so a pair cannot start before its blocks returned from
        the previous round: the per-pair interval cannot drop below the
        full loop delay divided by the reuse distance (the steady-state
        form of Eq. 10's dependency).
        """
        return self._terms.t_period

    def aie_total(self) -> float:
        """Traversal time of one block pair through all orth-layers."""
        return self._terms.aie_total

    def t_datawait(self) -> float:
        """Eq. 11: drain stall for small block-pair counts.

        Zero for a single block pair (its passage is counted in full by
        the iteration composition, so there is nothing left to wait
        for).
        """
        return self._terms.t_datawait

    def ddr_fetch(self, share_bits_per_s: Optional[float] = None) -> float:
        """First-iteration DDR cost attributed to one block pair.

        The matrix is loaded once per task (blocks are reused across
        pairs), at the pipeline's share of the DDR bandwidth; amortized
        over the ``num`` block pairs of the first sweep.

        Args:
            share_bits_per_s: The pipeline's DDR bandwidth share.
                Defaults to the fair share with all ``P_task`` pipelines
                loading concurrently.
        """
        cfg = self.config
        if share_bits_per_s is None:
            share_bits_per_s = fair_ddr_share(cfg.device, cfg.p_task)
        return _ddr_fetch(cfg.m, cfg.n, cfg.num_block_pairs, share_bits_per_s)

    def t_ddr(self) -> float:
        """Eq. 12 generalized: extra first-iteration latency from DDR.

        During iteration one, a pair's two blocks arrive sequentially
        from DDR (an effective ``2 t_Tx`` transmission) and the fetch
        itself runs at the pipeline's DDR bandwidth share.  The extra
        cost over a steady-state iteration is the difference between
        the first-iteration pair interval and the steady interval.  For
        a single pipeline with ample DDR bandwidth this reduces to the
        paper's ``t_DDR = num * t_Tx``.
        """
        return self._terms.t_ddr

    def t_hls_switch(self) -> float:
        """One HLS loop-boundary crossing (the sender's per-pair gap)."""
        return HLS_LOOP_SWITCH_CYCLES / self.config.pl_frequency_hz

    def t_hls_per_iteration(self) -> float:
        """HLS loop-switch overhead attributable to one iteration."""
        return self._terms.t_hls_per_iteration

    def t_norm_kernel(self) -> float:
        """Norm-AIE kernel tail: one column's normalization (Eq. 7)."""
        return _norm_kernel_seconds(self.config.m, self.config.device)

    def t_norm(self) -> float:
        """Normalization stage: blocks stream through the norm PLIOs."""
        return self._terms.t_norm

    # -- compositions ----------------------------------------------------------
    def iteration_time(self) -> float:
        """Eq. 13: one orthogonalization sweep over all block pairs.

        ``num - 1`` initiation intervals plus the last pair's full
        passage (Tx + array traversal + Rx): exact in the streaming
        regime (interval = Tx) *and* in the dependency-bound regime of
        tiny block counts, where the interval is the whole loop delay
        and a trailing traversal term would double-count.
        """
        return self._terms.t_iter

    def iterations(self) -> int:
        """Sweep count: fixed for benchmarking, estimated otherwise."""
        return config_iterations(self.config)

    @functools.cached_property
    def _default_task_time(self) -> float:
        """:meth:`task_time` at :meth:`iterations` (computed once)."""
        return self._compose_task_time(self.iterations())

    def _compose_task_time(self, iters: int) -> float:
        cfg = self.config
        return task_time(
            self._terms, iters, cfg.num_block_pairs, cfg.pl_frequency_hz
        )

    def task_time(self, iterations: Optional[int] = None) -> float:
        """Eq. 14: end-to-end time of one SVD task."""
        if iterations is None:
            return self._default_task_time
        return self._compose_task_time(iterations)

    def system_time(self, n_tasks: int, iterations: Optional[int] = None) -> float:
        """Eq. 14: batch completion time over ``P_task`` pipelines."""
        if n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
        return system_time(
            self.task_time(iterations), n_tasks, self.config.p_task
        )

    def throughput(self, n_tasks: int, iterations: Optional[int] = None) -> float:
        """Tasks per second for a batch of ``n_tasks``."""
        return n_tasks / self.system_time(n_tasks, iterations)

    def breakdown(self) -> PerformanceBreakdown:
        """All model terms at once (for reporting and tests)."""
        return self._terms
