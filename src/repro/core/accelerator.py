"""Functional simulation of the HeteroSVD accelerator (Algorithm 1).

Executes the complete system of Fig. 2 with real data: the data
arrangement module splits the matrix into blocks and streams block
pairs; the sender packetizes columns with dynamic-forwarding headers
routed by the placement; the orth-AIEs run the shifting-ring sweep of
Jacobi rotations over each block pair; the receiver reassembles columns
and reduces the convergence rate; the system module iterates until the
precision target (or a fixed sweep budget) is met; finally the
norm-AIEs produce ``Sigma`` and ``U`` (Eq. 7).

Staging, packetization, reassembly and traffic accounting run per
block pair, as in hardware.  The rotations themselves run one
tournament round of block pairs at a time: those pairs touch disjoint
columns, and one ordering round maps onto one layer of orth-AIEs that
all rotate at once, so every ordering round of the whole tournament
round is one call of the block driver's batched round kernel
(:func:`repro.linalg.hestenes._sweep_pairs_indexed`).  The rotations
are the same as sweeping the block pairs one by one, and the result
equals ``svd(method="block", block_width=P_eng,
strategy="vectorized")`` bit for bit after the same number of sweeps.

The result must match ``numpy.linalg.svd`` — that equivalence is the
functional-correctness contract of the whole hardware model and is
enforced by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import HeteroSVDConfig
from repro.core.dataflow import DataflowMode
from repro.core.ordering_codesign import MovementSchedule
from repro.core.placement import Placement, place
from repro.core.routing import ForwardingRule, assign_plios
from repro.errors import NumericalError, SimulationError
from repro.linalg.block import block_pair_round_indices
from repro.linalg.convergence import zero_column_threshold_sq
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    round_workspace,
    stack_panels,
)
from repro.linalg.orderings import Ordering, RingOrdering, ShiftingRingOrdering
from repro.pl.data_arrangement import DataArrangement
from repro.pl.receiver import Receiver, reduce_convergence
from repro.pl.sender import Packet, Sender
from repro.pl.system_module import Phase, SystemModule


@dataclass
class TransferStats:
    """Inter-AIE traffic accounting of a full run.

    Attributes:
        dma_transfers: Total DMA column transfers across all sweeps.
        neighbor_transfers: Total neighbour column accesses.
        packets_sent: Column packets injected PL -> AIE.
        packets_received: Column packets drained AIE -> PL.
    """

    dma_transfers: int = 0
    neighbor_transfers: int = 0
    packets_sent: int = 0
    packets_received: int = 0
    #: Peak occupancy observed across the sender/receiver FIFOs.
    fifo_high_water: int = 0


@dataclass
class AcceleratorResult:
    """Output of one accelerated SVD task.

    Attributes:
        u: Left singular vectors (``m x n``), singular values descending.
        sigma: Singular values, descending.
        v: Right singular vectors when accumulation was requested.
        iterations: Orthogonalization sweeps executed.
        converged: Whether the precision target was met.
        convergence_history: Reduced convergence rate after each sweep.
        transfers: Traffic statistics.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: Optional[np.ndarray]
    iterations: int
    converged: bool
    convergence_history: List[float] = field(default_factory=list)
    transfers: TransferStats = field(default_factory=TransferStats)

    def reconstruct(self) -> np.ndarray:
        """``U diag(sigma) V^T`` (requires V accumulation)."""
        if self.v is None:
            raise SimulationError(
                "reconstruction requires accumulate_v=True at run time"
            )
        return (self.u * self.sigma) @ self.v.T


class HeteroSVDAccelerator:
    """Functional model of the full accelerator for one design point.

    Args:
        config: Design point; ``use_codesign`` selects the shifting ring
            ordering (vs the traditional ring) and the relocated
            dataflow for traffic accounting.
        placement: Optional pre-computed placement (a fresh one is
            derived from the config otherwise).
    """

    def __init__(
        self,
        config: HeteroSVDConfig,
        placement: Optional[Placement] = None,
        pipeline: int = 0,
    ):
        self.config = config
        self.placement = placement if placement is not None else place(config)
        self.plios = assign_plios(self.placement)
        if not 0 <= pipeline < len(self.placement.tasks):
            raise SimulationError(
                f"pipeline {pipeline} out of range; design has "
                f"{len(self.placement.tasks)} task pipelines"
            )
        #: Which placed task pipeline this instance models.
        self.pipeline = pipeline
        self._forwarding = ForwardingRule(self.placement.tasks[pipeline])
        self._sender = Sender(self._forwarding.route_orth)
        ordering_cls = ShiftingRingOrdering if config.use_codesign else RingOrdering
        self._ordering: Ordering = ordering_cls(config.pair_cols)
        self._schedule = MovementSchedule(
            k=config.p_eng, shifting=config.use_codesign
        )
        self._mode = (
            DataflowMode.RELOCATED if config.use_codesign else DataflowMode.NAIVE
        )
        #: Numeric type of the simulated datapath (fp32 on real AIEs).
        self._dtype = np.dtype(config.arithmetic)
        #: Stacked local round-kernel ``idx`` per ordering round over the
        #: ``p // 2`` block pairs of one tournament round (every round
        #: has that many, byes excluded).
        width = config.pair_cols
        self._round_indices = block_pair_round_indices(
            [range(g * width, (g + 1) * width) for g in range(config.n_blocks // 2)],
            self._ordering,
        )

    # -- AIE-side kernels -------------------------------------------------------
    def _orth_sweep(
        self,
        pair_data: List[np.ndarray],
        v_data: Optional[List[np.ndarray]],
        zero_sq: float,
        work: "tuple[np.ndarray, np.ndarray]",
    ) -> "tuple[np.ndarray, Optional[np.ndarray], float]":
        """Run the parallel-ordering sweep of one tournament round.

        ``pair_data`` holds the ``m x 2k`` panels of block pairs that
        touch disjoint columns.  They are stacked side by side, over
        their V columns when accumulating, in one fresh Fortran-order
        ``W = [B; V]`` (:func:`~repro.linalg.hestenes.stack_panels`),
        and each of the ordering's ``2k - 1`` rounds rotates every
        panel in one batched kernel call through the run's ``work``
        space: the same rotations, on the same data, as sweeping the
        block pairs one after another.

        Returns the stacked rotated panels (panel ``g`` in columns
        ``g*2k:(g+1)*2k``), the stacked rotated V columns (when
        accumulating), and the worst pre-rotation convergence ratio
        over the whole group — what the orth-AIEs report upstream
        (Algorithm 1, line 10).  Each block pair's receiver may thus be
        handed the group's worst ratio rather than its own; since
        :func:`~repro.pl.receiver.reduce_convergence` takes the max over
        block pairs, the iteration's convergence rate (and the
        ``convergence_history``) is unchanged.
        """
        w = stack_panels(pair_data, v_data)
        m = self.config.m
        worst = 0.0
        precision = self.config.precision
        for idx in self._round_indices:
            ratios, _ = _sweep_pairs_indexed(
                w, m, idx, precision, zero_sq, work
            )
            round_worst = float(ratios.max(initial=0.0))
            if round_worst > worst:
                worst = round_worst
        return w[:m], (w[m:] if v_data is not None else None), worst

    def _normalize(self, working: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Norm-AIE stage: Eq. 7 column by column."""
        sigma = np.linalg.norm(working, axis=0)
        u = np.zeros_like(working)
        nonzero = sigma > 0
        u[:, nonzero] = working[:, nonzero] / sigma[nonzero]
        return u, sigma

    # -- full task ---------------------------------------------------------------
    def run(
        self, matrix: np.ndarray, accumulate_v: bool = False
    ) -> AcceleratorResult:
        """Execute one SVD task end to end.

        Args:
            matrix: Input of shape ``(config.m, config.n)``.
            accumulate_v: Also accumulate the right singular vectors
                (done host-side in the real system; the paper's
                accelerator outputs ``U`` and ``Sigma``).

        Returns:
            The :class:`AcceleratorResult` with singular values in
            descending order.
        """
        matrix = np.asarray(matrix, dtype=self._dtype)
        cfg = self.config
        if matrix.shape != (cfg.m, cfg.n):
            raise NumericalError(
                f"matrix shape {matrix.shape} does not match configured "
                f"{(cfg.m, cfg.n)}"
            )
        if not np.all(np.isfinite(matrix)):
            raise NumericalError("input matrix contains non-finite entries")

        arrangement = DataArrangement(matrix, cfg.block_width)
        system = SystemModule(
            precision=cfg.precision,
            fixed_iterations=cfg.fixed_iterations,
        )
        stats = TransferStats()
        zero_sq = zero_column_threshold_sq(
            float(np.linalg.norm(matrix)), self._dtype
        )
        v_working = np.eye(cfg.n, dtype=self._dtype) if accumulate_v else None
        dma_per_sweep = self._schedule.dma_count(self._mode)
        total_moves = 2 * cfg.p_eng * self._schedule.n_transitions

        width = cfg.pair_cols
        work = round_workspace(
            (cfg.m + (cfg.n if accumulate_v else 0),
             width * (cfg.n_blocks // 2)),
            self._dtype,
        )

        while system.phase is Phase.ORTHOGONALIZATION:
            ratios: List[float] = []
            # Each tournament round's block pairs are disjoint, so they
            # rotate as one batch.
            for group in arrangement.iteration_jobs():
                pair_data = []
                for job in group:
                    # Jobs stage through the sender FIFOs (one per block
                    # of the pair) before packetization, as in Fig. 2.
                    arrangement.sender_fifos[0].push(job)
                    arrangement.sender_fifos[1].push(job)
                    staged = arrangement.sender_fifos[0].pop()
                    arrangement.sender_fifos[1].pop()
                    packets = self._sender.packetize(staged.columns, staged.data)
                    stats.packets_sent += len(packets)
                    pair_data.append(self._gather(packets, job.columns))
                v_cols = (
                    [v_working[:, job.columns] for job in group]
                    if v_working is not None
                    else None
                )
                rotated, v_rotated, ratio = self._orth_sweep(
                    pair_data, v_cols, zero_sq, work
                )

                for g, job in enumerate(group):
                    stats.dma_transfers += dma_per_sweep
                    stats.neighbor_transfers += total_moves - dma_per_sweep
                    offset = g * width
                    receiver = Receiver(job.columns)
                    for position, column in enumerate(job.columns):
                        packet = Packet(
                            header=(0, 0),
                            column_index=column,
                            payload=rotated[:, offset + position],
                            plio=position % 2,
                        )
                        receiver.accept(packet, ratio)
                        stats.packets_received += 1
                    # Results stage through a receiver FIFO before the
                    # data arrangement re-pairs them.
                    arrangement.receiver_fifos[0].push(receiver.reassemble())
                    arrangement.retire_pair(
                        job, arrangement.receiver_fifos[0].pop()
                    )
                    if v_rotated is not None:
                        v_working[:, job.columns] = v_rotated[
                            :, offset:offset + width
                        ]
                    ratios.append(receiver.convergence_ratio)
            system.report_iteration(reduce_convergence(ratios))

        u, sigma = self._normalize(arrangement.working)
        system.report_normalization_done()

        order = np.argsort(sigma)[::-1]
        u = u[:, order]
        sigma = sigma[order]
        v = v_working[:, order] if v_working is not None else None
        arrangement.store_results(u, sigma)
        stats.fifo_high_water = max(
            fifo.high_water
            for fifo in (*arrangement.sender_fifos, *arrangement.receiver_fifos)
        )
        return AcceleratorResult(
            u=u,
            sigma=sigma,
            v=v,
            iterations=system.iterations_completed,
            converged=system.converged,
            convergence_history=list(system.history),
            transfers=stats,
        )

    def run_batch(
        self, matrices: List[np.ndarray], accumulate_v: bool = False
    ) -> List[AcceleratorResult]:
        """Process a batch across the design's task pipelines.

        Tasks are distributed round-robin over the placed pipelines —
        each with its own placement region and forwarding rule — which
        is exactly the task-parallel operation the timing simulator
        prices.  Functional execution is sequential (Python), but every
        task runs through its assigned pipeline's routing.
        """
        pipelines = [
            HeteroSVDAccelerator(
                self.config, placement=self.placement, pipeline=index
            )
            if index != self.pipeline
            else self
            for index in range(len(self.placement.tasks))
        ]
        return [
            pipelines[i % len(pipelines)].run(m, accumulate_v=accumulate_v)
            for i, m in enumerate(matrices)
        ]

    # -- helpers -------------------------------------------------------------------
    @staticmethod
    def _gather(packets: List[Packet], columns: List[int]) -> np.ndarray:
        """Rebuild the pair matrix from routed packets (AIE-side view)."""
        by_column: Dict[int, np.ndarray] = {
            p.column_index: p.payload for p in packets
        }
        missing = [c for c in columns if c not in by_column]
        if missing:
            raise SimulationError(f"columns lost in routing: {missing}")
        return np.column_stack([by_column[c] for c in columns])

