"""Functional simulation of the HeteroSVD accelerator (Algorithm 1).

Executes the complete system of Fig. 2 with real data: the matrix is
split into column blocks, block pairs stream to the orth-AIEs, which
run the shifting-ring sweep of Jacobi rotations; the system module
iterates until the precision target (or a fixed sweep budget) is met;
finally the norm-AIEs produce ``Sigma`` and ``U`` (Eq. 7).

The orth-AIE layers rotate a whole tournament round of block pairs at
once: those pairs touch disjoint columns, and one ordering round maps
onto one layer of orth-AIEs that all rotate together.  A run therefore
keeps one Fortran-order ``W = [B; V]``
(:func:`~repro.linalg.hestenes.stack_panels`; V rows only when
accumulating) and rotates it in place, one call of the block driver's
batched round kernel
(:func:`repro.linalg.hestenes._sweep_pairs_indexed`) per ordering
round of each tournament round.  These are the rotations of sweeping
the block pairs one by one, and the result equals the block driver
(:func:`~repro.linalg.hestenes._block_jacobi_svd` with
``block_width=P_eng``) on the same matrix
bit for bit after the same number of sweeps.  The accelerator stays
plain Hestenes: ``svd(method="block")`` runs that driver on the ``L``
of a QR and an LQ of its input instead (:mod:`repro.linalg.svd`).

The PL only moves columns, and its dynamic-forwarding routes depend on
(slot, side) alone (Section III-C, Fig. 5), so the PL side is
accounting: the routing table is resolved once per instance, every
block pair of every sweep sends and receives one packet per routed
column, and DMA and neighbour transfers come from the shared movement
schedule.  :mod:`repro.pl`'s ``Sender``, ``Receiver`` and
``DataArrangement`` are the per-column reference models of that
traffic.

The result must match ``numpy.linalg.svd`` — that equivalence is the
functional-correctness contract of the whole hardware model and is
enforced by the integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Type

import numpy as np

from repro.core.config import HeteroSVDConfig
from repro.core.dataflow import DataflowMode
from repro.core.ordering_codesign import movement_schedule
from repro.core.placement import Placement, place
from repro.core.routing import Coord, ForwardingRule, assign_plios
from repro.errors import InputValidationError, NumericalError, SimulationError
from repro.guard.validate import (
    SCALE_MAX,
    postscale_singular_values,
    prescale_matrix,
    validate_matrix,
)
from repro.linalg.block import sweep_schedule
from repro.linalg.convergence import zero_column_threshold_sq
from repro.linalg.hestenes import (
    _sweep_pairs_indexed,
    round_workspace,
    stack_panels,
)
from repro.linalg.orderings import Ordering, RingOrdering, ShiftingRingOrdering
from repro.pl.system_module import Phase, SystemModule

#: Largest peak entry magnitude each datapath takes unscaled (its
#: inverse is the smallest): float64's ``2**500`` squares to
#: ``2**±1000`` and float32's ``2**52`` to ``2**±104``, 22-24 bits
#: inside the type's normal range, so squared column norms neither
#: overflow nor underflow.  Inputs outside the window are pre-scaled.
_PEAK_LIMIT = {"float64": SCALE_MAX, "float32": 2.0 ** 52}


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
    #: Peak occupancy of the sender/receiver FIFOs: 1 in a run, as
    #: each block-pair job is pushed and popped at once.
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


def checked_input(
    matrix: np.ndarray, config: HeteroSVDConfig
) -> "tuple[np.ndarray, int]":
    """A task's input, checked and brought into the datapath's range.

    The matrix must be real, finite and of the configured shape.  An
    input whose peak magnitude lies outside the datapath's window
    (``2**±500`` for float64, ``2**±52`` for float32) is pre-scaled by
    an exact power of two (:func:`~repro.guard.prescale_matrix`, as
    software :func:`~repro.linalg.svd` does) and then cast to
    ``config.arithmetic``; an input inside it is only cast.  An entry
    beyond float32's range fails a float32 datapath: it is not
    rescaled, and the cast overflows.

    Returns:
        The matrix in ``config.arithmetic`` and the scale exponent to
        undo on the singular values
        (:func:`~repro.guard.postscale_singular_values`).

    Raises:
        NumericalError: on a shape mismatch or non-finite entries (also
            once cast); its :class:`~repro.errors.InputValidationError`
            subclass on complex input.
    """
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix):
        raise InputValidationError(
            "input matrix is complex; the accelerator streams real data "
            "(repro.svd factors a complex matrix through its real "
            "embedding)",
            reason="dtype",
        )
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (config.m, config.n):
        raise NumericalError(
            f"matrix shape {matrix.shape} does not match configured "
            f"{(config.m, config.n)}"
        )
    try:
        health = validate_matrix(matrix, name="input matrix")
    except InputValidationError as error:
        # A non-finite entry is the model's own backstop, a plain
        # NumericalError; reporting it as invalid input (CLI exit 4)
        # is the job of the caller's guard, which --no-validate skips.
        raise NumericalError(str(error)) from error
    dtype = np.dtype(config.arithmetic)
    limit = _PEAK_LIMIT[dtype.name]
    peak = health.max_abs
    representable = peak <= float(np.finfo(dtype).max)
    exponent = 0
    if 0 < peak and representable and not 1 / limit <= peak <= limit:
        exponent = -math.frexp(peak)[1]  # the peak lands in [0.5, 1)
    matrix, exponent = prescale_matrix(
        matrix, replace(health, scale_exponent=exponent)
    )
    if dtype != matrix.dtype:
        with np.errstate(over="ignore"):  # an overflow is rejected below
            matrix = matrix.astype(dtype)
        if not np.isfinite(matrix).all():
            raise NumericalError(
                f"input matrix has entries beyond the {dtype} datapath's "
                f"range (non-finite once cast)"
            )
    return matrix, exponent


class HeteroSVDAccelerator:
    """Functional model of the full accelerator for one design point.

    Args:
        config: Design point; ``use_codesign`` selects the shifting ring
            ordering (vs the traditional ring) and the relocated
            dataflow for traffic accounting.
        placement: Optional pre-computed placement (a fresh one is
            derived from the config otherwise).

    Raises:
        RoutingError: when the placed task lacks an orth-AIE at a
            first-layer slot a block pair's columns are routed to.
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
        #: Destination tile of each column packet of a block pair, in
        #: stream order (slot by slot, left column then right): the
        #: headers ``Sender(route_orth).packetize`` stamps.  Routes
        #: depend on (slot, side) alone, so every block pair of every
        #: sweep uses this one table.
        self.routing_table: "tuple[Coord, ...]" = tuple(
            self._forwarding.route_orth(slot, side)
            for slot in range(config.pair_cols // 2)
            for side in (0, 1)
        )
        self._ordering_cls: Type[Ordering] = (
            ShiftingRingOrdering if config.use_codesign else RingOrdering
        )
        self._schedule = movement_schedule(config.p_eng, config.use_codesign)
        self._mode = (
            DataflowMode.RELOCATED if config.use_codesign else DataflowMode.NAIVE
        )
        #: Numeric type of the simulated datapath (fp32 on real AIEs).
        self._dtype = np.dtype(config.arithmetic)
        #: One sweep as round-kernel calls: each ordering round of each
        #: tournament round, over the global columns of that tournament
        #: round's disjoint block pairs (the shape's memoized schedule,
        #: shared with the block driver).
        self._sweep_indices = sweep_schedule(
            self._ordering_cls, config.n, config.block_width
        )

    def _normalize(self, working: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Norm-AIE stage: Eq. 7 column by column."""
        sigma = np.linalg.norm(working, axis=0)
        u = np.zeros_like(working)
        nonzero = sigma > 0
        u[:, nonzero] = working[:, nonzero] / sigma[nonzero]
        return u, sigma

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

        Raises:
            NumericalError: for an input :func:`checked_input` rejects,
                or singular values that come back non-finite.
            SimulationError: if the sweeps do not converge within the
                system module's iteration bound.
        """
        cfg = self.config
        m = cfg.m
        matrix, scale_exponent = checked_input(matrix, cfg)
        system = SystemModule(
            precision=cfg.precision,
            fixed_iterations=cfg.fixed_iterations,
        )
        zero_sq = zero_column_threshold_sq(
            float(np.linalg.norm(matrix)), self._dtype
        )
        w = stack_panels(
            [matrix],
            [np.eye(cfg.n, dtype=self._dtype)] if accumulate_v else None,
        )
        # Sized for the widest call: every tournament round holds
        # n_blocks // 2 block pairs (byes excluded).
        work = round_workspace(
            (w.shape[0], cfg.pair_cols * (cfg.n_blocks // 2)), self._dtype
        )

        while system.phase is Phase.ORTHOGONALIZATION:
            # The sweep's convergence rate is the worst pre-rotation
            # ratio any orth-AIE reports (Algorithm 1, line 10).
            worst = 0.0
            for idx in self._sweep_indices:
                ratios, _ = _sweep_pairs_indexed(
                    w, m, idx, cfg.precision, zero_sq, work
                )
                round_worst = float(ratios.max(initial=0.0))
                if round_worst > worst:
                    worst = round_worst
            system.report_iteration(worst)

        # A C-order copy of B: NumPy sums a Fortran-order column's
        # squares in another (pairwise) order, which moves sigma's
        # last bits.
        u, sigma = self._normalize(np.ascontiguousarray(w[:m]))
        system.report_normalization_done()

        order = np.argsort(sigma)[::-1]
        u = u[:, order]
        sigma = postscale_singular_values(sigma[order], scale_exponent)
        if not np.isfinite(sigma).all():
            raise NumericalError(
                f"singular values overflowed the {self._dtype} datapath"
            )
        v = w[m:][:, order] if accumulate_v else None
        # Every block pair of every sweep crosses the PL once each way:
        # one packet per routed column, its job pushed and popped at
        # once; the array moves columns as the movement schedule says.
        pairs = system.iterations_completed * cfg.num_block_pairs
        packets = pairs * len(self.routing_table)
        dma = self._schedule.dma_count(self._mode)
        moves = 2 * cfg.p_eng * self._schedule.n_transitions
        return AcceleratorResult(
            u=u,
            sigma=sigma,
            v=v,
            iterations=system.iterations_completed,
            converged=system.converged,
            convergence_history=list(system.history),
            transfers=TransferStats(
                dma_transfers=pairs * dma,
                neighbor_transfers=pairs * (moves - dma),
                packets_sent=packets,
                packets_received=packets,
                fifo_high_water=1,
            ),
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
