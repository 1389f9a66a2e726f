"""Data arrangement module (Fig. 2, left).

Responsibilities mirrored from the paper:

* read the full matrix ``A_{m x n}`` from DDR and split it into
  ``m x k`` column blocks (``k = P_eng``);
* enumerate block pairs in round-robin order, one tournament round of
  disjoint pairs at a time, and feed them to the two sender FIFOs (one
  per block of the pair);
* between iterations, re-pair the updated blocks arriving back through
  the receiver FIFOs;
* after convergence, stream single blocks to the norm-AIEs and collect
  ``Sigma`` and ``U`` for the DDR write-back.

The functional model operates on numpy views; the matrix storage it
manages is what the URAM estimate in :mod:`repro.pl.memory` sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.errors import ConfigurationError
from repro.linalg.block import BlockPartition, block_pair_rounds
from repro.pl.fifo import FIFO


@dataclass
class BlockPairJob:
    """One unit of work shipped to the orth-AIEs.

    Attributes:
        pair: Block indices ``(u, v)`` with ``u < v``.
        columns: Global column indices, block ``u``'s columns first.
        data: The ``m x 2k`` submatrix (a copy; results are written back
            through :meth:`DataArrangement.retire_pair`).
    """

    pair: "tuple[int, int]"
    columns: List[int]
    data: np.ndarray

    @property
    def n_cols(self) -> int:
        """Columns in the pair (``2k``)."""
        return len(self.columns)

    @property
    def bits(self) -> int:
        """Payload size of the job in bits (fp32 words)."""
        return int(self.data.size) * 32


class DataArrangement:
    """Functional model of the data arrangement module for one task.

    Args:
        matrix: The input matrix ``A`` (copied; the original is kept for
            validation).
        block_width: Columns per block, ``k = P_eng``.
        fifo_capacity: Sender/receiver FIFO depth in block pairs.
    """

    def __init__(self, matrix: np.ndarray, block_width: int, fifo_capacity: int = 4):
        matrix = np.asarray(matrix)
        if not np.issubdtype(matrix.dtype, np.floating):
            matrix = matrix.astype(np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError(f"expected a matrix, got shape {matrix.shape}")
        self.partition = BlockPartition(
            n_cols=matrix.shape[1], block_width=block_width
        )
        #: Working copy of the matrix; orthogonalization updates land here.
        self.working = matrix.copy()
        self.sender_fifos = (
            FIFO("sender0", fifo_capacity),
            FIFO("sender1", fifo_capacity),
        )
        self.receiver_fifos = (
            FIFO("receiver0", fifo_capacity),
            FIFO("receiver1", fifo_capacity),
        )
        #: Block pairs issued over the lifetime of the task.
        self.pairs_issued = 0

    @property
    def n_blocks(self) -> int:
        """Number of column blocks ``p``."""
        return self.partition.n_blocks

    @property
    def num_block_pairs(self) -> int:
        """Block pairs per iteration — the performance model's ``num``."""
        return self.partition.n_block_pairs

    def iteration_jobs(self) -> Iterator[List[BlockPairJob]]:
        """Yield one sweep's block-pair jobs, one tournament round at a time.

        Each list holds the jobs of one round of
        :func:`~repro.linalg.block.block_pair_rounds`.  Their block
        pairs touch disjoint columns, so the round can be rotated as
        one batch; the next round's payloads are copied only when it is
        requested, after the previous round's jobs were retired.
        """
        for one_round in block_pair_rounds(self.n_blocks):
            jobs = []
            for pair in one_round:
                cols = self.partition.pair_columns(pair)
                jobs.append(
                    BlockPairJob(
                        pair=pair, columns=cols, data=self.working[:, cols].copy()
                    )
                )
            self.pairs_issued += len(jobs)
            yield jobs

    def retire_pair(self, job: BlockPairJob, updated: np.ndarray) -> None:
        """Write an orthogonalized block pair back into working storage."""
        if updated.shape != job.data.shape:
            raise ConfigurationError(
                f"updated pair has shape {updated.shape}, expected {job.data.shape}"
            )
        self.working[:, job.columns] = updated

    def block_views(self) -> List[np.ndarray]:
        """Per-block views of the working matrix (for the norm stage)."""
        return [
            self.working[:, self.partition.block_columns(b)]
            for b in range(self.n_blocks)
        ]

    def store_results(self, u: np.ndarray, sigma: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Model the DDR write-back; returns the stored ``(U, Sigma)``."""
        if u.shape[0] != self.working.shape[0]:
            raise ConfigurationError(
                f"U row count {u.shape[0]} does not match matrix rows "
                f"{self.working.shape[0]}"
            )
        return u.copy(), sigma.copy()
