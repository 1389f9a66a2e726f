"""Column-block partitioning for block Hestenes-Jacobi (Algorithm 1).

To decompose an SVD beyond the capacity of a single AIE group, the data
arrangement module splits ``A_{m x n}`` into ``p = n / k`` column blocks
of shape ``m x k`` and enumerates *block pairs*.  Each block pair
``(A_u, A_v)`` holds ``2k`` columns.  On the accelerator it is shipped
to the orth-AIEs, which run a full shifting-ring sweep over all ``2k``
columns — i.e., ``(2k-1) x k`` column-pair rotations per block pair
(:func:`sweep_schedule`).  The software ``svd(method="block")`` rotates
each block pair at once instead, by the eigenvectors of the
``2k x 2k`` Gram matrix of its ``m x 2k`` panel (:func:`panel_schedule`),
and falls back to the column-pair sweeps only where those block
rotations stall.  When ``n <= 2k`` there is one block pair, and its
block rotation is the eigenvectors of the whole matrix's Gram matrix.

Because a block-pair sweep orthogonalizes *all* pairs among its ``2k``
columns (intra-block pairs included), every column pair of the full
matrix is rotated at least once per outer sweep as long as every block
pair is visited; intra-block pairs are simply revisited, which is
harmless for convergence and mirrors the hardware's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

BlockPair = Tuple[int, int]


@dataclass(frozen=True)
class BlockPartition:
    """Partition of an ``m x n`` matrix into ``p`` column blocks of width ``k``.

    Attributes:
        n_cols: Total column count ``n``.
        block_width: Columns per block ``k`` (equals ``P_eng`` in the
            HeteroSVD micro-architecture).
    """

    n_cols: int
    block_width: int

    def __post_init__(self):
        if self.block_width < 1:
            raise ConfigurationError(
                f"block width must be >= 1, got {self.block_width}"
            )
        if self.n_cols < 2 * self.block_width:
            raise ConfigurationError(
                f"need at least two blocks: n_cols={self.n_cols}, "
                f"block_width={self.block_width}"
            )
        if self.n_cols % self.block_width != 0:
            raise ConfigurationError(
                f"column count {self.n_cols} is not divisible by block "
                f"width {self.block_width}; pad the matrix first"
            )

    @property
    def n_blocks(self) -> int:
        """Number of blocks ``p = n / k``."""
        return self.n_cols // self.block_width

    @property
    def n_block_pairs(self) -> int:
        """Block pairs per sweep, ``p (p - 1) / 2`` (the model's ``num``)."""
        p = self.n_blocks
        return p * (p - 1) // 2

    def block_columns(self, block_index: int) -> List[int]:
        """Global column indices belonging to one block."""
        if not 0 <= block_index < self.n_blocks:
            raise ConfigurationError(
                f"block index {block_index} out of range [0, {self.n_blocks})"
            )
        start = block_index * self.block_width
        return list(range(start, start + self.block_width))

    def pair_columns(self, pair: BlockPair) -> List[int]:
        """Global column indices of a block pair, first block then second."""
        u, v = pair
        return self.block_columns(u) + self.block_columns(v)

    def extract_pair(self, a: np.ndarray, pair: BlockPair) -> np.ndarray:
        """Gather the ``m x 2k`` submatrix of a block pair."""
        return a[:, self.pair_columns(pair)]

    def scatter_pair(self, a: np.ndarray, pair: BlockPair, data: np.ndarray) -> None:
        """Write back an updated ``m x 2k`` block pair into ``a`` in place."""
        cols = self.pair_columns(pair)
        if data.shape != (a.shape[0], len(cols)):
            raise ConfigurationError(
                f"block-pair data has shape {data.shape}, expected "
                f"{(a.shape[0], len(cols))}"
            )
        a[:, cols] = data


def block_pair_round_indices(
    cols_per_pair: Sequence[Sequence[int]], ordering
) -> List[np.ndarray]:
    """Round-kernel column indices for each ordering round.

    ``cols_per_pair`` holds the column lists of block pairs that touch
    disjoint columns — one block pair, or every block pair of one
    tournament round of :func:`block_pair_rounds`.  Each ordering round
    over the ``2k`` local columns is translated through every list, and
    the round's left columns (block pair by block pair) are followed by
    its right columns in the same order: the ``idx`` that
    :func:`repro.linalg.hestenes._sweep_pairs_indexed` (and every
    other round kernel) takes, so one call rotates that round of all
    the block pairs at once.  The schedule repeats identically every
    outer sweep, so drivers build these once and pay no per-round
    translation cost.
    """
    return [
        np.fromiter(
            (
                cols[pair[side]]
                for side in (0, 1)
                for cols in cols_per_pair
                for pair in one_round
            ),
            dtype=np.intp,
        )
        for one_round in ordering
    ]


def sweep_round_indices(
    partition: BlockPartition, ordering
) -> List[np.ndarray]:
    """One outer sweep as round-kernel ``idx`` arrays, in call order.

    Each tournament round of :func:`block_pair_rounds` in turn, through
    :func:`block_pair_round_indices` over the global columns of its
    block pairs: one round-kernel call per ordering round rotates that
    round of every block pair of the tournament round.  The schedule
    repeats identically every sweep, so drivers build it once.
    """
    return [
        idx
        for one_round in block_pair_rounds(partition.n_blocks)
        for idx in block_pair_round_indices(
            [partition.pair_columns(pair) for pair in one_round], ordering
        )
    ]


@lru_cache(maxsize=64)
def sweep_schedule(
    ordering_cls, n_cols: int, block_width: int
) -> Tuple[np.ndarray, ...]:
    """:func:`sweep_round_indices` of one shape, built once.

    The schedule depends only on the ordering class, the column count
    and the block width, so the block driver and the accelerator model
    share one read-only copy per key instead of rebuilding the ordering
    and translating its rounds on every run.  A width the partition
    rejects raises :class:`~repro.errors.ConfigurationError` (and is
    not memoized).
    """
    partition = BlockPartition(n_cols=n_cols, block_width=block_width)
    schedule = tuple(
        sweep_round_indices(partition, ordering_cls(2 * block_width))
    )
    for idx in schedule:
        idx.flags.writeable = False
    return schedule


@lru_cache(maxsize=64)
def panel_schedule(n_cols: int, block_width: int) -> Tuple[np.ndarray, ...]:
    """Each tournament round's block pairs as one ``(pairs, 2k)`` array.

    Row ``i`` of round ``r`` holds the global columns of the round's
    ``i``-th block pair (:func:`block_pair_rounds`), first block then
    second: the panels one block-rotation call of the software block
    driver rotates together.  Built once per shape and read-only, like
    :func:`sweep_schedule`.
    """
    partition = BlockPartition(n_cols=n_cols, block_width=block_width)
    schedule = tuple(
        np.array([partition.pair_columns(pair) for pair in one_round],
                 dtype=np.intp)
        for one_round in block_pair_rounds(partition.n_blocks)
    )
    for cols in schedule:
        cols.flags.writeable = False
    return schedule


def block_pairs(n_blocks: int) -> List[BlockPair]:
    """Round-robin enumeration of all block pairs (tournament schedule).

    Returns the ``p(p-1)/2`` block pairs in the order the data
    arrangement module streams them: the rounds of
    :func:`block_pair_rounds` flattened, so consecutive pairs reuse at
    most one block — the pattern the paper's round-robin reordering of
    receiver-FIFO data exploits — and every tournament round is a
    contiguous run of the stream.
    """
    return [pair for one_round in block_pair_rounds(n_blocks) for pair in one_round]


def block_pair_rounds(n_blocks: int) -> List[List[BlockPair]]:
    """Block pairs grouped into rounds of disjoint pairs.

    A circle-method tournament over the blocks; for odd ``p`` a bye is
    inserted internally and skipped.  Pairs within a round touch
    disjoint blocks, so their sweeps commute: the block driver and the
    accelerator model rotate a whole round's block pairs as one batch.
    """
    if n_blocks < 2:
        raise ConfigurationError(f"need at least two blocks, got {n_blocks}")
    players = list(range(n_blocks))
    bye = None
    if n_blocks % 2 != 0:
        bye = -1
        players.append(bye)
    size = len(players)
    rounds: List[List[BlockPair]] = []
    for _ in range(size - 1):
        this_round = []
        for slot in range(size // 2):
            a, b = players[slot], players[size - 1 - slot]
            if bye is not None and (a == bye or b == bye):
                continue
            this_round.append((a, b) if a < b else (b, a))
        rounds.append(this_round)
        players = [players[0], players[-1], *players[1:-1]]
    return rounds
