"""Column-block partitioning for block Hestenes-Jacobi (Algorithm 1).

To decompose an SVD beyond the capacity of a single AIE group, the data
arrangement module splits ``A_{m x n}`` into ``p = n / k`` column blocks
of shape ``m x k`` and enumerates *block pairs*.  Each block pair
``(A_u, A_v)`` holds ``2k`` columns and is shipped to the orth-AIEs,
which run a full shifting-ring sweep over all ``2k`` columns — i.e.,
``(2k-1) x k`` column-pair rotations per block pair.

Because a block-pair sweep orthogonalizes *all* pairs among its ``2k``
columns (intra-block pairs included), every column pair of the full
matrix is rotated at least once per outer sweep as long as every block
pair is visited; intra-block pairs are simply revisited, which is
harmless for convergence and mirrors the hardware's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

BlockPair = Tuple[int, int]


def orthogonalize_block_pair(
    b: np.ndarray,
    v: np.ndarray,
    cols: Sequence[int],
    ordering,
    precision: float,
    zero_sq: float,
    strategy: str = "vectorized",
) -> "tuple[float, int]":
    """Run a full parallel-ordering sweep over one block pair's columns.

    This is the software mirror of what the orth-AIE group does to a
    streamed block pair (Algorithm 1, lines 6-10): the ordering's
    ``2k - 1`` rounds cover every local column pair once, and each round
    is either walked pair by pair (``strategy="scalar"``) or rotated as
    one batch on a stacked copy of the block pair's ``B`` and ``V``
    columns (``strategy="vectorized"`` via the round kernel of
    :mod:`repro.linalg.hestenes`, or ``strategy="native"`` via the
    compiled kernel of :mod:`repro.linalg.native`).  Batching is safe
    for the same reason a round maps onto one hardware layer: a round's
    pairs are disjoint, so its rotations touch disjoint columns.

    Args:
        b: Full working matrix, updated in place.
        v: Full accumulated rotation matrix, updated in place.
        cols: Global column indices of the block pair (first block then
            second, as from :meth:`BlockPartition.pair_columns`).
        ordering: An :class:`~repro.linalg.orderings.Ordering` over the
            ``2k`` local columns.
        precision: Eq. 6 threshold below which a pair is skipped.
        zero_sq: Zero-column floor for the convergence ratio.
        strategy: ``"scalar"``, ``"vectorized"`` or ``"native"``
            (already resolved; see
            :func:`repro.linalg.hestenes.resolve_strategy`).

    Returns:
        ``(worst_ratio, rotations)`` for the block-pair sweep.
    """
    from repro.linalg.convergence import pair_convergence_ratio
    from repro.linalg.hestenes import (
        BATCHED_STRATEGIES,
        _round_sweeper,
        round_workspace,
        stack_panels,
    )
    from repro.linalg.rotations import apply_rotation, compute_rotation

    worst = 0.0
    rotations = 0
    if strategy in BATCHED_STRATEGIES:
        sweep_rounds_fn = _round_sweeper(strategy)
        m = b.shape[0]
        w = stack_panels([b[:, cols]], [v[:, cols]])
        work = round_workspace(w.shape, w.dtype)
        for idx in block_pair_round_indices([range(len(cols))], ordering):
            round_worst, round_rotations = sweep_rounds_fn(
                w, m, idx, precision, zero_sq, work
            )
            if round_worst > worst:
                worst = round_worst
            rotations += round_rotations
        b[:, cols] = w[:m]
        v[:, cols] = w[m:]
        return worst, rotations

    for one_round in ordering:
        for local_i, local_j in one_round:
            gi, gj = cols[local_i], cols[local_j]
            alpha = float(b[:, gi] @ b[:, gi])
            beta = float(b[:, gj] @ b[:, gj])
            gamma = float(b[:, gi] @ b[:, gj])
            ratio = pair_convergence_ratio(alpha, beta, gamma, zero_sq)
            if ratio > worst:
                worst = ratio
            if ratio < precision:
                continue
            rotation = compute_rotation(alpha, beta, gamma)
            b[:, gi], b[:, gj] = apply_rotation(b[:, gi], b[:, gj], rotation)
            v[:, gi], v[:, gj] = apply_rotation(v[:, gi], v[:, gj], rotation)
            rotations += 1
    return worst, rotations


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
    :func:`repro.linalg.hestenes._sweep_pairs_indexed` takes, so one
    call rotates that round of all the block pairs at once.  The
    schedule repeats identically every outer sweep, so drivers build
    these once and the batched path pays no per-round translation
    cost.
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
