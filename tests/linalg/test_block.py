"""Unit tests for column-block partitioning and block-pair enumeration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.linalg.block import (
    BlockPartition,
    block_pair_round_indices,
    block_pair_rounds,
    block_pairs,
    sweep_round_indices,
    sweep_schedule,
)
from repro.linalg.orderings import RingOrdering, ShiftingRingOrdering


class TestBlockPartition:
    def test_basic_counts(self):
        part = BlockPartition(n_cols=16, block_width=4)
        assert part.n_blocks == 4
        assert part.n_block_pairs == 6

    def test_block_columns(self):
        part = BlockPartition(n_cols=12, block_width=3)
        assert part.block_columns(0) == [0, 1, 2]
        assert part.block_columns(3) == [9, 10, 11]

    def test_pair_columns_order(self):
        part = BlockPartition(n_cols=8, block_width=2)
        assert part.pair_columns((1, 3)) == [2, 3, 6, 7]

    def test_extract_and_scatter_roundtrip(self, rng):
        part = BlockPartition(n_cols=8, block_width=2)
        a = rng.standard_normal((5, 8))
        original = a.copy()
        pair = (0, 2)
        data = part.extract_pair(a, pair)
        assert data.shape == (5, 4)
        part.scatter_pair(a, pair, data * 2)
        assert np.allclose(a[:, [0, 1, 4, 5]], original[:, [0, 1, 4, 5]] * 2)
        assert np.allclose(a[:, [2, 3, 6, 7]], original[:, [2, 3, 6, 7]])

    def test_scatter_shape_mismatch(self, rng):
        part = BlockPartition(n_cols=8, block_width=2)
        a = rng.standard_normal((5, 8))
        with pytest.raises(ConfigurationError):
            part.scatter_pair(a, (0, 1), np.zeros((5, 3)))

    def test_invalid_block_index(self):
        part = BlockPartition(n_cols=8, block_width=2)
        with pytest.raises(ConfigurationError):
            part.block_columns(4)

    @pytest.mark.parametrize(
        "n_cols,width",
        [(8, 0), (8, 5), (4, 4), (7, 2), (2, 2)],
    )
    def test_invalid_partitions(self, n_cols, width):
        with pytest.raises(ConfigurationError):
            BlockPartition(n_cols=n_cols, block_width=width)


class TestBlockPairs:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 13])
    def test_enumerates_each_pair_once(self, p):
        pairs = block_pairs(p)
        assert len(pairs) == p * (p - 1) // 2
        assert len(set(pairs)) == len(pairs)
        for u, v in pairs:
            assert 0 <= u < v < p

    def test_rejects_single_block(self):
        with pytest.raises(ConfigurationError):
            block_pairs(1)

    def test_round_robin_locality(self):
        # Tournament schedule: consecutive rounds reuse blocks heavily,
        # but within a round blocks are disjoint.
        for one_round in block_pair_rounds(8):
            blocks = [b for pair in one_round for b in pair]
            assert len(blocks) == len(set(blocks))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_odd_block_counts_use_a_bye(self, p):
        rounds = block_pair_rounds(p)
        flat = [pair for r in rounds for pair in r]
        assert len(flat) == p * (p - 1) // 2
        assert all(0 <= u < v < p for u, v in flat)

    def test_rounds_flatten_to_pairs(self):
        rounds = block_pair_rounds(6)
        flat = [pair for r in rounds for pair in r]
        assert sorted(flat) == sorted(block_pairs(6))


class TestBlockPairRoundIndices:
    def test_single_pair_translates_the_ordering(self):
        ordering = ShiftingRingOrdering(4)
        cols = [10, 11, 20, 21]
        indices = block_pair_round_indices([cols], ordering)
        assert len(indices) == ordering.n_rounds
        for idx, one_round in zip(indices, ordering):
            ii, jj = np.split(idx, 2)
            assert list(ii) == [cols[i] for i, _ in one_round]
            assert list(jj) == [cols[j] for _, j in one_round]

    def test_round_of_pairs_stacks_pair_by_pair(self):
        ordering = ShiftingRingOrdering(4)
        first, second = [0, 1, 4, 5], [2, 3, 6, 7]
        stacked = block_pair_round_indices([first, second], ordering)
        alone = [
            block_pair_round_indices([cols], ordering)
            for cols in (first, second)
        ]
        for r, touched in enumerate(stacked):
            ii, jj = np.split(touched, 2)
            first_ii, first_jj = np.split(alone[0][r], 2)
            second_ii, second_jj = np.split(alone[1][r], 2)
            assert list(ii) == [*first_ii, *second_ii]
            assert list(jj) == [*first_jj, *second_jj]
            assert np.unique(touched).size == touched.size


class TestSweepRoundIndices:
    @pytest.mark.parametrize("n_blocks", [4, 5])
    def test_sweep_is_every_tournament_round_in_turn(self, n_blocks):
        ordering = ShiftingRingOrdering(4)
        partition = BlockPartition(n_cols=2 * n_blocks, block_width=2)
        sweep = sweep_round_indices(partition, ordering)
        rounds = block_pair_rounds(n_blocks)
        assert len(sweep) == len(rounds) * ordering.n_rounds
        for r, one_round in enumerate(rounds):
            expected = block_pair_round_indices(
                [partition.pair_columns(pair) for pair in one_round],
                ordering,
            )
            calls = sweep[r * ordering.n_rounds:(r + 1) * ordering.n_rounds]
            for idx, want in zip(calls, expected):
                assert np.array_equal(idx, want)
                assert np.unique(idx).size == idx.size

    def test_sweep_rotates_every_column_pair(self):
        partition = BlockPartition(n_cols=12, block_width=2)
        sweep = sweep_round_indices(partition, ShiftingRingOrdering(4))
        rotated = {
            frozenset(pair)
            for idx in sweep
            for pair in zip(*np.split(idx, 2))
        }
        assert len(rotated) == 12 * 11 // 2


class TestSweepSchedule:
    """One read-only schedule per (ordering class, columns, width)."""

    def test_one_read_only_copy_per_key(self):
        schedule = sweep_schedule(ShiftingRingOrdering, 16, 4)
        assert isinstance(schedule, tuple)
        assert sweep_schedule(ShiftingRingOrdering, 16, 4) is schedule
        for idx in schedule:
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0] = 0
        want = sweep_round_indices(BlockPartition(16, 4),
                                   ShiftingRingOrdering(8))
        assert len(schedule) == len(want)
        for idx, expected in zip(schedule, want):
            assert np.array_equal(idx, expected)

    def test_every_key_field_splits(self):
        base = sweep_schedule(ShiftingRingOrdering, 16, 4)
        assert sweep_schedule(RingOrdering, 16, 4) is not base
        assert sweep_schedule(ShiftingRingOrdering, 24, 4) is not base
        assert sweep_schedule(ShiftingRingOrdering, 16, 2) is not base

    def test_rejected_width_raises(self):
        with pytest.raises(ConfigurationError):
            sweep_schedule(ShiftingRingOrdering, 18, 4)

    def test_driver_reads_the_memo(self):
        # A pairwise solve reads the shape's schedule once, from the memo.
        from repro.linalg.hestenes import _block_jacobi_svd

        a = np.random.default_rng(3).standard_normal((20, 20))
        schedule = sweep_schedule(ShiftingRingOrdering, 20, 5)
        hits = sweep_schedule.cache_info().hits
        _block_jacobi_svd(a, block_width=5, precision=1e-10, max_sweeps=30,
                          ordering_cls=ShiftingRingOrdering,
                          fixed_sweeps=None, method="hestenes")
        assert sweep_schedule.cache_info().hits == hits + 1
        assert sweep_schedule(ShiftingRingOrdering, 20, 5) is schedule

    def test_block_solve_without_a_stall_builds_no_schedule(self):
        from repro.linalg import svd

        a = np.random.default_rng(3).standard_normal((40, 40))
        before = sweep_schedule.cache_info()
        svd(a, method="block", block_width=5)
        after = sweep_schedule.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
