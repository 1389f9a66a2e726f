"""Unit tests for the data arrangement module."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.linalg.block import block_pair_rounds
from repro.pl.data_arrangement import DataArrangement


class TestDataArrangement:
    def test_block_counts(self, rng):
        da = DataArrangement(rng.standard_normal((8, 12)), block_width=3)
        assert da.n_blocks == 4
        assert da.num_block_pairs == 6

    def test_jobs_follow_round_robin_order(self, rng):
        for n_blocks in (4, 5):
            da = DataArrangement(rng.standard_normal((6, 2 * n_blocks)), block_width=2)
            rounds = [[j.pair for j in jobs] for jobs in da.iteration_jobs()]
            assert rounds == block_pair_rounds(n_blocks)

    def test_job_payload_matches_columns(self, rng):
        a = rng.standard_normal((6, 8))
        da = DataArrangement(a, block_width=2)
        for job in (j for jobs in da.iteration_jobs() for j in jobs):
            assert np.array_equal(job.data, a[:, job.columns])
            assert job.bits == job.data.size * 32

    def test_retire_pair_writes_back(self, rng):
        a = rng.standard_normal((6, 8))
        da = DataArrangement(a, block_width=2)
        job = next(iter(da.iteration_jobs()))[0]
        da.retire_pair(job, job.data * 2)
        assert np.allclose(da.working[:, job.columns], a[:, job.columns] * 2)

    def test_retire_shape_mismatch(self, rng):
        da = DataArrangement(rng.standard_normal((6, 8)), block_width=2)
        job = next(iter(da.iteration_jobs()))[0]
        with pytest.raises(ConfigurationError):
            da.retire_pair(job, np.zeros((6, 3)))

    def test_original_matrix_unmodified(self, rng):
        a = rng.standard_normal((6, 8))
        copy = a.copy()
        da = DataArrangement(a, block_width=2)
        job = next(iter(da.iteration_jobs()))[0]
        da.retire_pair(job, job.data * 5)
        assert np.array_equal(a, copy)

    def test_block_views(self, rng):
        a = rng.standard_normal((4, 6))
        da = DataArrangement(a, block_width=2)
        views = da.block_views()
        assert len(views) == 3
        assert np.array_equal(views[1], a[:, 2:4])

    def test_pairs_issued_counter(self, rng):
        da = DataArrangement(rng.standard_normal((4, 8)), block_width=2)
        list(da.iteration_jobs())
        list(da.iteration_jobs())
        assert da.pairs_issued == 12

    def test_next_round_is_copied_after_the_last_is_retired(self, rng):
        a = rng.standard_normal((6, 8))
        da = DataArrangement(a, block_width=2)
        rounds = da.iteration_jobs()
        for job in next(rounds):
            da.retire_pair(job, job.data * 2)
        for job in next(rounds):
            assert np.array_equal(job.data, 2 * a[:, job.columns])

    def test_store_results_copies(self, rng):
        a = rng.standard_normal((4, 6))
        da = DataArrangement(a, block_width=2)
        u = rng.standard_normal((4, 6))
        sigma = np.abs(rng.standard_normal(6))
        stored_u, stored_s = da.store_results(u, sigma)
        u[0, 0] = 999
        assert stored_u[0, 0] != 999

    def test_store_results_shape_check(self, rng):
        da = DataArrangement(rng.standard_normal((4, 6)), block_width=2)
        with pytest.raises(ConfigurationError):
            da.store_results(np.zeros((5, 6)), np.zeros(6))

    def test_rejects_non_matrix(self):
        with pytest.raises(ConfigurationError):
            DataArrangement(np.zeros(5), block_width=1)
