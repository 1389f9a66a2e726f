"""Tests for the pipeline batch executor."""

import numpy as np
import pytest

from repro.core.dse import DesignSpaceExplorer
from repro.errors import ConfigurationError
from repro.exec.batch import BatchExecutor
from repro.exec.cache import EvalCache
from repro.workloads.batch import TaskBatch, make_batch


@pytest.fixture(scope="module")
def config():
    # Fast functional runs: tiny matrices, relaxed precision.
    return DesignSpaceExplorer(32, 32, precision=1e-4).make_config(4, 2)


@pytest.fixture(scope="module")
def batch():
    return make_batch(32, 32, batch=4, seed=7)


@pytest.fixture(scope="module")
def report(config, batch):
    return BatchExecutor(config, jobs=2).run(batch)


class TestBatchExecutor:
    def test_rejects_bad_inputs(self, config):
        with pytest.raises(ConfigurationError):
            BatchExecutor(config, engine="quantum")
        with pytest.raises(ConfigurationError):
            BatchExecutor(config).run(TaskBatch(m=32, n=32))

    def test_results_in_input_order(self, report, batch):
        assert [r.task_id for r in report.results] == list(range(len(batch)))

    def test_sigma_matches_lapack(self, report, batch):
        for result, matrix in zip(report.results, batch):
            reference = np.linalg.svd(matrix, compute_uv=False)
            sigma = np.sort(result.sigma)[::-1][: len(reference)]
            np.testing.assert_allclose(sigma, reference, atol=1e-3)

    def test_runs_mirror_scheduler_assignment(self, report, config, batch):
        executor = BatchExecutor(config)
        schedule = executor.scheduler.schedule(batch.to_specs())
        assignment = executor.scheduler.assignment(schedule)
        assert len(report.runs) <= config.p_task
        for run in report.runs:
            planned = tuple(s.task_id for s in assignment[run.pipeline])
            assert run.task_ids == planned
            assert run.modelled_time == \
                schedule.pipeline_times[run.pipeline]

    def test_report_accounting(self, report):
        assert report.wall_makespan > 0
        assert report.serial_time >= max(r.wall_time for r in report.runs)
        assert report.speedup > 0
        assert 0 < report.efficiency <= report.speedup
        assert report.modelled_makespan == report.schedule.makespan

    def test_software_engine_agrees(self, config, batch, report):
        soft = BatchExecutor(config, engine="software", jobs=1).run(batch)
        for a, b in zip(soft.results, report.results):
            assert a.task_id == b.task_id
            ref = np.sort(a.sigma)[::-1][: len(b.sigma)]
            got = np.sort(b.sigma)[::-1][: len(ref)]
            np.testing.assert_allclose(got, ref, atol=1e-3)

    def test_every_pipeline_run_is_recorded(self, report, batch):
        executed = [t for run in report.runs for t in run.task_ids]
        assert sorted(executed) == list(range(len(batch)))

    def test_shared_cost_cache(self, config, batch):
        cache = EvalCache()
        BatchExecutor(config, jobs=1, cache=cache).run(batch)
        assert cache.stats.stores > 0
        # same-sized tasks: one cost evaluation serves the whole batch
        assert cache.stats.stores == 1

    @pytest.mark.parametrize("method", ["qr", "tsqr"])
    def test_rejects_unknown_method(self, config, method):
        with pytest.raises(ConfigurationError, match="method"):
            BatchExecutor(config, method=method)

    @pytest.mark.parametrize("method", ["block", "dnc", "streaming",
                                        "hestenes"])
    def test_software_methods_match_lapack(self, config, batch, method):
        report = BatchExecutor(
            config, engine="software", jobs=1, method=method,
        ).run(batch)
        for result, matrix in zip(report.results, batch):
            reference = np.linalg.svd(matrix, compute_uv=False)
            sigma = np.sort(result.sigma)[::-1][: len(reference)]
            np.testing.assert_allclose(sigma, reference, atol=1e-6)
            assert not result.degraded

    def test_method_crosses_process_pool(self, config, batch):
        # The method must survive payload pickling into pool workers.
        report = BatchExecutor(
            config, engine="software", jobs=2, method="dnc",
        ).run(batch)
        for result, matrix in zip(report.results, batch):
            reference = np.linalg.svd(matrix, compute_uv=False)
            sigma = np.sort(result.sigma)[::-1][: len(reference)]
            np.testing.assert_allclose(sigma, reference, atol=1e-6)

    def test_software_block_on_unaligned_width(self):
        # 18 columns do not fill the P_eng = 4 block grid; the block
        # method pads them to 20 instead of raising.
        config = DesignSpaceExplorer(18, 18, precision=1e-8).make_config(
            4, 2
        )
        batch = make_batch(18, 18, batch=3, seed=5)
        report = BatchExecutor(config, engine="software", jobs=1).run(batch)
        for result, matrix in zip(report.results, batch):
            reference = np.linalg.svd(matrix, compute_uv=False)
            np.testing.assert_allclose(result.sigma, reference, atol=1e-6)
            assert not result.degraded


    @pytest.mark.parametrize("engine", ["accelerator", "software"])
    @pytest.mark.parametrize("shape", [(16, 32), (18, 18), (16, 17)])
    def test_sigma_has_min_m_n_values(self, engine, shape):
        # The accelerator pads columns to its block grid; the padding's
        # zero singular values are not part of the answer.
        m, n = shape
        config = DesignSpaceExplorer(m, n, precision=1e-8).make_config(4, 1)
        batch = make_batch(m, n, batch=2, seed=3)
        report = BatchExecutor(config, engine=engine, jobs=1).run(batch)
        for result, matrix in zip(report.results, batch):
            reference = np.linalg.svd(matrix, compute_uv=False)
            assert result.sigma.shape == (min(m, n),)
            np.testing.assert_allclose(result.sigma, reference, atol=1e-6)


class TestTaskBatchViews:
    def test_to_specs_ids_are_batch_indices(self, batch):
        specs = batch.to_specs()
        assert [s.task_id for s in specs] == list(range(len(batch)))
        assert all(s.m == 32 and s.n == 32 for s in specs)

    def test_split_is_contiguous_and_even(self):
        batch = make_batch(16, 16, batch=5)
        shards = batch.split(2)
        assert [len(s) for s in shards] == [3, 2]
        merged = [m for shard in shards for m in shard]
        for a, b in zip(merged, batch):
            np.testing.assert_array_equal(a, b)

    def test_split_drops_empty_shards(self):
        shards = make_batch(16, 16, batch=2).split(4)
        assert [len(s) for s in shards] == [1, 1]

    def test_split_rejects_bad_parts(self):
        with pytest.raises(ConfigurationError):
            make_batch(16, 16, batch=2).split(0)
