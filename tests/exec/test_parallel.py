"""Tests for the deterministic parallel runner and parallel DSE."""

import json

import pytest

from repro.core.dse import DesignSpaceExplorer
from repro.errors import ConfigurationError
from repro.exec.cache import EvalCache
from repro.exec.parallel import (
    JOBS_ENV_VAR,
    ParallelRunner,
    resolve_jobs,
)
from repro.io import design_point_to_dict


def _square(x):
    return x * x  # module-level: picklable for process pools


def _add(a, b):
    return a + b


class TestResolveJobs:
    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        assert resolve_jobs() == 4
        monkeypatch.setenv(JOBS_ENV_VAR, "  ")
        assert resolve_jobs() == 1

    @pytest.mark.parametrize("bad", ["zero", "1.5"])
    def test_unparseable_env(self, monkeypatch, bad):
        monkeypatch.setenv(JOBS_ENV_VAR, bad)
        with pytest.raises(ConfigurationError):
            resolve_jobs()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_jobs(bad)


class TestParallelRunner:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            ParallelRunner(mode="fork")
        with pytest.raises(ConfigurationError):
            ParallelRunner(chunk_size=0)

    def test_inline_when_single_worker(self):
        runner = ParallelRunner(jobs=1)
        assert runner.map(_square, range(5)) == [0, 1, 4, 9, 16]
        assert runner._pool is None  # never spawned a pool

    def test_chunking_covers_all_items(self):
        runner = ParallelRunner(jobs=2, chunk_size=3)
        chunks = runner._chunks(list(range(8)))
        assert [len(c) for c in chunks] == [3, 3, 2]
        assert [x for c in chunks for x in c] == list(range(8))

    def test_thread_map_preserves_order(self):
        with ParallelRunner(jobs=4, mode="thread", chunk_size=1) as runner:
            items = list(range(40))
            assert runner.map(_square, items) == [x * x for x in items]

    def test_process_map_matches_serial(self):
        with ParallelRunner(jobs=2) as runner:
            assert runner.map(_square, range(20)) == \
                [x * x for x in range(20)]

    def test_starmap(self):
        with ParallelRunner(jobs=2, mode="thread") as runner:
            assert runner.starmap(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_pool_reused_across_maps(self):
        with ParallelRunner(jobs=2, mode="thread") as runner:
            runner.map(_square, range(4))
            pool = runner._pool
            runner.map(_square, range(4))
            assert runner._pool is pool

    def test_close_is_idempotent(self):
        runner = ParallelRunner(jobs=2, mode="thread")
        runner.map(_square, range(4))
        runner.close()
        runner.close()
        assert runner._pool is None


class TestParallelExplore:
    """The ISSUE determinism contract: any job count, same ranked list."""

    @pytest.fixture(scope="class")
    def explorer(self):
        return DesignSpaceExplorer(64, 64)

    @pytest.fixture(scope="class")
    def serial(self, explorer):
        return explorer.explore()

    def test_jobs_4_is_byte_identical_to_serial(self, explorer, serial):
        parallel = explorer.explore(jobs=4)
        assert parallel == serial  # full ordering, not just the best
        serial_json = json.dumps(
            [design_point_to_dict(p) for p in serial], sort_keys=True
        )
        parallel_json = json.dumps(
            [design_point_to_dict(p) for p in parallel], sort_keys=True
        )
        assert parallel_json == serial_json

    def test_jobs_env_var_routes_to_parallel(
        self, explorer, serial, monkeypatch
    ):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        assert explorer.explore() == serial

    def test_objectives_agree_with_serial(self, explorer):
        for objective in ("throughput", "energy_efficiency"):
            assert explorer.explore(objective, jobs=2) == \
                explorer.explore(objective)

    def test_cached_explore_matches_and_hits(self, explorer, serial):
        cache = EvalCache()
        cold = explorer.explore(cache=cache)
        assert cold == serial
        assert cache.stats.misses > 0
        warm = explorer.explore(cache=cache)
        assert warm == serial
        assert warm == cold
        # everything (stage-1 candidates + every point) served from memory
        assert cache.stats.hits >= len(serial) + 1
        assert cache.stats.misses == len(serial) + 1

    def test_disk_cache_survives_restart(self, explorer, serial, tmp_path):
        explorer.explore(cache=EvalCache(disk_dir=tmp_path / "c"))
        fresh = EvalCache(disk_dir=tmp_path / "c")
        assert explorer.explore(cache=fresh) == serial
        assert fresh.stats.misses == 0
        assert fresh.stats.disk_hits == len(serial) + 1

    def test_power_cap_matches_serial(self, explorer):
        cap = 30.0
        assert explorer.explore(power_cap_w=cap, jobs=2) == \
            explorer.explore(power_cap_w=cap)
