"""Tests for :meth:`DesignSpace.explore`, the one stage-2 loop.

Every option (job count, cache, checkpoint, deadline) must return the
points :meth:`DesignSpace.explore_serial` returns, on the widened space
as on the classic one-ordering, one-derate space the classic explorer
runs.
"""

import json

import pytest

from repro.analysis.sensitivity import KNOBS, _scaled
from repro.core.dse import DesignSpaceExplorer
from repro.dse import DesignSpace
from repro.errors import ConfigurationError, DeadlineExceeded
from repro.exec.cache import EvalCache
from repro.exec.parallel import JOBS_ENV_VAR
from repro.io import design_point_to_dict
from repro.resilience import SweepCheckpoint


def _json(points):
    return json.dumps(
        [design_point_to_dict(p) for p in points], sort_keys=True
    )


@pytest.fixture(scope="module")
def serial():
    return _json(DesignSpace(32, 32).explore_serial())


class TestWidenedExploreParity:
    def test_two_jobs_match_serial(self, serial):
        assert _json(DesignSpace(32, 32).explore(jobs=2)) == serial

    def test_cold_and_warm_cache_match_serial(self, serial):
        cache = EvalCache()
        assert _json(DesignSpace(32, 32).explore(cache=cache)) == serial
        misses = cache.stats.misses
        assert misses > 0
        assert _json(DesignSpace(32, 32).explore(cache=cache)) == serial
        assert cache.stats.misses == misses  # warm: stage 1 and every unit

    def test_checkpoint_matches_serial(self, serial, tmp_path):
        path = tmp_path / "space.ckpt.json"
        assert _json(DesignSpace(32, 32).explore(checkpoint=path)) == serial
        resumed = SweepCheckpoint(path, kind="dse-sweep")
        assert _json(DesignSpace(32, 32).explore(checkpoint=resumed)) \
            == serial
        assert resumed.resumed == len(DesignSpace(32, 32).units())

    def test_explore_serial_ignores_the_jobs_env_var(self, serial,
                                                     monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "zero")
        assert _json(DesignSpace(32, 32).explore_serial()) == serial
        with pytest.raises(ConfigurationError, match=JOBS_ENV_VAR):
            DesignSpace(32, 32).explore()


class TestClassicIsTheNarrowSpace:
    def test_classic_ranking_is_the_codesign_full_clock_slice(self):
        space = DesignSpace(32, 32)
        narrow = [
            point for unit, point in zip(space.units(), space.explore_serial())
            if unit.ordering == "codesign" and unit.freq_derate == 1.0
        ]
        for objective in ("latency", "throughput", "energy_efficiency"):
            assert _json(DesignSpaceExplorer(32, 32).explore(objective)) \
                == _json(space.ranked(narrow, objective))

    def test_classic_checkpoint_resumes_a_widened_sweep(self, serial,
                                                        tmp_path):
        path = tmp_path / "classic.ckpt.json"
        explorer = DesignSpaceExplorer(32, 32)
        explorer.explore(checkpoint=path)
        checkpoint = SweepCheckpoint(path, kind="dse-sweep")
        widened = DesignSpace(32, 32).explore(checkpoint=checkpoint)
        # Every (codesign, 1.0) unit came from the classic ledger.
        assert checkpoint.resumed == len(explorer.candidates())
        assert _json(widened) == serial


class TestWidenedDeadline:
    def test_expiry_reports_the_whole_space_as_total(self):
        space = DesignSpace(32, 32)
        with pytest.raises(DeadlineExceeded) as excinfo:
            space.explore(deadline=0.0)
        partial = excinfo.value.partial
        assert partial.kind == "dse-sweep"
        assert partial.total == len(space.units())
        assert partial.completed == 0


class TestNothingOutlivesASweep:
    """A sweep shares each candidate's stage durations between its
    evaluations, and must drop them when it ends: the durations read
    calibration constants that ``analysis.sensitivity`` rescales in
    place between sweeps.  A second sweep on the same object, under a
    rescaled knob, must read what a fresh object reads."""

    @staticmethod
    def _latencies(points):
        return [p.latency for p in points]

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    def test_widened_space(self, knob):
        space = DesignSpace(128, 128)
        first = self._latencies(space.explore_serial())
        with _scaled(*KNOBS[knob], 1.5):
            second = self._latencies(space.explore_serial())
            fresh = self._latencies(DesignSpace(128, 128).explore_serial())
        assert second == fresh
        assert second != first

    @pytest.mark.parametrize("knob", sorted(KNOBS))
    def test_classic_explorer(self, knob):
        explorer = DesignSpaceExplorer(128, 128)
        first = self._latencies(explorer.explore())
        with _scaled(*KNOBS[knob], 1.5):
            second = self._latencies(explorer.explore())
            fresh = self._latencies(DesignSpaceExplorer(128, 128).explore())
        assert second == fresh
        assert second != first
