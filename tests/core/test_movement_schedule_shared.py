"""The movement schedule is immutable and shared per (k, shifting, first_row)."""

import dataclasses

import pytest

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.dataflow import DataflowMode
from repro.core.ordering_codesign import (
    MovementSchedule,
    codesign_dma_transfers,
    movement_schedule,
)
from repro.core.perf_model import PerformanceModel
from repro.core.timing import TimingSimulator
from repro.errors import ConfigurationError


class TestImmutable:
    def test_rejects_attribute_assignment(self):
        schedule = movement_schedule(4, True, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.k = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.transitions = ()
        assert schedule.k == 4

    def test_transitions_is_a_tuple(self):
        schedule = movement_schedule(4)
        assert isinstance(schedule.transitions, tuple)
        assert len(schedule.transitions) == schedule.n_transitions


class TestShared:
    def test_same_key_same_object(self):
        first = movement_schedule(5, shifting=False, first_row=2)
        assert movement_schedule(5, False, 2) is first
        assert movement_schedule(k=5, shifting=False, first_row=2) is first

    def test_distinct_keys_distinct_objects(self):
        base = movement_schedule(4, True, 1)
        assert movement_schedule(4, False, 1) is not base
        assert movement_schedule(4, True, 0) is not base
        assert movement_schedule(3, True, 1) is not base

    def test_shared_equals_a_fresh_build(self):
        assert movement_schedule(6) == MovementSchedule(k=6)
        assert movement_schedule(6).dma_count(
            DataflowMode.RELOCATED
        ) == codesign_dma_transfers(6)

    def test_invalid_key_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                movement_schedule(0)

    def test_model_simulator_and_accelerator_share_one_schedule(self):
        config = HeteroSVDConfig(m=16, n=16, p_eng=4, p_task=1)
        schedule = movement_schedule(4, True, 1)
        assert PerformanceModel(config)._schedule is schedule
        assert TimingSimulator(config).model._schedule is schedule
        assert HeteroSVDAccelerator(config)._schedule is schedule
