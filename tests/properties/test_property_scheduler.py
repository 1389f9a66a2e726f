"""Property-based tests for the batch scheduler and Pareto front."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pareto import pareto_front
from repro.core.config import HeteroSVDConfig
from repro.core.scheduler import BatchScheduler, TaskSpec

SIZES = st.sampled_from([(32, 32), (64, 64), (64, 32), (128, 128)])


@pytest.fixture(scope="module")
def scheduler():
    return BatchScheduler(HeteroSVDConfig(m=128, n=128, p_eng=4, p_task=3))


class TestSchedulerProperties:
    @given(st.lists(SIZES, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_schedule_invariants(self, scheduler, batch_sizes):
        batch = [
            TaskSpec(m=m, n=n, task_id=i)
            for i, (m, n) in enumerate(batch_sizes)
        ]
        plan = scheduler.schedule(batch)
        # Every task scheduled exactly once.
        assert sorted(t.spec.task_id for t in plan.tasks) == list(
            range(len(batch))
        )
        # No overlap within a pipeline, makespan covers everything.
        for pipe in range(3):
            tasks = plan.pipeline_tasks(pipe)
            for a, b in zip(tasks, tasks[1:]):
                assert b.start >= a.end - 1e-12
        assert plan.makespan >= max(t.end for t in plan.tasks) - 1e-12
        # Work conservation: sum of pipeline times equals sum of costs.
        total = sum(t.duration for t in plan.tasks)
        assert sum(plan.pipeline_times) == pytest.approx(total)

    @given(st.lists(SIZES, min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_lpt_never_worse_than_4_thirds_of_lower_bound(
        self, scheduler, batch_sizes
    ):
        batch = [
            TaskSpec(m=m, n=n, task_id=i)
            for i, (m, n) in enumerate(batch_sizes)
        ]
        plan = scheduler.schedule(batch, policy="lpt")
        costs = [scheduler.task_cost(s) for s in batch]
        # List-scheduling guarantee: when the task finishing last was
        # placed, its machine was the least loaded (<= mean), so the
        # makespan is at most mean load + the largest task.
        mean_load = sum(costs) / 3
        assert plan.makespan <= mean_load + max(costs) + 1e-12
        # And never below the trivial lower bound.
        assert plan.makespan >= max(max(costs), mean_load) - 1e-12


class TestParetoProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_front_of_front_is_front(self, seed):
        from repro.core.dse import DesignSpaceExplorer
        from repro.units import mhz

        dse = DesignSpaceExplorer(128, 128, fixed_iterations=6)
        freq = mhz(208.3)
        points = sorted(
            (dse.evaluate(p_eng, p_task, frequency_hz=freq)
             for p_eng, p_task in dse.candidates(freq)),
            key=lambda p: p.objective_value("latency"), reverse=True,
        )
        # Deterministic but subsample by seed to vary the candidate set.
        subset = points[seed % max(1, len(points) - 3):]
        if not subset:
            return
        front = pareto_front(subset)
        assert pareto_front(front) == front
