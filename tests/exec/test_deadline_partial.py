"""Regression tests: deadline expiry mid-batch must not lose tasks.

Before the fix, a :class:`~repro.exec.batch.BatchExecutor` run whose
deadline expired mid-batch raised :class:`DeadlineExceeded` with only
``completed_task_ids`` on the partial — the completed tasks' singular
values (and their per-task LAPACK-fallback ``degraded`` flags) were
computed and then thrown away, and the unfinished tasks were not named
anywhere.  The serving layer answers the completed prefix of an
expired batch from exactly this partial, so every task must be
accounted for: ``details["results"]`` carries the completed
:class:`~repro.exec.batch.TaskResult` objects and
``completed_task_ids`` / ``pending_task_ids`` / ``degraded_task_ids``
partition the batch.
"""

import numpy as np
import pytest

import repro.exec.batch as batch_module
from repro.core.config import HeteroSVDConfig
from repro.errors import DeadlineExceeded
from repro.exec.batch import BatchExecutor, TaskResult
from repro.guard import Deadline
from repro.linalg import svd
from repro.resilience import FaultPlan, FaultSpec
from repro.workloads import make_batch

SIZE = 32
BATCH = 10


class _CountdownDeadline(Deadline):
    """Expires on expiry test number ``checks + 1``, whatever the clock
    says, so a run can be cut at a chosen ordering round."""

    def __init__(self, budget_s: float, checks: float = float("inf")):
        super().__init__(budget_s)
        self.left = checks
        self.tests = 0

    def expired(self) -> bool:
        self.tests += 1
        self.left -= 1
        return self.left < 0


def _config(p_task: int = 1) -> HeteroSVDConfig:
    return HeteroSVDConfig(m=SIZE, n=SIZE, p_eng=4, p_task=p_task)


def _run_expired(budget_s: float, plan=None):
    """Run a batch under ``budget_s`` and return the DeadlineExceeded."""
    executor = BatchExecutor(_config(), engine="software", jobs=1)
    batch = make_batch(SIZE, SIZE, batch=BATCH, seed=7)
    context = plan.activate() if plan is not None else None
    try:
        if context is not None:
            context.__enter__()
        with pytest.raises(DeadlineExceeded) as excinfo:
            executor.run(batch, deadline=Deadline(budget_s))
    finally:
        if context is not None:
            context.__exit__(None, None, None)
    return excinfo.value


def _mid_batch_budget(monkeypatch) -> float:
    """Cut the batch's one stacked run where its first tasks converge.

    The worker tests the deadline once per task, then once per
    tournament round of the stacked run's block sweeps.  Its tasks
    converge after 4 or 5 sweeps, all of them block sweeps, so the
    deadline expires at the first round of sweep 5: the 4-sweep tasks
    are complete and the rest are still sweeping.  Returns a budget
    the clock never exhausts.
    """
    batch = make_batch(SIZE, SIZE, batch=BATCH, seed=7)
    solo = [svd(a, method="block", block_width=4) for a in batch]
    first = min(result.sweeps for result in solo)
    assert first < max(result.sweeps for result in solo)
    counter = _CountdownDeadline(60.0)
    sweeps = svd(batch.matrices[0], method="block", block_width=4,
                  deadline=counter).sweeps
    rounds = counter.tests // sweeps
    monkeypatch.setattr(
        batch_module, "Deadline",
        lambda budget: _CountdownDeadline(budget, BATCH + first * rounds),
    )
    return 60.0


class TestDeadlinePartialAccounting:
    def test_immediate_expiry_names_every_pending_task(self):
        error = _run_expired(1e-9)
        partial = error.partial
        assert partial is not None
        assert partial.completed == 0
        assert partial.total == BATCH
        assert partial.details["completed_task_ids"] == []
        assert partial.details["pending_task_ids"] == list(range(BATCH))
        assert partial.details["degraded_task_ids"] == []
        assert partial.details["results"] == []

    def test_mid_batch_expiry_partitions_the_batch(self, monkeypatch):
        # The run is cut after the first tasks converge and before the
        # others do, so the partition is exercised from both sides.
        error = _run_expired(_mid_batch_budget(monkeypatch))
        partial = error.partial
        completed = partial.details["completed_task_ids"]
        pending = partial.details["pending_task_ids"]
        assert len(completed) >= 1
        assert len(pending) >= 1
        assert sorted(completed + pending) == list(range(BATCH))
        assert partial.completed == len(completed)

    def test_completed_results_ride_on_the_partial(self, monkeypatch):
        error = _run_expired(_mid_batch_budget(monkeypatch))
        results = error.partial.details["results"]
        assert [r.task_id for r in results] == (
            error.partial.details["completed_task_ids"]
        )
        batch = make_batch(SIZE, SIZE, batch=BATCH, seed=7)
        for result in results:
            assert isinstance(result, TaskResult)
            reference = np.linalg.svd(
                batch.matrices[result.task_id], compute_uv=False
            )
            np.testing.assert_allclose(
                np.sort(result.sigma)[::-1][: len(reference)],
                reference, rtol=1e-6, atol=1e-8,
            )

    def test_degraded_fallback_task_is_flagged_on_the_partial(
            self, monkeypatch):
        # Force task 0 (first invocation of the linalg site) onto the
        # LAPACK fallback, then expire mid-batch: the completed,
        # degraded task must be reported as both completed AND
        # degraded — a delivered answer, not a casualty of the expiry.
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(0,))]
        )
        error = _run_expired(_mid_batch_budget(monkeypatch), plan=plan)
        details = error.partial.details
        assert 0 in details["completed_task_ids"]
        assert 0 in details["degraded_task_ids"]
        by_id = {r.task_id: r for r in details["results"]}
        assert by_id[0].degraded
        assert details["degraded_task_ids"] == [
            r.task_id for r in details["results"] if r.degraded
        ]
