"""Deadline budgets: unit behavior and end-to-end expiry contracts."""

import importlib
import pickle
import time

import numpy as np
import pytest

from repro.errors import DeadlineExceeded, NumericalError
from repro.guard import Deadline, PartialResult, as_deadline
from repro.workloads.matrices import conditioned_matrix


class TestDeadline:
    def test_budget_accounting(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert 0.0 <= deadline.elapsed() < 1.0
        assert 59.0 < deadline.remaining() <= 60.0

    def test_zero_budget_expires_immediately(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_negative_and_nan_budget_rejected(self):
        with pytest.raises(NumericalError):
            Deadline(-1.0)
        with pytest.raises(NumericalError):
            Deadline(float("nan"))

    def test_check_raises_with_partial_result(self):
        deadline = Deadline(0.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check(
                kind="hestenes-sweep", completed=3, total=30,
                residual=1e-4, rotations=99,
            )
        partial = excinfo.value.partial
        assert partial.kind == "hestenes-sweep"
        assert partial.completed == 3
        assert partial.total == 30
        assert partial.residual == 1e-4
        assert partial.details["rotations"] == 99
        assert "3/30" in partial.describe()

    def test_check_noop_before_expiry(self):
        Deadline(60.0).check(kind="x", completed=0)

    def test_as_deadline_coercion(self):
        deadline = Deadline(5.0)
        assert as_deadline(deadline) is deadline
        assert as_deadline(None) is None
        assert isinstance(as_deadline(1.5), Deadline)
        with pytest.raises(NumericalError):
            as_deadline(True)
        with pytest.raises(NumericalError):
            as_deadline("soon")

    def test_exception_pickles_with_partial(self):
        with pytest.raises(DeadlineExceeded) as excinfo:
            Deadline(0.0).check(kind="batch", completed=1, total=4)
        rebuilt = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(rebuilt, DeadlineExceeded)
        assert rebuilt.partial.completed == 1

    def test_partial_result_describe_without_total(self):
        partial = PartialResult(kind="dse-sweep", completed=7)
        assert "7" in partial.describe()


class TestSolverDeadline:
    """The ISSUE acceptance contract: a 512x512 ill-conditioned solve
    with a 0.1 s budget raises within 2x the budget, carrying real
    progress accounting."""

    def test_hestenes_expires_within_twice_the_budget(self):
        from repro.linalg.svd import svd

        a = conditioned_matrix(512, 512, condition=1e12, seed=0)
        budget = 0.1
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as excinfo:
            svd(a, deadline=budget, precision=1e-12, max_sweeps=100)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0 * budget, (
            f"deadline honored {elapsed:.3f}s after a {budget}s budget"
        )
        error = excinfo.value
        assert error.budget_s == budget
        assert error.partial is not None
        assert error.partial.kind == "hestenes-sweep"
        assert error.partial.total is not None

    def test_block_method_also_expires(self):
        from repro.linalg.svd import svd

        a = conditioned_matrix(256, 256, condition=1e12, seed=1)
        with pytest.raises(DeadlineExceeded) as excinfo:
            svd(a, method="block", block_width=8, deadline=0.05,
                precision=1e-13, max_sweeps=100)
        assert excinfo.value.partial.kind == "block-sweep"

    @pytest.mark.parametrize("method,kind", [
        ("hestenes", "hestenes-sweep"),
        ("block", "block-sweep"),
        ("dnc", "dnc_merge"),
        ("streaming", "streaming_fold"),
    ])
    def test_expired_budget_raises_before_the_preconditioner(
            self, monkeypatch, method, kind):
        # The preconditioner's QR and LQ can outlast a short budget, so
        # an expired one must stop the solve before they run.  (The
        # module, not the ``repro.linalg.svd`` function.)
        svd_module = importlib.import_module("repro.linalg.svd")

        def no_prepare(*args, **kwargs):
            pytest.fail("_prepare ran after the deadline expired")

        monkeypatch.setattr(svd_module, "_prepare", no_prepare)
        a = conditioned_matrix(64, 64, condition=1e12, seed=0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            svd_module.svd(a, method=method, deadline=Deadline(0.0))
        assert excinfo.value.partial.kind == kind
        assert excinfo.value.partial.completed == 0

    def test_generous_deadline_does_not_interfere(self, rng):
        from repro.linalg.svd import svd

        a = rng.standard_normal((16, 16))
        result = svd(a, deadline=300.0)
        baseline = svd(a)
        assert np.array_equal(
            result.singular_values, baseline.singular_values
        )

    def test_solve_batch_shares_one_budget(self, rng):
        from repro.workloads.batch import make_batch, solve_batch

        batch = make_batch(96, 96, 12, seed=0)
        with pytest.raises(DeadlineExceeded):
            solve_batch(batch, deadline=0.01, precision=1e-12)


class _ExpiresAfterChecks(Deadline):
    """A deadline that reports expiry once ``passes`` checks have passed.

    A wall-clock budget makes "expire partway" a race against the
    sweep's speed; counting ``expired()`` checks (one per chunk
    boundary) pins the expiry to the same chunk on every machine.
    """

    __slots__ = ("_passes",)

    def __init__(self, passes: int):
        super().__init__(60.0)
        self._passes = passes

    def expired(self) -> bool:
        self._passes -= 1
        return self._passes < 0


class TestDseDeadline:
    def test_expired_dse_resumes_losing_at_most_one_chunk(self, tmp_path):
        from repro.core.dse import DesignSpaceExplorer
        from repro.exec.parallel import CHUNKS_PER_WORKER
        from repro.resilience import SweepCheckpoint

        explorer = DesignSpaceExplorer(64, 64)
        total = len(explorer.candidates())
        ck_path = tmp_path / "dse.ckpt.json"

        # Expire partway: after three chunks have been evaluated.
        with pytest.raises(DeadlineExceeded) as excinfo:
            explorer.explore(checkpoint=str(ck_path),
                             deadline=_ExpiresAfterChecks(3))
        partial = excinfo.value.partial
        assert partial.kind == "dse-sweep"
        assert partial.details["checkpointed"] is True
        assert 0 < partial.completed < total

        # Everything the expiry reported finished must be on disk —
        # the flush-before-raise contract (lose at most one chunk).
        chunk = max(CHUNKS_PER_WORKER, 8)  # jobs=1, default flush interval
        checkpoint = SweepCheckpoint(ck_path, kind="dse-sweep")
        assert len(checkpoint) >= partial.completed
        assert len(checkpoint) <= partial.completed + chunk

        # Resume with no deadline completes and matches a clean run.
        resumed = explorer.explore(checkpoint=ck_path)
        clean = explorer.explore()
        assert len(resumed) == len(clean) == total
        assert [(p.config.p_eng, p.config.p_task) for p in resumed] == \
            [(p.config.p_eng, p.config.p_task) for p in clean]
        assert [p.latency for p in resumed] == [p.latency for p in clean]

    def test_best_forwards_deadline(self):
        from repro.core.dse import DesignSpaceExplorer

        with pytest.raises(DeadlineExceeded):
            DesignSpaceExplorer(128, 128).best(deadline=0.0)


class TestBatchExecutorDeadline:
    def test_expiry_carries_completed_task_ids(self):
        from repro.core.config import HeteroSVDConfig
        from repro.exec.batch import BatchExecutor
        from repro.workloads.batch import make_batch

        config = HeteroSVDConfig(m=32, n=32, p_eng=4, p_task=2,
                                 precision=1e-4)
        executor = BatchExecutor(config, engine="software", jobs=1)
        batch = make_batch(32, 32, 6, seed=0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            executor.run(batch, deadline=1e-6)
        partial = excinfo.value.partial
        assert partial.kind == "batch"
        assert partial.total == 6
        assert partial.completed < 6
        assert partial.completed == \
            len(partial.details["completed_task_ids"])

    def test_generous_deadline_matches_plain_run(self):
        from repro.core.config import HeteroSVDConfig
        from repro.exec.batch import BatchExecutor
        from repro.workloads.batch import make_batch

        config = HeteroSVDConfig(m=24, n=24, p_eng=4, p_task=2,
                                 precision=1e-4)
        batch = make_batch(24, 24, 4, seed=0)
        executor = BatchExecutor(config, engine="software", jobs=1)
        bounded = executor.run(batch, deadline=300.0)
        plain = executor.run(batch)
        assert [r.task_id for r in bounded.results] == \
            [r.task_id for r in plain.results]
        for a, b in zip(bounded.results, plain.results):
            assert np.array_equal(a.sigma, b.sigma)


class TestSensitivityDeadline:
    def test_expiry_persists_completed_knobs(self, tmp_path):
        from repro.analysis.sensitivity import sensitivity_analysis
        from repro.core.config import HeteroSVDConfig

        config = HeteroSVDConfig(m=64, n=64, p_eng=8, p_task=1,
                                 fixed_iterations=6)
        ck_path = tmp_path / "sens.ckpt.json"
        with pytest.raises(DeadlineExceeded) as excinfo:
            sensitivity_analysis(config, checkpoint=str(ck_path),
                                 deadline=0.0)
        assert excinfo.value.partial.kind == "sensitivity"

        # The resumed run completes and matches a clean run.
        resumed = sensitivity_analysis(config, checkpoint=str(ck_path))
        clean = sensitivity_analysis(config)
        assert [r.parameter for r in resumed] == \
            [r.parameter for r in clean]


class TestRetryInteraction:
    def test_deadline_exceeded_is_never_retried(self):
        from repro.resilience import RetryPolicy

        calls = []

        def expire():
            calls.append(1)
            Deadline(0.0).check(kind="x", completed=0)

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(DeadlineExceeded):
            policy.call(expire)
        assert len(calls) == 1
