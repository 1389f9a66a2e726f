"""Tests for numerical graceful degradation (reference-SVD fallback)."""

import numpy as np
import pytest

from repro.core.dse import DesignSpaceExplorer
from repro.errors import (
    ConvergenceError,
    DegradedResultWarning,
    NumericalError,
)
from repro.exec.batch import BatchExecutor
from repro.linalg import hestenes_svd, svd
from repro.resilience import FaultPlan, FaultSpec
from repro.workloads.batch import make_batch

RNG = np.random.default_rng(3)


def _matrix(m=8, n=6):
    return RNG.standard_normal((m, n))


class TestHestenesFallback:
    def test_zero_budget_raises_with_populated_fields(self):
        a = _matrix()
        with pytest.raises(ConvergenceError) as excinfo:
            hestenes_svd(a, max_sweeps=0)
        error = excinfo.value
        assert error.iterations == 0
        assert error.residual == float("inf")
        assert "residual" in str(error)
        assert "iterations" in str(error)

    def test_reference_fallback_returns_degraded_result(self):
        a = _matrix()
        with pytest.warns(DegradedResultWarning):
            result = hestenes_svd(a, max_sweeps=0, fallback="reference")
        assert result.degraded
        assert not result.converged
        np.testing.assert_allclose(
            result.singular_values,
            np.linalg.svd(a, compute_uv=False),
            atol=1e-10,
        )
        # The factors still reconstruct the input.
        np.testing.assert_allclose(
            result.u * result.singular_values @ result.v.T, a, atol=1e-10
        )

    def test_converged_run_is_never_degraded(self):
        result = hestenes_svd(_matrix(), fallback="reference")
        assert result.converged
        assert not result.degraded

    def test_unknown_fallback_rejected(self):
        with pytest.raises(NumericalError, match="fallback"):
            hestenes_svd(_matrix(), fallback="wishful-thinking")

    def test_injected_nonconvergence_degrades(self):
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(0,))]
        )
        a = _matrix()
        with plan.activate():
            with pytest.warns(DegradedResultWarning):
                first = hestenes_svd(a, fallback="reference")
            second = hestenes_svd(a, fallback="reference")
        assert first.degraded
        assert not second.degraded  # fault fires once

    def test_injected_nonconvergence_without_fallback_raises(self):
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(0,))]
        )
        with plan.activate():
            with pytest.raises(ConvergenceError, match="injected fault"):
                hestenes_svd(_matrix())


class TestSvdFallback:
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_fallback_per_method(self, method):
        a = _matrix()
        with pytest.raises(ConvergenceError) as excinfo:
            svd(a, method=method, max_sweeps=0)
        assert excinfo.value.residual == float("inf")
        with pytest.warns(DegradedResultWarning):
            result = svd(a, method=method, max_sweeps=0,
                         fallback="reference")
        assert result.degraded
        np.testing.assert_allclose(
            result.singular_values,
            np.linalg.svd(a, compute_uv=False),
            atol=1e-10,
        )

    @pytest.mark.parametrize(
        "method", ["hestenes", "block", "dnc", "streaming"]
    )
    def test_unknown_fallback_rejected_per_method(self, method):
        with pytest.raises(NumericalError, match="fallback"):
            svd(_matrix(), method=method, fallback="wishful-thinking")


class TestConvergenceErrorContract:
    """Satellite: every raiser populates iterations and residual."""

    def test_incremental_zero_budget(self):
        from repro.core.incremental import IncrementalSVD

        tracker = IncrementalSVD(max_sweeps=0)
        with pytest.raises(ConvergenceError) as excinfo:
            tracker.update(_matrix())
        error = excinfo.value
        assert error.iterations == 0
        assert error.residual == float("inf")
        assert "residual" in str(error)


class TestBatchDegradation:
    @pytest.fixture(scope="class")
    def config(self):
        return DesignSpaceExplorer(32, 32, precision=1e-4).make_config(4, 2)

    @pytest.fixture(scope="class")
    def batch(self):
        return make_batch(32, 32, batch=4, seed=7)

    def test_degraded_tasks_reported_and_still_correct(self, config, batch):
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(0,))]
        )
        executor = BatchExecutor(config, engine="software", jobs=2)
        with plan.activate():
            with pytest.warns(DegradedResultWarning):
                report = executor.run(batch)
        # Each pipeline stream counts invocations independently, so the
        # fault fires once per worker stream.
        assert report.degraded_tasks >= 1
        assert sum(r.degraded for r in report.results) == \
            report.degraded_tasks
        # Degraded tasks still carry correct (reference) spectra.
        for result, matrix in zip(report.results, batch):
            reference = np.linalg.svd(matrix, compute_uv=False)
            sigma = np.sort(result.sigma)[::-1][: len(reference)]
            np.testing.assert_allclose(sigma, reference, atol=1e-3)

    def test_degrade_false_propagates(self, config, batch):
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(0,))]
        )
        executor = BatchExecutor(
            config, engine="software", jobs=1, degrade=False
        )
        with plan.activate():
            with pytest.raises(ConvergenceError, match="injected fault"):
                executor.run(batch)

    def test_clean_run_reports_zero_degraded(self, config, batch):
        report = BatchExecutor(config, engine="software", jobs=1).run(batch)
        assert report.degraded_tasks == 0
        assert not any(r.degraded for r in report.results)
