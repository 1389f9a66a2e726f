"""A stacked Jacobi run pinned bit for bit to one run per matrix.

:func:`repro.linalg.hestenes._block_jacobi_svd` factors a list of
same-shape matrices on one stacked ``W = [B_1 ... B_T; V_1 ... V_T]``,
one round-kernel call per round for all of them, and
:func:`repro.linalg.svd._svd_many` (behind ``solve_batch`` and the
batch executor) stacks its tasks by prepared shape.  Every matrix keeps
its own floor, residual, sweep and rotation counts and stopping point,
so each result must carry the same bits as a solo run: U, sigma, V,
sweeps, sweep residuals and rotations.  One task's non-convergence,
injected fault or deadline cut must not touch another task's bits.
"""

import warnings

import numpy as np
import pytest

from repro.core.config import HeteroSVDConfig
from repro.errors import (
    ConvergenceError,
    DeadlineExceeded,
    DegradedResultWarning,
)
from repro.exec.batch import BatchExecutor
from repro.linalg import svd
from repro.linalg.convergence import pair_convergence_ratios
from repro.linalg.hestenes import _block_jacobi_svd
from repro.linalg.orderings import ShiftingRingOrdering
from repro.linalg.svd import _svd_many
from repro.resilience import FaultPlan, FaultSpec
from repro.workloads.batch import TaskBatch
from tests.exec.test_deadline_partial import _CountdownDeadline
from tests.linalg.test_strategy_parity import running_kernel


def _inputs(kind, count, seed=0):
    """``count`` different matrices of one input class."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if kind == "tall":
            a = rng.standard_normal((20, 12))
        elif kind == "wide":
            a = rng.standard_normal((12, 20))
        elif kind == "padded":
            # 11 columns: hestenes pads to 12, block width 4 to 12.
            a = rng.standard_normal((13, 11))
        elif kind == "float32":
            a = rng.standard_normal((16, 12)).astype(np.float32)
        elif kind == "rank_deficient":
            a = rng.standard_normal((16, 6)) @ rng.standard_normal((6, 12))
        elif kind == "huge":
            a = rng.standard_normal((14, 12)) * 1e300
        elif kind == "tiny":
            a = rng.standard_normal((14, 12)) * 1e-300
        out.append(a)
    return out


def _bits(result):
    return (
        result.u.tobytes(),
        result.singular_values.tobytes(),
        result.v.tobytes(),
        result.sweeps,
        np.asarray(result.sweep_residuals).tobytes(),
        result.converged,
        result.degraded,
    )


def _method_kwargs(method):
    return {"block_width": 4} if method == "block" else {}


KINDS = ["tall", "wide", "padded", "float32", "rank_deficient", "huge",
         "tiny"]


class TestStackEqualsSoloRuns:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("kernel_name", ["scalar", "vectorized"])
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_svd_bit_identical(self, count, method, kernel_name, kind):
        matrices = _inputs(kind, count, seed=count)
        kwargs = dict(method=method, **_method_kwargs(method))
        with running_kernel(kernel_name):
            stacked = _svd_many(matrices, **kwargs)
            for a, got in zip(matrices, stacked):
                assert _bits(got) == _bits(svd(a, **kwargs))

    @pytest.mark.parametrize("kernel_name", ["scalar", "vectorized"])
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_driver_rotations_bit_identical(self, count, method,
                                            kernel_name):
        rng = np.random.default_rng(count)
        matrices = [rng.standard_normal((18, 16)) for _ in range(count)]
        # Graded columns converge at different sweeps: the set of
        # sweeping matrices shrinks along the way.
        matrices[0][:, ::2] *= 1e-6
        width = 8 if method == "hestenes" else 4
        args = dict(block_width=width, precision=1e-10, max_sweeps=60,
                    ordering_cls=ShiftingRingOrdering, fixed_sweeps=None,
                    method=method)
        with running_kernel(kernel_name):
            stacked = _block_jacobi_svd(matrices, **args)
            for a, got in zip(matrices, stacked):
                want = _block_jacobi_svd(a, **args)
                assert _bits(got) == _bits(want)
                assert got.rotations == want.rotations

    @pytest.mark.filterwarnings("ignore::repro.errors.DegradedResultWarning")
    @pytest.mark.parametrize("method", ["hestenes", "block"])
    @pytest.mark.parametrize("run", [
        {"fixed_sweeps": 2},
        {"fixed_sweeps": 0},
        {"check_invariants": True},
        {"precision": 1e-12},
    ], ids=["fixed2", "fixed0", "invariants", "precision"])
    def test_modes_bit_identical(self, method, run):
        matrices = _inputs("tall", 3) + _inputs("rank_deficient", 2)
        kwargs = dict(method=method, **_method_kwargs(method), **run)
        for a, got in zip(matrices, _svd_many(matrices, **kwargs)):
            assert _bits(got) == _bits(svd(a, **kwargs))

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_mixed_shapes_and_orientations(self, method):
        # A 20x12 and a 12x20 task are the same prepared problem and
        # share one stack; the 13x11 tasks form a second one.
        matrices = (_inputs("tall", 2) + _inputs("wide", 2)
                    + _inputs("padded", 2) + _inputs("tall", 1, seed=9))
        kwargs = dict(method=method, **_method_kwargs(method))
        for a, got in zip(matrices, _svd_many(matrices, **kwargs)):
            assert _bits(got) == _bits(svd(a, **kwargs))

    def test_other_methods_and_complex_run_one_by_one(self):
        rng = np.random.default_rng(3)
        matrices = [rng.standard_normal((12, 8)),
                    rng.standard_normal((8, 6)) + 1j * rng.standard_normal(
                        (8, 6)),
                    rng.standard_normal((12, 8))]
        for method in ("dnc", "hestenes"):
            got = _svd_many(matrices, method=method)
            for a, result in zip(matrices, got):
                want = svd(a, method=method)
                assert result.singular_values.tobytes() == \
                    want.singular_values.tobytes()


class TestOneTaskDegradesAlone:
    def _hard_and_easy(self):
        rng = np.random.default_rng(11)
        easy = [np.linalg.qr(rng.standard_normal((16, 12)))[0]
                * np.arange(1.0, 13.0) for _ in range(2)]
        hard = rng.standard_normal((16, 12))
        return [easy[0], hard, easy[1]]

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_exhausted_max_sweeps(self, method):
        matrices = self._hard_and_easy()
        kwargs = dict(method=method, **_method_kwargs(method))
        budget = max(svd(matrices[0], **kwargs).sweeps,
                     svd(matrices[2], **kwargs).sweeps)
        assert svd(matrices[1], **kwargs).sweeps > budget
        kwargs["max_sweeps"] = budget
        with pytest.raises(ConvergenceError) as solo:
            svd(matrices[1], **kwargs)
        # Without a fallback the first failure raises ...
        with pytest.raises(ConvergenceError) as stacked:
            _svd_many(matrices, **kwargs)
        assert str(stacked.value) == str(solo.value)
        # ... and with one, only the hard task degrades.
        kwargs["fallback"] = "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            got = _svd_many(matrices, **kwargs)
            want = [svd(a, **kwargs) for a in matrices]
        assert [_bits(r) for r in got] == [_bits(r) for r in want]
        assert [r.degraded for r in got] == [False, True, False]

    def test_injected_nonconvergence(self):
        matrices = self._hard_and_easy()
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(1,))]
        )
        with plan.activate(), pytest.warns(DegradedResultWarning):
            got = _svd_many(matrices, method="hestenes",
                            fallback="reference")
        assert [r.degraded for r in got] == [False, True, False]
        for i in (0, 2):
            assert _bits(got[i]) == _bits(svd(matrices[i]))

    @pytest.mark.parametrize("method", ["hestenes", "block"])
    def test_executor_degrades_the_faulted_task_only(self, method):
        matrices = _inputs("tall", 4, seed=5)
        config = HeteroSVDConfig(m=20, n=12, p_eng=4, p_task=2)
        plan = FaultPlan(
            faults=[FaultSpec(site="linalg.nonconvergence", at=(2,))]
        )
        executor = BatchExecutor(config, engine="software", jobs=1,
                                 method=method)
        with plan.activate(), pytest.warns(DegradedResultWarning):
            report = executor.run(TaskBatch(m=20, n=12, matrices=matrices))
        degraded = [r.task_id for r in report.results if r.degraded]
        assert len(degraded) == 1
        for result in report.results:
            a = matrices[result.task_id]
            if result.degraded:
                want = np.linalg.svd(a, compute_uv=False)
            else:
                want = svd(a, method=method, precision=config.precision,
                           **_method_kwargs(method)).singular_values
            assert result.sigma.tobytes() == want.tobytes()


class TestDeadlineCut:
    def test_first_converged_are_delivered(self):
        rng = np.random.default_rng(4)
        easy = np.linalg.qr(rng.standard_normal((16, 12)))[0] * np.arange(
            1.0, 13.0)
        matrices = [rng.standard_normal((16, 12)), easy,
                    rng.standard_normal((16, 12))]
        args = dict(block_width=4, precision=1e-10, max_sweeps=60,
                    ordering_cls=ShiftingRingOrdering, fixed_sweeps=None,
                    method="block")
        solo = [_block_jacobi_svd(a, **args) for a in matrices]
        counter = _CountdownDeadline(60.0)
        _block_jacobi_svd(matrices[1], deadline=counter, **args)
        rounds = counter.tests // solo[1].sweeps
        assert solo[1].sweeps < min(solo[0].sweeps, solo[2].sweeps)
        # Expire at the first round after the easy matrix converged.
        deadline = _CountdownDeadline(60.0, solo[1].sweeps * rounds)
        got = _block_jacobi_svd(matrices, deadline=deadline, **args)
        assert _bits(got[1]) == _bits(solo[1])
        assert got[1].rotations == solo[1].rotations
        for i in (0, 2):
            assert isinstance(got[i], DeadlineExceeded)
            assert got[i].partial.completed == solo[1].sweeps


class TestPerPairFloor:
    @pytest.mark.parametrize("zero_sq", [0.0, 1e-200, 1.0, -1.0])
    def test_scalar_floor_equals_repeated_array(self, rng, zero_sq):
        n = 64
        alpha = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.integers(-250, 250, n)
        beta = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.integers(-250, 250, n)
        gamma = rng.standard_normal(n) * np.sqrt(alpha) * np.sqrt(beta)
        alpha[:3] = 0.0
        beta[3] = np.nan
        want = pair_convergence_ratios(alpha, beta, gamma, zero_sq)
        got = pair_convergence_ratios(alpha, beta, gamma,
                                      np.full(n, zero_sq))
        assert got.tobytes() == want.tobytes()

    def test_each_pair_uses_its_own_floor(self):
        alpha = np.array([1.0, 1.0])
        beta = np.array([1.0, 1.0])
        gamma = np.array([0.5, 0.5])
        ratios = pair_convergence_ratios(alpha, beta, gamma,
                                         np.array([0.0, 2.0]))
        assert ratios.tolist() == [0.5, 0.0]
