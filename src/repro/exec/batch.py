"""Parallel execution of batched SVD task streams.

:class:`BatchExecutor` is the runtime counterpart of
:class:`~repro.core.scheduler.BatchScheduler`: the scheduler *plans* a
batch onto the ``P_task`` pipelines of a design point, and the executor
actually *runs* the resulting per-pipeline streams — up to one worker
per pipeline, mirroring the accelerator's task-level parallelism on
the host.  Table III / Fig. 9 batch 100 same-sized SVDs this way; the
executor also accepts mixed sizes via the scheduler's LPT placement.

Each worker factors its pipelines' matrices with either the functional
accelerator model (``engine="accelerator"``) or the software
block-Jacobi solver (``engine="software"``, which stacks a worker's
same-shape tasks into shared Jacobi runs), and reports its wall-clock
makespan.  The report compares the parallel wall-clock against the
summed per-worker time (the serial equivalent) and against the
performance model's predicted makespan.
"""

from __future__ import annotations

import contextlib
import math
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import HeteroSVDConfig
from repro.core.scheduler import BatchScheduler, Schedule
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    DegradedResultWarning,
)
from repro.exec.parallel import ParallelRunner, resolve_jobs
from repro.guard.deadline import Deadline, PartialResult, as_deadline
from repro.linalg.svd import METHODS
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience import faults as _faults
from repro.resilience.retry import call_with_retry
from repro.workloads.batch import TaskBatch

VALID_ENGINES = ("accelerator", "software")


@dataclass(frozen=True)
class TaskResult:
    """Singular values of one completed task.

    ``degraded`` marks tasks whose solver did not converge and whose
    singular values come from the reference (LAPACK) fallback instead.
    """

    task_id: int
    pipeline: int
    sigma: np.ndarray
    degraded: bool = False


@dataclass(frozen=True)
class PipelineRun:
    """Wall-clock record of one pipeline worker.

    Attributes:
        pipeline: Pipeline index (0 .. P_task - 1).
        task_ids: Tasks executed, in stream order.
        wall_time: Measured seconds spent by the worker that ran this
            pipeline (pipelines sharing a worker report the same time).
        modelled_time: The scheduler's predicted busy time.
    """

    pipeline: int
    task_ids: Tuple[int, ...]
    wall_time: float
    modelled_time: float


@dataclass
class BatchReport:
    """Outcome of one batch execution.

    Attributes:
        schedule: The plan the workers followed.
        runs: Per-pipeline wall-clock records.
        results: Per-task singular values, in input order.
        wall_makespan: End-to-end measured seconds (pool overhead
            included).
        serial_time: Sum of per-worker wall times, each worker counted
            once — approximately what one worker would have needed (on
            an oversubscribed host, workers time-share cores and this
            overstates true serial time, so ``speedup`` is an upper
            bound there).
        modelled_makespan: The performance model's predicted makespan.
        degraded_tasks: Tasks answered by the reference fallback after
            their solver failed to converge (0 = fully converged batch).
    """

    schedule: Schedule
    runs: List[PipelineRun]
    results: List[TaskResult]
    wall_makespan: float
    serial_time: float
    modelled_makespan: float
    degraded_tasks: int = 0

    @property
    def speedup(self) -> float:
        """Measured speedup of parallel execution over serial."""
        if self.wall_makespan == 0:
            return 1.0
        return self.serial_time / self.wall_makespan

    @property
    def efficiency(self) -> float:
        """Speedup normalized by the worker count (1 = perfect)."""
        if not self.runs:
            return 1.0
        return self.speedup / len(self.runs)


def _pad_columns(a: np.ndarray, p_eng: int) -> np.ndarray:
    """Zero-pad columns so blocks tile evenly (>= 2 blocks)."""
    m, n = a.shape
    blocks = max(2, math.ceil(n / p_eng))
    padded_n = blocks * p_eng
    if padded_n == n:
        return a
    return np.hstack([a, np.zeros((m, padded_n - n))])


def _factor_task(
    matrix: np.ndarray,
    config,
    engine: str,
    deadline: Optional[Deadline] = None,
    check_invariants: bool = False,
    method: str = "block",
) -> np.ndarray:
    """Singular values of one task matrix via the selected engine.

    ``method`` selects the software solver (``"block"``,
    ``"hestenes"``, ``"dnc"`` or ``"streaming"``); the accelerator
    engine models hardware round by round and ignores it (deadlines
    apply between its tasks, not within them).
    Either engine returns ``min(m, n)`` values: the accelerator's
    padding columns only add zeros, which are dropped.
    """
    if engine == "accelerator":
        from repro.core.accelerator import HeteroSVDAccelerator

        padded = _pad_columns(matrix, config.p_eng)
        task_config = HeteroSVDConfig(
            m=padded.shape[0],
            n=padded.shape[1],
            p_eng=config.p_eng,
            p_task=config.p_task,
            pl_frequency_hz=config.pl_frequency_hz,
            precision=config.precision,
            fixed_iterations=config.fixed_iterations,
            use_codesign=config.use_codesign,
            device=config.device,
        )
        sigma = HeteroSVDAccelerator(task_config).run(padded).sigma
        return sigma[:min(matrix.shape)]
    from repro.linalg import svd

    return svd(
        matrix,
        method=method,
        block_width=config.p_eng if method == "block" else None,
        precision=config.precision,
        deadline=deadline,
        check_invariants=check_invariants,
    ).singular_values


def _run_pipeline(
    payload: Tuple,
) -> Tuple[List[int], float, List[Tuple[int, np.ndarray, bool]], bool]:
    """Worker: factor the task streams of the pipelines it was given.

    The pipelines' streams run as one stream, pipeline by pipeline, in
    schedule order.  Every per-task check and fault hook fires in that
    order; the software engine's ``"block"``/``"hestenes"`` tasks are
    prepared there and then factored together, each same-shape group
    as one stacked Jacobi run
    (:func:`repro.linalg.svd._svd_stacked`).  The other tasks (the
    accelerator engine; dnc, streaming and complex tasks) are
    factored one by one as the stream reaches them.

    When a worker-side fault plan ships with the payload it is
    activated for the stream, so ``linalg.*`` sites fire inside the
    pool worker.  A task whose solver raises :class:`ConvergenceError`
    degrades to the reference LAPACK singular values of its matrix
    (``degrade=True``, the default) instead of killing the stream.

    A deadline budget ships as plain remaining-seconds (re-anchored
    here — a :class:`Deadline` instance must not cross the process
    boundary, and exceptions raised in a worker lose state in pickling
    anyway).  On expiry the worker stops cleanly and returns the tasks
    it completed (for a stacked run, the ones that converged first)
    with ``expired=True``; the parent converts the flags into one
    :class:`~repro.errors.DeadlineExceeded`.
    """
    (pipelines, config, engine, degrade, worker_plan,
     budget_s, check_invariants, method) = payload
    from repro.linalg.svd import JACOBI_METHODS, _prepare, _svd_stacked

    started = time.perf_counter()
    deadline = Deadline(budget_s) if budget_s is not None else None
    stack = engine == "software" and method in JACOBI_METHODS
    block_width = config.p_eng if method == "block" else None
    expired = False
    done: Dict[int, Tuple[np.ndarray, bool]] = {}
    deferred = []

    def settle(task_id, matrix, outcome) -> None:
        # ``outcome``: the task's singular values, or the
        # ConvergenceError it ended with.
        if not isinstance(outcome, ConvergenceError):
            done[task_id] = (np.asarray(outcome), False)
        elif degrade:
            done[task_id] = (
                np.linalg.svd(np.asarray(matrix), compute_uv=False), True
            )
        else:
            raise outcome

    context = (
        worker_plan.activate() if worker_plan is not None
        else contextlib.nullcontext()
    )
    stream = [task for _, tasks in pipelines for task in tasks]
    with context:
        for task_id, matrix in stream:
            if deadline is not None and deadline.expired():
                expired = True
                break
            try:
                if _faults.fired("linalg.nonconvergence") is not None:
                    raise ConvergenceError(
                        f"injected fault: forced non-convergence on task "
                        f"{task_id} (iterations=0, residual=inf)",
                        iterations=0,
                        residual=float("inf"),
                    )
                if stack and np.isrealobj(matrix):
                    deferred.append((task_id, matrix, _prepare(
                        matrix, method, block_width, validate=True,
                        prescale="auto", fallback=None,
                    )))
                    continue
                sigma = _factor_task(
                    matrix, config, engine,
                    deadline=deadline, check_invariants=check_invariants,
                    method=method,
                )
            except DeadlineExceeded:
                expired = True
                break
            except ConvergenceError as error:
                sigma = error
            settle(task_id, matrix, sigma)
        outcomes = _svd_stacked(
            [task for _, _, task in deferred],
            method=method,
            precision=config.precision,
            deadline=deadline,
            check_invariants=check_invariants,
        )
        for (task_id, matrix, _), outcome in zip(deferred, outcomes):
            if isinstance(outcome, DeadlineExceeded):
                expired = True
            elif isinstance(outcome, ConvergenceError):
                settle(task_id, matrix, outcome)
            else:
                settle(task_id, matrix, outcome.singular_values)
    outputs = [
        (task_id, *done[task_id]) for task_id, _ in stream
        if task_id in done
    ]
    return ([pipeline for pipeline, _ in pipelines],
            time.perf_counter() - started, outputs, expired)


class BatchExecutor:
    """Runs SVD task batches through ``P_task`` pipeline workers.

    Args:
        config: The deployed design point; its ``p_task`` sets the
            worker count and ``p_eng`` the block width.
        engine: ``"accelerator"`` (functional hardware model, the
            default) or ``"software"`` (block-Jacobi solver).
        jobs: OS-level parallelism cap; None resolves via
            ``HETEROSVD_JOBS`` and then defaults to ``p_task`` — the
            pipelines are logically concurrent regardless, matching
            the accelerator.
        cache: Optional :class:`~repro.exec.cache.EvalCache` shared
            with the scheduler's cost oracle.
        retry: Optional :class:`~repro.resilience.RetryPolicy`; the
            pipeline fan-out is re-attempted under it, so a transient
            worker crash does not kill the batch.
        degrade: When True (default), a task whose solver raises
            :class:`~repro.errors.ConvergenceError` falls back to the
            reference LAPACK singular values and is reported via
            ``BatchReport.degraded_tasks``; when False the error
            propagates.
        stall_timeout: Optional watchdog timeout (seconds) for the
            pipeline fan-out; a stalled worker raises a retryable
            :class:`~repro.errors.ParallelExecutionError` instead of
            hanging the batch (see
            :class:`~repro.exec.parallel.ParallelRunner`).
        check_invariants: Verify factorization invariants for every
            software-engine task (see :func:`repro.linalg.svd`);
            ignored by the accelerator engine.
        method: Solver for the software engine, one of
            :data:`repro.linalg.svd.METHODS` — ``"block"`` (default),
            ``"hestenes"``, ``"dnc"`` or ``"streaming"`` (see
            :func:`repro.linalg.svd` and the crossover study in
            ``docs/workloads.md``); ignored by the accelerator engine.
    """

    def __init__(
        self,
        config: HeteroSVDConfig,
        engine: str = "accelerator",
        jobs: Optional[int] = None,
        cache=None,
        retry=None,
        degrade: bool = True,
        stall_timeout: Optional[float] = None,
        check_invariants: bool = False,
        method: str = "block",
    ):
        if engine not in VALID_ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {VALID_ENGINES}"
            )
        if method not in METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        self.config = config
        self.engine = engine
        self.jobs = jobs
        self.retry = retry
        self.degrade = degrade
        self.stall_timeout = stall_timeout
        self.check_invariants = check_invariants
        self.method = method
        self.scheduler = BatchScheduler(config, cost_cache=cache)

    def run(
        self, batch: TaskBatch, policy: str = "lpt", deadline=None
    ) -> BatchReport:
        """Schedule and execute a batch.

        Args:
            batch: Same-sized or mixed-size tasks.
            policy: Scheduling policy (``"lpt"`` or ``"fifo"``).
            deadline: Optional wall-clock budget (a
                :class:`~repro.guard.Deadline` or seconds) shared by
                all pipelines.  On expiry the batch raises
                :class:`~repro.errors.DeadlineExceeded` whose
                :class:`~repro.guard.PartialResult` accounts for every
                task: ``details["results"]`` carries the completed
                :class:`TaskResult` objects (degraded flags intact),
                ``details["completed_task_ids"]`` /
                ``details["pending_task_ids"]`` /
                ``details["degraded_task_ids"]`` partition the batch,
                so callers (e.g. the serving layer) can deliver the
                finished prefix instead of discarding it.
        """
        if len(batch) == 0:
            raise ConfigurationError("cannot execute an empty batch")
        deadline = as_deadline(deadline)
        specs = batch.to_specs()
        with _tracer.span("batch.schedule", category="batch",
                          tasks=len(specs), policy=policy):
            schedule = self.scheduler.schedule(specs, policy)
            assignment = self.scheduler.assignment(schedule)

        matrices = list(batch)
        # Ship the linalg.* fault sites (if any) to the pool workers;
        # subset() hands each worker's stream fresh counters.
        plan = _faults.active_plan()
        worker_plan = plan.subset("linalg.") if plan is not None else None
        if worker_plan is not None and not worker_plan.specs:
            worker_plan = None
        streams = [
            (pipeline, [(spec.task_id, matrices[spec.task_id])
                        for spec in specs_])
            for pipeline, specs_ in enumerate(assignment)
            if specs_
        ]
        if self.jobs is None:
            env_jobs = resolve_jobs(None)
            workers = self.config.p_task if env_jobs == 1 else env_jobs
        else:
            workers = resolve_jobs(self.jobs)
        workers = min(workers, max(1, len(streams)))
        # One payload per OS worker: the pipelines dealt to a worker
        # run as one stream, so their same-shape tasks share stacked
        # Jacobi runs.
        payloads = [
            (
                streams[first::workers],
                self.config,
                self.engine,
                self.degrade,
                worker_plan,
                deadline.remaining() if deadline is not None else None,
                self.check_invariants,
                self.method,
            )
            for first in range(workers)
        ]
        runner = ParallelRunner(jobs=workers, stall_timeout=self.stall_timeout)

        started = time.perf_counter()
        with _tracer.span("batch.execute", category="batch",
                          pipelines=len(payloads), engine=self.engine):
            # Close the pool before returning: a leaked executor races
            # the interpreter's atexit teardown (EBADF noise on exit).
            with runner:
                raw = call_with_retry(
                    self.retry, runner.map, _run_pipeline, payloads
                )
        wall_makespan = time.perf_counter() - started

        runs: List[PipelineRun] = []
        results: List[Optional[TaskResult]] = [None] * len(specs)
        degraded_tasks = 0
        any_expired = False
        pipeline_of = {
            spec.task_id: pipeline
            for pipeline, specs_ in enumerate(assignment) for spec in specs_
        }
        serial_time = 0.0
        for pipelines, wall, outputs, expired in raw:
            any_expired = any_expired or expired
            serial_time += wall
            for pipeline in pipelines:
                runs.append(
                    PipelineRun(
                        pipeline=pipeline,
                        task_ids=tuple(
                            task_id for task_id, _, _ in outputs
                            if pipeline_of[task_id] == pipeline
                        ),
                        wall_time=wall,
                        modelled_time=schedule.pipeline_times[pipeline],
                    )
                )
            for task_id, sigma, degraded in outputs:
                results[task_id] = TaskResult(
                    task_id=task_id, pipeline=pipeline_of[task_id],
                    sigma=sigma, degraded=degraded,
                )
                if degraded:
                    degraded_tasks += 1
        runs.sort(key=lambda r: r.pipeline)
        if any_expired:
            # Every task must be accounted for on the partial: the
            # completed prefix travels as real TaskResults (degraded
            # flags intact — a LAPACK-fallback task that finished
            # before the cut-off is still a delivered answer), and the
            # unfinished remainder is named in pending_task_ids rather
            # than silently vanishing.
            completed_results = sorted(
                (r for r in results if r is not None),
                key=lambda r: r.task_id,
            )
            completed_ids = [r.task_id for r in completed_results]
            pending_ids = sorted(
                spec.task_id for spec in specs
                if results[spec.task_id] is None
            )
            elapsed = deadline.elapsed() if deadline is not None else 0.0
            budget = deadline.budget_s if deadline is not None else 0.0
            _metrics.counter("guard.deadline_expired").inc()
            raise DeadlineExceeded(
                f"batch deadline of {budget:.3f}s expired with "
                f"{len(completed_ids)}/{len(specs)} tasks completed",
                budget_s=budget,
                elapsed_s=elapsed,
                partial=PartialResult(
                    kind="batch",
                    completed=len(completed_ids),
                    total=len(specs),
                    elapsed_s=elapsed,
                    budget_s=budget,
                    details={
                        "completed_task_ids": completed_ids,
                        "pending_task_ids": pending_ids,
                        "degraded_task_ids": [
                            r.task_id for r in completed_results
                            if r.degraded
                        ],
                        "results": completed_results,
                    },
                ),
            )
        _metrics.counter("batch.tasks").inc(len(specs))
        _metrics.gauge("batch.wall_makespan_s").set(wall_makespan)
        for run in runs:
            _metrics.histogram("batch.pipeline_seconds").observe(
                run.wall_time
            )
        if degraded_tasks:
            # Worker-side metric increments die with the pool process,
            # so the count is credited parent-side from the results.
            _metrics.counter("resilience.degraded_tasks").inc(degraded_tasks)
            warnings.warn(
                f"{degraded_tasks} of {len(specs)} tasks did not converge "
                f"and fell back to reference LAPACK singular values",
                DegradedResultWarning,
                stacklevel=2,
            )
        return BatchReport(
            schedule=schedule,
            runs=runs,
            results=[r for r in results if r is not None],
            wall_makespan=wall_makespan,
            serial_time=serial_time,
            modelled_makespan=schedule.makespan,
            degraded_tasks=degraded_tasks,
        )
