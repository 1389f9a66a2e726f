"""Declared benchmark suites for ``repro bench``.

Each suite is a named list of :class:`~repro.bench.runner.BenchCase`
objects built by a factory that takes a ``size`` knob, so the same
suite runs at full scale locally (``--size 256``) and as a seconds-long
smoke test in CI (``--size 48``).  The registry:

* ``dse`` — a full design-space exploration sweep (feasibility +
  modelled evaluation of every candidate point).
* ``dse_sharded`` — the widened space (ring orderings x frequency
  derates) swept serially and as a 2-shard process sweep with merge;
  the sharded case asserts merged-frontier parity with the serial
  reference (see docs/resilience.md's sharded-sweeps section).
* ``scheduler`` — LPT scheduling and pipeline assignment of a large
  mixed-size batch through :class:`~repro.core.scheduler.BatchScheduler`.
* ``batch`` — end-to-end :class:`~repro.exec.batch.BatchExecutor` runs
  over a same-sized task batch, one case per engine.
* ``serve`` — the serving-layer load generator: a seeded request burst
  through an in-process ``heterosvd serve`` daemon (or an external one
  when ``HETEROSVD_SERVE_ADDR`` is set), reporting p50/p99 latency,
  throughput, shed-rate and degraded-rate (see docs/serving.md).
* ``chaos`` — the same burst against an in-process daemon under a
  seeded serve-layer fault plan (injected engine faults, a dispatcher
  crash, dropped responses): the case asserts the exactly-one-response
  invariant and reports the breaker/requeue/supervision counters next
  to the usual latency metrics (see docs/serving.md's failure-mode
  matrix).

Cases only read their ``seed`` argument and module-level constants, so
a suite run is deterministic up to wall-clock noise; the recorded
``metrics`` (sweep counts, point counts, makespans) are bit-stable and
double as a cheap correctness cross-check between runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.bench.runner import BenchCase
from repro.errors import BenchmarkError

#: Default problem size per suite when ``--size`` is not given.
DEFAULT_SIZES = {
    "dse": 64,
    "dse_sharded": 48,
    "scheduler": 400,
    "batch": 32,
    "serve": 200,
    "chaos": 120,
    "workloads": 96,
}


def _dse_cases(size: int) -> List[BenchCase]:
    from repro.core.dse import DesignSpaceExplorer

    def explore(objective: str) -> Callable[[int], Dict[str, Any]]:
        def run(seed: int) -> Dict[str, Any]:
            explorer = DesignSpaceExplorer(size, size)
            points = explorer.explore(objective, batch=20)
            best = points[0]
            return {
                "points": len(points),
                "objective": objective,
                "best_p_eng": best.config.p_eng,
                "best_p_task": best.config.p_task,
            }

        return run

    return [
        BenchCase(f"dse_latency_{size}", explore("latency")),
        BenchCase(f"dse_throughput_{size}", explore("throughput")),
    ]


def _dse_sharded_cases(size: int) -> List[BenchCase]:
    """The sharded sweep over the widened space, parity-pinned.

    ``dse_wide_serial_<n>`` measures the serial reference sweep of the
    widened space (orderings x derates, several times the classic
    candidate count); ``dse_sharded_<n>`` runs the same space as a
    2-shard process sweep plus merge and *asserts* the merged Pareto
    frontier is byte-identical to the serial one — a silent parity
    break fails the benchmark rather than blessing a wrong frontier.
    """
    import json
    import shutil
    import tempfile

    from repro.analysis.pareto import merge_shards, pareto_front
    from repro.dse import DesignSpace, run_sharded
    from repro.io import design_point_to_dict

    def space() -> "DesignSpace":
        return DesignSpace(size, size, fixed_iterations=4)

    def frontier_bytes(points) -> str:
        return json.dumps(
            [design_point_to_dict(p) for p in points], sort_keys=True
        )

    def serial_run(seed: int) -> Dict[str, Any]:
        s = space()
        points = s.explore_serial()
        front = pareto_front(points)
        return {
            "units": len(s.units()),
            "points": len(points),
            "frontier": len(front),
        }

    def sharded_run(seed: int) -> Dict[str, Any]:
        s = space()
        reference = frontier_bytes(pareto_front(s.explore_serial()))
        workdir = tempfile.mkdtemp(prefix="bench-dse-sharded-")
        try:
            summary = run_sharded(
                workdir, s, shards=2, seed=seed, lease_ttl=10.0,
            )
            merge = merge_shards(workdir, recover=True)
            parity = frontier_bytes(merge.frontier) == reference
            if not parity:
                raise BenchmarkError(
                    "merged frontier diverged from the serial sweep "
                    "over the same space"
                )
            return {
                "units": merge.total_units,
                "merged": merge.merged_units,
                "frontier": len(merge.frontier),
                "duplicates": merge.duplicates,
                "shards_failed": summary["failed"],
                "recovered": summary["recovered"] + merge.recovered,
                "parity": int(parity),
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    return [
        BenchCase(f"dse_wide_serial_{size}", serial_run),
        BenchCase(f"dse_sharded_{size}", sharded_run),
    ]


def _scheduler_cases(size: int) -> List[BenchCase]:
    from repro.core.config import HeteroSVDConfig
    from repro.core.scheduler import BatchScheduler, TaskSpec

    def specs(seed: int) -> List[TaskSpec]:
        # Deterministic mixed workload: sizes cycle through a few
        # shapes so the LPT policy has real balancing work to do.
        shapes = [(32, 32), (64, 64), (48, 32), (96, 64)]
        return [
            TaskSpec(m=shapes[(seed + i) % len(shapes)][0],
                     n=shapes[(seed + i) % len(shapes)][1],
                     task_id=i)
            for i in range(size)
        ]

    def schedule(policy: str) -> Callable[[int], Dict[str, Any]]:
        def run(seed: int) -> Dict[str, Any]:
            config = HeteroSVDConfig(m=96, n=64, p_eng=4, p_task=4)
            scheduler = BatchScheduler(config)
            result = scheduler.schedule(specs(seed), policy)
            assignment = scheduler.assignment(result)
            return {
                "tasks": size,
                "policy": policy,
                "makespan_model_s": result.makespan,
                "balance": result.balance,
                "pipelines": len(assignment),
            }

        return run

    return [
        BenchCase(f"schedule_lpt_{size}", schedule("lpt")),
        BenchCase(f"schedule_fifo_{size}", schedule("fifo")),
    ]


def _batch_cases(size: int) -> List[BenchCase]:
    from repro.core.config import HeteroSVDConfig
    from repro.exec.batch import BatchExecutor
    from repro.workloads import make_batch

    def execute(engine: str) -> Callable[[int], Dict[str, Any]]:
        def run(seed: int) -> Dict[str, Any]:
            config = HeteroSVDConfig(m=size, n=size, p_eng=4, p_task=2)
            batch = make_batch(size, size, batch=6, seed=seed)
            executor = BatchExecutor(config, engine=engine, jobs=1)
            report = executor.run(batch)
            return {
                "engine": engine,
                "tasks": len(report.results),
                "makespan_model_s": report.schedule.makespan,
            }

        return run

    return [
        BenchCase(f"executor_software_{size}", execute("software")),
        BenchCase(f"executor_accelerator_{size}", execute("accelerator")),
    ]


def _serve_cases(size: int) -> List[BenchCase]:
    import os

    from repro.serve.loadgen import run_load

    def run(seed: int) -> Dict[str, Any]:
        # HETEROSVD_SERVE_ADDR targets an already-running daemon (the
        # CI serve-smoke job); otherwise an in-process server is
        # started per repeat, tuned by default_server_config so a
        # >= 1000-request burst actually builds > 1000 queued jobs.
        address = os.environ.get("HETEROSVD_SERVE_ADDR") or None
        report = run_load(address=address, count=size, seed=seed)
        if report.ok == 0:
            # A burst where nothing succeeded is a broken serve stack,
            # not a data point: its latency metrics are all null and
            # recording it as a baseline would bless the failure.
            raise BenchmarkError(
                f"serve load run produced no successful responses "
                f"({report.total} sent, {report.errors} errors, "
                f"{report.rejected} rejected)"
            )
        return dict(report.metrics())

    return [BenchCase(f"serve_load_{size}", run)]


def _chaos_cases(size: int) -> List[BenchCase]:
    from repro.resilience.faults import FaultPlan, FaultSpec
    from repro.serve.loadgen import run_load
    from repro.serve.queue import AdmissionPolicy
    from repro.serve.server import ServeConfig

    def run(seed: int) -> Dict[str, Any]:
        # Deterministic in-code plan (mirrors the committed
        # examples/fault_plans/serve_chaos.json): engine faults on the
        # first three batches exercise the requeue and trip the
        # engine breaker, one dispatcher crash exercises supervision
        # and one dropped response exercises the loadgen timeout.
        plan = FaultPlan(seed=11 + seed, faults=[
            FaultSpec(site="serve.engine_fault", at=(0, 1, 2)),
            FaultSpec(site="serve.response_drop", at=(1,)),
            FaultSpec(site="serve.compute_crash", at=(2,)),
        ])
        # High-water above the burst size: batches must reach the
        # engine tier (not the depth-shed brownout path) for the
        # injected engine faults to fire and the breaker to trip.
        config = ServeConfig(
            admission=AdmissionPolicy(
                max_depth=max(4096, size + 64),
                high_water=max(4096, size + 64),
            ),
            tenant_weights={"alpha": 4.0, "beta": 2.0, "gamma": 1.0},
            retries=1,
        )
        with plan.activate():
            report = run_load(
                count=size, connections=4, seed=seed,
                server_config=config, request_timeout_s=10.0,
            )
        metrics = dict(report.metrics())
        answered = int(metrics["answered"])
        exactly_once = (
            answered + report.timeout == report.total
            and report.duplicates == 0
        )
        if not exactly_once:
            raise BenchmarkError(
                f"exactly-once accounting broken: {answered} answered "
                f"+ {report.timeout} timed out != {report.total} sent "
                f"(or {report.duplicates} duplicate responses)"
            )
        if report.ok == 0:
            raise BenchmarkError(
                f"chaos load run produced no successful responses "
                f"({report.total} sent, {report.errors} errors, "
                f"{report.timeout} timeouts)"
            )
        stats = report.server_stats
        metrics["exactly_once"] = int(exactly_once)
        metrics["faults_injected"] = plan.injected
        for counter in (
            "serve.breaker_trips", "serve.breaker_probes",
            "serve.breaker_recoveries", "serve.requeued_batches",
            "serve.dispatcher_restarts", "serve.orphaned",
            "serve.responses_dropped",
        ):
            value = stats.get(counter, 0)
            if isinstance(value, int):
                metrics[counter.replace("serve.", "")] = value
        return metrics

    return [BenchCase(f"serve_chaos_{size}", run)]


def _workloads_cases(size: int) -> List[BenchCase]:
    """The three new workload classes plus their crossover partner.

    ``streaming_fold`` tracks an evolving rating matrix chunk by
    chunk, ``block_tall`` factors a tall-skinny panel through the
    Jacobi methods' QR preconditioner, ``dnc`` and ``block_square``
    factor the same dense square matrix — together
    they are the measured legs of the crossover study in
    ``docs/workloads.md`` / ``EXPERIMENTS.md``.  Each case reports
    ``sigma_rel_err`` (worst relative singular-value deviation vs
    LAPACK), so a numerical regression fails ``--check`` the same way
    a wall-time one does.
    """
    import numpy as np

    from repro.linalg import StreamingSVD, svd
    from repro.workloads import (
        random_matrix,
        rating_stream,
        tall_skinny_matrix,
    )

    def rel_err(sigma, ref) -> float:
        k = min(len(sigma), len(ref))
        scale = float(ref[0]) if len(ref) and ref[0] > 0 else 1.0
        return float(np.max(np.abs(sigma[:k] - ref[:k])) / scale)

    def streaming_run(seed: int) -> Dict[str, Any]:
        rank = 8
        stream = rating_stream(
            n_users=2 * size, n_items=max(rank, size // 2),
            latent_rank=rank, chunk_rows=max(rank, size // 4), seed=seed,
        )
        tracker = StreamingSVD(rank=rank)
        tracker.update(stream.initial)
        for block in stream.updates:
            tracker.update(block)
        ref = np.linalg.svd(stream.full_matrix(), compute_uv=False)
        return {
            "updates": tracker.updates,
            "rows": tracker.rows,
            "rank": rank,
            "sigma_rel_err": rel_err(tracker.singular_values, ref),
            "error_bound": tracker.error_bound(),
        }

    def block_tall_run(seed: int) -> Dict[str, Any]:
        a = tall_skinny_matrix(8 * size, max(8, size // 4), seed=seed)
        result = svd(a, method="block")
        ref = np.linalg.svd(a, compute_uv=False)
        return {
            "m": a.shape[0], "n": a.shape[1],
            "sweeps": result.sweeps,
            "sigma_rel_err": rel_err(result.singular_values, ref),
        }

    def square_run(method: str) -> Callable[[int], Dict[str, Any]]:
        def run(seed: int) -> Dict[str, Any]:
            a = random_matrix(size, size, seed=seed)
            result = svd(a, method=method)
            ref = np.linalg.svd(a, compute_uv=False)
            return {
                "n": size, "method": method,
                "sweeps": result.sweeps,
                "sigma_rel_err": rel_err(result.singular_values, ref),
            }

        return run

    return [
        BenchCase(f"streaming_fold_{size}", streaming_run),
        BenchCase(f"block_tall_{size}", block_tall_run),
        BenchCase(f"dnc_{size}", square_run("dnc")),
        BenchCase(f"block_square_{size}", square_run("block")),
    ]


#: Suite registry: name -> cases factory taking the problem size.
SUITES: Dict[str, Callable[[int], List[BenchCase]]] = {
    "dse": _dse_cases,
    "dse_sharded": _dse_sharded_cases,
    "scheduler": _scheduler_cases,
    "batch": _batch_cases,
    "serve": _serve_cases,
    "chaos": _chaos_cases,
    "workloads": _workloads_cases,
}


def suite_names() -> List[str]:
    """Registered suite names, sorted."""
    return sorted(SUITES)


def build_suite(name: str, size: Optional[int] = None) -> List[BenchCase]:
    """Instantiate a registered suite.

    Args:
        name: A key of :data:`SUITES`.
        size: Problem-size knob; None uses the suite default from
            :data:`DEFAULT_SIZES`.

    Raises:
        BenchmarkError: for unknown suites or non-positive sizes.
    """
    if name not in SUITES:
        raise BenchmarkError(
            f"unknown suite {name!r}; expected one of {suite_names()}"
        )
    resolved = DEFAULT_SIZES[name] if size is None else size
    if resolved < 8:
        raise BenchmarkError(
            f"suite size must be >= 8, got {resolved}"
        )
    return SUITES[name](resolved)

