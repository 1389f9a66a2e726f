"""Command-line interface.

Installed as the ``heterosvd`` console script::

    heterosvd svd --size 128                 # factor a random matrix
    heterosvd svd --input matrix.npy         # factor a saved matrix
    heterosvd dse --size 256 --batch 100     # explore the design space
    heterosvd model --size 256 --p-eng 8     # performance breakdown
    heterosvd placement --p-eng 8 --p-task 2 # render the AIE placement
    heterosvd serve --port 7863              # SVD-as-a-service daemon
    heterosvd bench --suite serve            # load-test the daemon

Every subcommand is a thin veneer over the public API so scripted use
and library use stay in sync.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.core.accelerator import HeteroSVDAccelerator
from repro.core.config import HeteroSVDConfig
from repro.core.dse import DesignSpaceExplorer
from repro.core.perf_model import PerformanceModel
from repro.core.placement import place
from repro.core.timing import TimingSimulator
from repro.linalg.svd import METHODS
from repro.reporting.tables import Table
from repro.units import mhz
from repro.versal.tile import TileKind
from repro.workloads.matrices import random_matrix


def _padded(n: int, p_eng: int) -> int:
    """``n`` rounded up to a multiple of ``p_eng``.

    A non-positive ``p_eng`` leaves ``n`` as is, so that the config's
    own range check reports it as a usage error.
    """
    if p_eng < 1 or n % p_eng == 0:
        return n
    return (n // p_eng + 1) * p_eng


def _make_cache(args):
    """Build the EvalCache requested by ``--cache``, or None."""
    if getattr(args, "cache", None) is None:
        return None
    from repro.exec.cache import EvalCache

    cache = EvalCache(disk_dir=args.cache)
    cache.purge_stale()
    return cache


def _make_retry(args):
    """Build the RetryPolicy requested by ``--retries``, or None.

    The policy's jitter seed follows the active fault plan's seed, so a
    chaos run replays with identical backoff delays.
    """
    retries = getattr(args, "retries", 0) or 0
    if retries < 1:
        return None
    from repro.resilience import RetryPolicy, active_plan

    plan = active_plan()
    return RetryPolicy(
        max_attempts=retries + 1,
        seed=plan.seed if plan is not None else 0,
    )


def _make_checkpoint(args, kind: str):
    """Build the SweepCheckpoint requested by ``--checkpoint``, or None.

    Without ``--resume`` an existing checkpoint file is discarded so a
    fresh run never silently reuses stale results.
    """
    path = getattr(args, "checkpoint", None)
    if path is None:
        return None
    import os

    from repro.resilience import SweepCheckpoint

    if not getattr(args, "resume", False):
        try:
            os.unlink(path)
        except OSError:
            pass
    return SweepCheckpoint(path, kind=kind)


def _load_matrix(args) -> np.ndarray:
    if args.input:
        return np.load(args.input)
    return random_matrix(args.size, args.size, seed=args.seed)


def _make_deadline(args):
    """Build the Deadline requested by ``--deadline``, or None."""
    budget = getattr(args, "deadline", None)
    if budget is None:
        return None
    from repro.guard import as_deadline

    return as_deadline(budget)


def cmd_svd(args) -> int:
    """Factor a matrix on the functional accelerator model.

    With ``--batch N`` (N > 1), N matrices run as a task stream
    through the :class:`~repro.exec.batch.BatchExecutor`'s pipeline
    workers instead.  ``--no-validate`` skips the input health check;
    ``--deadline`` bounds the wall clock (exit 5 on expiry);
    ``--check-invariants`` verifies the produced factors.
    """
    if args.batch > 1:
        return _cmd_svd_batch(args)
    if args.method != "accelerator":
        return _cmd_svd_software(args)
    deadline = _make_deadline(args)
    a = _load_matrix(args)
    if args.validate:
        from repro.guard import validate_matrix

        validate_matrix(a, name="input matrix")
    m, n = a.shape
    config = HeteroSVDConfig(
        m=m,
        n=_padded(n, args.p_eng),
        p_eng=args.p_eng,
        p_task=1,
        precision=args.precision,
    )
    if config.n != n:
        a = np.hstack([a, np.zeros((m, config.n - n))])
    result = HeteroSVDAccelerator(config).run(
        a, accumulate_v=args.check_invariants
    )
    if deadline is not None:
        deadline.check(
            kind="svd", completed=result.iterations,
            total=result.iterations, converged=result.converged,
        )
    print(f"matrix {m}x{n}, P_eng={args.p_eng}")
    print(f"iterations: {result.iterations} (converged={result.converged})")
    _print_sigma_accuracy(a, result.sigma[:min(a.shape)])
    print(f"traffic: {result.transfers.dma_transfers} DMA / "
          f"{result.transfers.neighbor_transfers} neighbour transfers")
    if args.check_invariants and not _print_invariants(
        a, result.u, result.sigma, result.v, args.precision,
        result.converged,
    ):
        return 1
    if args.output:
        np.savez(args.output, u=result.u, sigma=result.sigma)
        print(f"saved factors to {args.output}")
    return 0


def _print_invariants(a, u, sigma, v, precision, converged) -> bool:
    """Print the ``invariants:`` line of the factors ``a = U S V^T``
    (:func:`~repro.guard.check_factor_invariants`); False, with an
    error on stderr, when they are violated."""
    from repro.guard import check_factor_invariants

    report = check_factor_invariants(a, u * sigma, v, precision,
                                     converged=converged)
    print(f"invariants: {'ok' if report.ok else 'VIOLATED'} "
          f"(reconstruction {report.reconstruction_error:.3e}, "
          f"orthogonality {report.orthogonality_residual:.3e})")
    if not report.ok:
        print("error: factor invariants violated", file=sys.stderr)
    return report.ok


def _print_sigma_accuracy(a: np.ndarray, sigma: np.ndarray) -> None:
    """The leading singular values and their error against LAPACK,
    ``max|s - s_ref| / s_ref[0]``: scale-free, so a matrix of 1e300
    entries reads like one of order one."""
    from repro.linalg.reference import singular_value_error

    print("leading singular values: "
          + ", ".join(f"{v:.4e}" for v in sigma[:5]))
    print(f"max deviation vs LAPACK, relative to s_max: "
          f"{singular_value_error(a, sigma):.3e}")


def _cmd_svd_software(args) -> int:
    """Factor one matrix with a software solver (``--method`` != the
    accelerator model): block/hestenes Jacobi, divide-and-conquer, or
    the streaming fold."""
    from repro.linalg import svd

    deadline = _make_deadline(args)
    a = _load_matrix(args)
    if args.validate:
        from repro.guard import validate_matrix

        validate_matrix(a, name="input matrix")
    m, n = a.shape
    result = svd(
        a,
        method=args.method,
        block_width=args.p_eng if args.method == "block" else None,
        precision=args.precision,
        # Also svd()'s own check: its health report drives the
        # pre-scaling that keeps extreme-magnitude inputs finite.
        validate=args.validate,
        deadline=deadline,
        check_invariants=args.check_invariants,
    )
    print(f"matrix {m}x{n}, method={args.method}")
    print(f"sweeps: {result.sweeps} (converged={result.converged}"
          + (", DEGRADED" if result.degraded else "") + ")")
    _print_sigma_accuracy(a, result.singular_values)
    if args.check_invariants and not _print_invariants(
        a, result.u, result.singular_values, result.v, args.precision,
        result.converged,
    ):
        return 1
    if args.output:
        np.savez(
            args.output, u=result.u, sigma=result.singular_values,
            v=result.v,
        )
        print(f"saved factors to {args.output}")
    return 0


def _cmd_svd_batch(args) -> int:
    """Run a batch of SVD tasks through the pipeline executor."""
    from repro.exec.batch import BatchExecutor
    from repro.linalg.reference import singular_value_error
    from repro.workloads.batch import make_batch

    if args.input:
        print("--batch and --input are mutually exclusive", file=sys.stderr)
        return 2
    batch = make_batch(args.size, args.size, args.batch, seed=args.seed)
    if args.validate:
        from repro.guard import validate_matrix

        for task_id, matrix in enumerate(batch.matrices):
            validate_matrix(matrix, name=f"batch matrix {task_id}")
    config = HeteroSVDConfig(
        m=args.size,
        n=_padded(args.size, args.p_eng),
        p_eng=args.p_eng,
        p_task=args.p_task,
        precision=args.precision,
    )
    # A non-accelerator --method implies the software engine; the
    # default keeps --engine in charge (software engine runs "block").
    engine = args.engine if args.method == "accelerator" else "software"
    method = "block" if args.method == "accelerator" else args.method
    executor = BatchExecutor(
        config, engine=engine, jobs=args.jobs, cache=_make_cache(args),
        retry=_make_retry(args), check_invariants=args.check_invariants,
        method=method,
    )
    report = executor.run(batch, deadline=_make_deadline(args))
    print(f"batch of {len(batch)} {args.size}x{args.size} SVDs on "
          f"{config.p_task} pipelines ({engine} engine"
          + (f", {method} method" if engine == "software" else "")
          + ")")
    for run in report.runs:
        print(f"  pipeline {run.pipeline}: {len(run.task_ids)} tasks, "
              f"{run.wall_time:.3f} s wall "
              f"({run.modelled_time * 1e3:.3f} ms modelled)")
    print(f"wall makespan: {report.wall_makespan:.3f} s, "
          f"serial equivalent: {report.serial_time:.3f} s, "
          f"speedup: {report.speedup:.2f}x")
    print(f"modelled makespan: {report.modelled_makespan * 1e3:.3f} ms, "
          f"schedule balance: {report.schedule.balance:.2f}")
    first = report.results[0]
    a = batch.matrices[first.task_id]
    deviation = singular_value_error(a, first.sigma[:min(a.shape)])
    print(f"max deviation vs LAPACK, relative to s_max (task 0): "
          f"{deviation:.3e}")
    if report.degraded_tasks:
        print(f"degraded tasks: {report.degraded_tasks} of {len(batch)} "
              f"(non-convergent, reference LAPACK fallback)")
    return 0


def _csv_of(cast):
    """argparse ``type=`` for a comma-separated axis of ``cast`` values,
    so a malformed value is a usage error before any sweep state
    exists."""

    def parse(raw: str) -> tuple:
        try:
            return tuple(cast(part) for part in raw.split(",") if part)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__} values, "
                f"got {raw!r}"
            ) from None

    return parse


#: Sweep directory of the sharded DSE (``dse --shards``, ``dse-merge``).
DEFAULT_WORKDIR = ".heterosvd_dse"

#: Defaults of the sharded-only ``dse`` flags, applied on the
#: ``--shards`` path; their parser defaults are None so a classic run
#: can tell that one was given.
SHARDED_DEFAULTS = {
    "workdir": DEFAULT_WORKDIR,
    "lease_ttl": 10.0,
    "shard_seed": 0,
    "steal": True,
}


def _build_design_space(args):
    """The widened DesignSpace described by the dse flags."""
    from repro.dse.space import DEFAULT_DERATES, ORDERINGS, DesignSpace

    return DesignSpace(
        args.size,
        args.size,
        precision=args.precision,
        batch=args.batch,
        orderings=ORDERINGS if args.orderings is None else args.orderings,
        freq_derates=(
            DEFAULT_DERATES if args.derates is None else args.derates
        ),
        power_cap_w=args.power_cap,
    )


def _reject_shard_flags_without_shards(parser, args) -> None:
    """Usage error (exit 2) for sharded-sweep flags given to a classic
    ``dse`` run, which would otherwise ignore them silently."""
    if args.command != "dse" or args.shards is not None:
        return
    stray = [
        flag for flag, value in (
            ("--workdir", args.workdir),
            ("--orderings", args.orderings),
            ("--derates", args.derates),
            ("--shard-id", args.shard_id),
            ("--lease-ttl", args.lease_ttl),
            ("--shard-seed", args.shard_seed),
            ("--steal" if args.steal else "--no-steal", args.steal),
        )
        if value is not None
    ]
    if stray:
        parser.error(
            f"dse: {', '.join(stray)} only apply to the sharded sweep; "
            f"add --shards N"
        )


def _reset_workdir(workdir, shard=None) -> None:
    """Discard sweep state so a non-resume run starts clean.

    Only the sweep's own file kinds are touched — never the directory
    itself or anything a user may have put next to it.
    """
    import os
    from pathlib import Path

    workdir = Path(workdir)
    if not workdir.exists():
        return
    if shard is not None:
        patterns = [f"shard-{shard}.json", f"shard-{shard}.json.corrupt-*",
                    f"shard-{shard}.lease"]
    else:
        patterns = ["plan.json", "shard-*.json", "shard-*.json.corrupt-*",
                    "shard-*.lease", "recovered.json",
                    "recovered.json.corrupt-*"]
    for pattern in patterns:
        for path in workdir.glob(pattern):
            try:
                os.unlink(path)
            except OSError:
                pass


def _print_frontier(space, merge, args) -> None:
    """Render a merged frontier the way classic dse renders rankings."""
    ranked = space.ranked(merge.points, args.objective)
    table = Table(
        f"Sharded DSE: {space.m}x{space.n}, objective={args.objective}, "
        f"{merge.merged_units}/{merge.total_units} units",
        ["rank", "P_eng", "P_task", "ordering", "freq MHz", "latency ms",
         "tasks/s", "power W", "front"],
    )
    frontier_ids = {id(p) for p in merge.frontier}
    shown = 0
    for point in ranked:
        if shown >= args.top:
            break
        shown += 1
        table.add_row(
            shown, point.config.p_eng, point.config.p_task,
            "codesign" if point.config.use_codesign else "traditional",
            f"{point.config.pl_frequency_hz / 1e6:.0f}",
            f"{point.latency * 1e3:.3f}",
            f"{point.throughput:.2f}",
            f"{point.power.total:.1f}",
            "*" if id(point) in frontier_ids else "",
        )
    table.print()
    print(f"merge: {merge.describe()}", file=sys.stderr)
    for prov in merge.shards:
        if prov.present or prov.quarantined or prov.shard != "recovered":
            print(
                f"  shard {prov.shard}: entries={prov.entries} "
                f"steals={prov.steal_count} "
                f"quarantined={len(prov.quarantined)}"
                + ("" if prov.present else " (ledger missing)"),
                file=sys.stderr,
            )
    if args.save:
        from repro.io import save_design_points

        save_design_points(ranked, args.save)
        print(f"saved {len(ranked)} design points to {args.save}")


def _cmd_dse_sharded(args) -> int:
    """The --shards path of cmd_dse: worker or coordinator mode."""
    from repro.analysis.pareto import merge_shards
    from repro.dse import run_shard, run_sharded
    from repro.resilience import active_plan

    for name, default in SHARDED_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    space = _build_design_space(args)
    if args.shard_id is not None:
        # Worker mode: run exactly one shard in this process (the
        # chaos tools SIGKILL these; siblings steal the leftovers).
        if not args.resume:
            _reset_workdir(args.workdir, shard=args.shard_id)
        stats = run_shard(
            args.workdir,
            args.shard_id,
            space=space,
            shards=args.shards,
            seed=args.shard_seed,
            lease_ttl=args.lease_ttl,
            steal=args.steal,
        )
        print(
            f"shard {args.shard_id}/{args.shards}: "
            f"{stats['evaluated']} evaluated "
            f"({stats['skipped']} resumed, {stats['stolen']} stolen in "
            f"{stats['steals']} steals)"
        )
        return 0
    # Coordinator mode: supervise every shard, then merge.
    if not args.resume:
        _reset_workdir(args.workdir)
    summary = run_sharded(
        args.workdir,
        space,
        shards=args.shards,
        seed=args.shard_seed,
        lease_ttl=args.lease_ttl,
        steal=args.steal,
        fault_plan=active_plan(),
    )
    if summary["failed"] or summary["recovered"]:
        print(
            f"supervision: {summary['failed']} shard(s) failed, "
            f"{summary['recovered']} unit(s) recovered inline",
            file=sys.stderr,
        )
    merge = merge_shards(args.workdir, recover=True)
    _print_frontier(space, merge, args)
    return 0


def cmd_dse_merge(args) -> int:
    """Merge shard ledgers into the global Pareto frontier."""
    from repro.analysis.pareto import merge_shards
    from repro.dse.sharded import ShardPlan

    plan = ShardPlan.load(args.workdir)
    merge = merge_shards(args.workdir, recover=args.recover)
    _print_frontier(plan.space, merge, args)
    if not merge.complete:
        print(
            f"merge incomplete: {merge.missing_units} unit(s) missing — "
            f"rerun the owning shards with --resume, or merge with "
            f"--recover",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_dse(args) -> int:
    """Run the two-stage DSE and print the ranked design points."""
    if args.shards is not None:
        return _cmd_dse_sharded(args)
    dse = DesignSpaceExplorer(args.size, args.size, precision=args.precision)
    cache = _make_cache(args)
    checkpoint = _make_checkpoint(args, "dse-sweep")
    points = dse.explore(
        args.objective,
        batch=args.batch,
        power_cap_w=args.power_cap,
        jobs=args.jobs,
        cache=cache,
        checkpoint=checkpoint,
        retry=_make_retry(args),
        deadline=_make_deadline(args),
    )
    table = Table(
        f"DSE: {args.size}x{args.size}, objective={args.objective}, "
        f"batch={args.batch}",
        ["rank", "P_eng", "P_task", "freq MHz", "latency ms",
         "tasks/s", "power W", "AIE", "URAM"],
    )
    for rank, point in enumerate(points[: args.top], start=1):
        table.add_row(
            rank, point.config.p_eng, point.config.p_task,
            f"{point.config.pl_frequency_hz / 1e6:.0f}",
            f"{point.latency * 1e3:.3f}",
            f"{point.throughput:.2f}",
            f"{point.power.total:.1f}",
            point.usage.aie, point.usage.uram,
        )
    table.print()
    if cache is not None:
        print(f"cache: {cache.stats.describe()}")
    if checkpoint is not None:
        print(f"checkpoint: {checkpoint.describe()}", file=sys.stderr)
    if args.save:
        from repro.io import save_design_points

        save_design_points(points, args.save)
        print(f"saved {len(points)} design points to {args.save}")
    return 0


def cmd_model(args) -> int:
    """Print the performance-model breakdown for one design point."""
    config = HeteroSVDConfig(
        m=args.size,
        n=_padded(args.size, args.p_eng),
        p_eng=args.p_eng,
        p_task=args.p_task,
        pl_frequency_hz=mhz(args.freq),
        fixed_iterations=args.iterations,
    )
    model = PerformanceModel(config)
    breakdown = model.breakdown()
    table = Table(
        f"Performance model: {config.describe()}",
        ["term", "value"],
    )
    for name in (
        "t_tx", "t_rx", "t_orth", "t_stage", "t_aiewait", "t_algo",
        "t_period", "t_datawait", "t_ddr", "t_hls_per_iteration",
        "aie_total", "t_iter", "t_norm",
    ):
        table.add_row(name, f"{getattr(breakdown, name) * 1e6:.3f} us")
    table.add_row("task_time", f"{model.task_time() * 1e3:.3f} ms")
    simulated = TimingSimulator(config).simulate(1).latency
    table.add_row("simulated", f"{simulated * 1e3:.3f} ms")
    table.print()
    return 0


def cmd_validate(args) -> int:
    """Run the differential self-test (:mod:`repro.validation`)."""
    from repro.validation import main as validation_main

    return validation_main()


def cmd_sensitivity(args) -> int:
    """Rank the calibration constants by their timing impact."""
    from repro.analysis.sensitivity import sensitivity_analysis

    config = HeteroSVDConfig(
        m=args.size,
        n=_padded(args.size, args.p_eng),
        p_eng=args.p_eng,
        p_task=args.p_task,
        fixed_iterations=6,
    )
    checkpoint = _make_checkpoint(args, "sensitivity")
    results = sensitivity_analysis(
        config, scale=args.scale, jobs=args.jobs, checkpoint=checkpoint,
        deadline=_make_deadline(args),
    )
    if checkpoint is not None:
        print(f"checkpoint: {checkpoint.describe()}", file=sys.stderr)
    table = Table(
        f"Calibration sensitivity ({config.describe()}, x{args.scale})",
        ["constant", "baseline (cycles)", "task-time change"],
    )
    for result in results:
        table.add_row(
            result.parameter,
            f"{result.baseline_value:.0f}",
            f"{result.relative_effect * 100:.3f}%",
        )
    table.print()
    return 0


def cmd_profile(args) -> int:
    """Run a DSE sweep under tracing and print the hot-span profile.

    The sweep itself is the standard two-stage exploration (same code
    path as ``heterosvd dse``); this subcommand only turns the
    observability layer on around it and aggregates where the time
    went.  Combine with ``--trace`` / ``--metrics`` to also export the
    raw Chrome trace and the metrics snapshot.
    """
    from repro import obs
    from repro.reporting.tables import hot_spans_table, metrics_table

    owned = not obs.is_enabled()
    if owned:  # no --trace/--metrics: enable for the profile's own sake
        obs.reset()
        obs.enable()
    try:
        cache = _make_cache(args)
        dse = DesignSpaceExplorer(args.size, args.size)
        with obs.span("profile.sweep", size=args.size, batch=args.batch):
            points = dse.explore(
                args.objective, batch=args.batch, jobs=args.jobs,
                cache=cache,
            )
        stats = obs.aggregate(obs.get_tracer().spans)
        hot_spans_table(stats, top=args.top).print()
        metrics_table(obs.get_metrics().snapshot()).print()
        print(f"explored {len(points)} design points; "
              f"best: {points[0].config.describe()}")
        if cache is not None:
            print(f"cache: {cache.stats.describe()}")
        return 0
    finally:
        if owned:
            obs.disable()


def cmd_report(args) -> int:
    """Generate a self-contained HTML reproduction report.

    Runs the fast experiments (Table IV model accuracy, Fig. 3 DMA
    counts, Table VI resource points) and renders them with
    paper-reference values into one HTML file.
    """
    from repro.core.dataflow import DataflowMode
    from repro.core.ordering_codesign import (
        MovementSchedule,
        codesign_dma_transfers,
        traditional_dma_transfers,
    )
    from repro.core.resources import estimate_resources
    from repro.reporting.experiments import ExperimentLog
    from repro.reporting.html import write_report

    logs = []

    fig3 = ExperimentLog("Fig. 3 — DMA transfers per block-pair sweep")
    for k in range(2, 12):
        fig3.record(
            f"k={k}", "traditional",
            MovementSchedule(k=k, shifting=False).dma_count(
                DataflowMode.NAIVE
            ),
            paper_value=traditional_dma_transfers(k),
        )
        fig3.record(
            f"k={k}", "co-design",
            MovementSchedule(k=k, shifting=True).dma_count(
                DataflowMode.RELOCATED
            ),
            paper_value=codesign_dma_transfers(k),
        )
    logs.append(fig3)

    table4 = ExperimentLog("Table IV — single-iteration time (ms) @ 208.3 MHz")
    paper_measured = {
        (128, 2): 0.993, (256, 2): 6.151, (512, 2): 43.229,
        (128, 4): 0.395, (256, 4): 2.853, (512, 4): 21.584,
        (128, 8): 0.214, (256, 8): 1.475, (512, 8): 10.965,
    }
    for (m, p_eng), paper in paper_measured.items():
        config = HeteroSVDConfig(
            m=m, n=m, p_eng=p_eng, p_task=1,
            pl_frequency_hz=mhz(208.3), fixed_iterations=1,
        )
        measured = TimingSimulator(config).measure_iteration_time() * 1e3
        table4.record(f"{m}x{m} P_eng={p_eng}", "measured (ms)",
                      measured, paper_value=paper)
    logs.append(table4)

    table6 = ExperimentLog("Table VI — resources at 256x256")
    paper_resources = {
        (2, 26): (293, 416), (4, 9): (357, 144),
        (6, 4): (366, 120), (8, 2): (322, 32),
    }
    for (p_eng, p_task), (paper_aie, paper_uram) in paper_resources.items():
        n = 256 if 256 % p_eng == 0 else (256 // p_eng + 1) * p_eng
        config = HeteroSVDConfig(m=256, n=n, p_eng=p_eng, p_task=p_task)
        usage = estimate_resources(config)
        table6.record(f"P_eng={p_eng} P_task={p_task}", "AIE",
                      usage.aie, paper_value=paper_aie)
        table6.record(f"P_eng={p_eng} P_task={p_task}", "URAM",
                      usage.uram, paper_value=paper_uram)
    logs.append(table6)

    path = write_report(logs, args.output)
    print(f"wrote {path} ({sum(len(l.records) for l in logs)} data points)")
    return 0


def cmd_placement(args) -> int:
    """Render the AIE placement as ASCII art."""
    glyph = {
        TileKind.ORTH: "O", TileKind.NORM: "N",
        TileKind.MEM: "M", TileKind.IDLE: ".",
    }
    config = HeteroSVDConfig(
        m=args.size,
        n=_padded(args.size, args.p_eng),
        p_eng=args.p_eng,
        p_task=args.p_task,
    )
    placement = place(config)
    array = placement.array
    print(f"{config.describe()}: {placement.num_orth} orth, "
          f"{placement.num_norm} norm, {placement.num_mem} mem "
          f"({placement.aie_utilization() * 100:.1f}% of the array)")
    for row in range(array.rows - 1, -1, -1):
        cells = "".join(
            glyph[array.tile(row, col).kind] for col in range(array.cols)
        )
        print(f"row {row}: {cells}")
    return 0


def cmd_bench(args) -> int:
    """Run a benchmark suite and compare against the previous report.

    Writes ``BENCH_<suite>.json`` into ``--out`` and, when a baseline
    is available (``--baseline FILE`` or the report file that was
    about to be overwritten), prints a case-by-case comparison.  Exit
    codes: 0 on success, 1 for schema/usage failures, 3 when a
    comparable baseline regressed beyond ``--threshold``.
    """
    from repro.bench import (
        build_suite,
        compare_reports,
        load_report,
        report_path,
        run_suite,
        suite_names,
        write_report,
    )
    from repro.errors import BenchmarkError

    if args.list:
        for name in suite_names():
            print(name)
        return 0
    if args.check is not None:
        try:
            load_report(args.check)
        except BenchmarkError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"{args.check}: valid BENCH report")
        return 0
    if args.suite is None:
        print("error: --suite is required (or use --list/--check)",
              file=sys.stderr)
        return 1
    try:
        cases = build_suite(args.suite, args.size)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    out_path = report_path(args.out, args.suite)
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(out_path):
        baseline_path = out_path
    if baseline_path is not None and not args.no_compare:
        try:
            baseline = load_report(baseline_path)
        except BenchmarkError as error:
            print(f"error: baseline {baseline_path}: {error}",
                  file=sys.stderr)
            return 1

    def progress(name, result):
        print(f"{name}: {result.wall_time_s:.4f}s "
              f"({result.repeats} repeat(s))")

    report = run_suite(args.suite, cases, seed=args.seed,
                       repeats=args.repeat, progress=progress)
    write_report(report, out_path)
    print(f"wrote {out_path}")

    if baseline is None:
        if not args.no_compare:
            print("no baseline report; comparison skipped")
        return 0
    try:
        comparison = compare_reports(baseline, report, args.threshold)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    described = comparison.describe()
    if described:
        print(described)
    if comparison.breached:
        print(
            f"regression threshold breached "
            f"({len(comparison.regressions)} case(s))",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_serve(args) -> int:
    """Run the SVD serving daemon (see docs/serving.md).

    Prints ``serving on HOST:PORT`` to stdout (flushed) once the
    socket is bound — scripts wait for that line — then blocks until a
    ``shutdown`` op or Ctrl-C.  A final counter summary goes to
    stderr.  With ``--metrics FILE`` the ``serve.*`` counters and
    latency histograms are exported on the way out.
    """
    import asyncio

    from repro.errors import ConfigurationError
    from repro.serve.queue import AdmissionPolicy
    from repro.serve.server import ServeConfig, SVDServer

    weights = {}
    for spec in args.tenant or []:
        name, sep, value = spec.partition("=")
        try:
            weights[name] = float(value) if sep else None
        except ValueError:
            weights[name] = None
        if not name or weights[name] is None:
            print(f"error: --tenant expects NAME=WEIGHT, got {spec!r}",
                  file=sys.stderr)
            return 2
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            p_eng=args.p_eng,
            p_task=args.p_task,
            jobs=args.jobs if args.jobs is not None else 1,
            precision=args.precision,
            admission=AdmissionPolicy(
                max_depth=args.max_queue,
                high_water=args.high_water,
                max_cells=args.max_cells,
                reject_cells=args.reject_cells,
                max_batch=args.max_batch,
                max_oversized=args.max_oversized,
            ),
            tenant_weights=weights,
            default_deadline_s=args.default_deadline,
            retries=args.retries,
            drain_deadline_s=args.drain_deadline,
            breaker_threshold=args.breaker_threshold,
            breaker_probe_after=args.breaker_probe_after,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    server = SVDServer(config)

    def ready(address):
        print(f"serving on {address[0]}:{address[1]}", flush=True)

    try:
        asyncio.run(server.serve(ready=ready))
    except KeyboardInterrupt:
        pass
    summary = ", ".join(
        f"{key}={value}" for key, value in sorted(server.stats().items())
    )
    print(f"serve: stopped ({summary})", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="heterosvd",
        description="HeteroSVD reproduction: accelerated SVD, performance "
        "modelling and design-space exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs_flag(sub_parser):
        sub_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes (default: $HETEROSVD_JOBS, then 1)",
        )

    def add_cache_flag(sub_parser):
        sub_parser.add_argument(
            "--cache", nargs="?", const=".repro_cache", default=None,
            metavar="DIR",
            help="memoize model evaluations on disk "
            "(default directory: .repro_cache)",
        )

    def add_obs_flags(sub_parser):
        sub_parser.add_argument(
            "--trace", default=None, metavar="FILE",
            help="record spans and write a Chrome/Perfetto trace here",
        )
        sub_parser.add_argument(
            "--metrics", default=None, metavar="FILE",
            help="collect metrics and write the JSON snapshot here",
        )

    def add_fault_plan_flag(sub_parser):
        sub_parser.add_argument(
            "--fault-plan", default=None, metavar="FILE",
            help="activate a deterministic fault-injection plan "
            "(JSON, see docs/resilience.md) around this command",
        )

    def add_retries_flag(sub_parser):
        sub_parser.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="retry transient parallel failures up to N times "
            "with exponential backoff (default: 0, no retry)",
        )

    def add_deadline_flag(sub_parser):
        sub_parser.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="wall-clock budget for the command's computation; on "
            "expiry it stops at the next safe point and exits 5 with "
            "a partial-progress summary on stderr",
        )

    def add_guard_flags(sub_parser):
        sub_parser.add_argument(
            "--validate", action=argparse.BooleanOptionalAction,
            default=True,
            help="check input health (NaN/Inf/dtype/scale) before "
            "solving; exit 4 on invalid input (default: on)",
        )
        sub_parser.add_argument(
            "--check-invariants", action="store_true",
            help="verify factor orthogonality and reconstruction "
            "after solving",
        )

    def add_checkpoint_flags(sub_parser):
        sub_parser.add_argument(
            "--checkpoint", default=None, metavar="FILE",
            help="persist completed sweep evaluations to this JSON "
            "file as the sweep runs",
        )
        sub_parser.add_argument(
            "--resume", action="store_true",
            help="reuse results from an existing --checkpoint file "
            "instead of discarding it",
        )

    p_svd = sub.add_parser("svd", help="factor a matrix")
    p_svd.add_argument("--size", type=int, default=128)
    p_svd.add_argument("--seed", type=int, default=0)
    p_svd.add_argument("--input", help="path to a .npy matrix")
    p_svd.add_argument("--output", help="save factors to a .npz")
    p_svd.add_argument("--p-eng", type=int, default=8)
    p_svd.add_argument("--precision", type=float, default=1e-6)
    p_svd.add_argument(
        "--batch", type=int, default=1,
        help="run N matrices as a task stream through the batch executor",
    )
    p_svd.add_argument(
        "--p-task", type=int, default=2,
        help="pipeline workers for --batch mode",
    )
    p_svd.add_argument(
        "--engine", default="accelerator",
        choices=["accelerator", "software"],
        help="solver the batch workers use",
    )
    p_svd.add_argument(
        "--method", default="accelerator",
        choices=["accelerator", *METHODS],
        help="solver: the functional accelerator model (default) or a "
        "software method — block/hestenes Jacobi, dnc bidiagonal "
        "divide-and-conquer, streaming row-block fold (crossover "
        "study in docs/workloads.md)",
    )
    add_jobs_flag(p_svd)
    add_cache_flag(p_svd)
    add_obs_flags(p_svd)
    add_fault_plan_flag(p_svd)
    add_retries_flag(p_svd)
    add_deadline_flag(p_svd)
    add_guard_flags(p_svd)
    p_svd.set_defaults(func=cmd_svd)

    p_dse = sub.add_parser("dse", help="explore the design space")
    p_dse.add_argument("--size", type=int, default=256)
    p_dse.add_argument("--batch", type=int, default=1)
    p_dse.add_argument(
        "--objective", default="latency",
        choices=["latency", "throughput", "energy_efficiency"],
    )
    p_dse.add_argument("--power-cap", type=float, default=None)
    p_dse.add_argument("--precision", type=float, default=1e-6)
    p_dse.add_argument("--top", type=int, default=10)
    p_dse.add_argument("--save", help="write ranked points to a JSON file")

    def add_sharded_space_flags(sub_parser):
        sub_parser.add_argument(
            "--workdir", default=None, metavar="DIR",
            help="shared sweep directory holding the plan, per-shard "
            f"ledgers and leases; needs --shards (default: {DEFAULT_WORKDIR})",
        )
        sub_parser.add_argument(
            "--orderings", type=_csv_of(str), default=None, metavar="A,B",
            help="ring-ordering axis values swept; needs --shards "
            "(default: codesign,traditional)",
        )
        sub_parser.add_argument(
            "--derates", type=_csv_of(float), default=None, metavar="X,Y",
            help="frequency-derate axis values swept, each in (0, 1]; "
            "needs --shards (default: 1.0,0.9)",
        )

    p_dse.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run the widened-space sharded sweep across N shards "
        "(lease-based work stealing; see docs/resilience.md) instead "
        "of the classic single-process exploration",
    )
    p_dse.add_argument(
        "--shard-id", type=int, default=None, metavar="I",
        help="run only shard I of the sweep in this process (worker "
        "mode; needs --shards; omit to supervise every shard and merge)",
    )
    p_dse.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="seconds without a heartbeat before a shard's lease "
        "expires and its remaining work may be stolen; needs --shards "
        "(default: 10)",
    )
    p_dse.add_argument(
        "--shard-seed", type=int, default=None, metavar="N",
        help="partition seed deciding which shard owns which unit; "
        "needs --shards (default: 0)",
    )
    p_dse.add_argument(
        "--steal", action=argparse.BooleanOptionalAction, default=None,
        help="steal expired siblings' remaining work after finishing "
        "own units; needs --shards (default: on)",
    )
    add_sharded_space_flags(p_dse)
    add_jobs_flag(p_dse)
    add_cache_flag(p_dse)
    add_obs_flags(p_dse)
    add_fault_plan_flag(p_dse)
    add_retries_flag(p_dse)
    add_checkpoint_flags(p_dse)
    add_deadline_flag(p_dse)
    p_dse.set_defaults(func=cmd_dse)

    p_merge = sub.add_parser(
        "dse-merge",
        help="fold sharded-sweep ledgers into the global Pareto frontier",
    )
    p_merge.add_argument(
        "--workdir", default=DEFAULT_WORKDIR, metavar="DIR",
        help=f"the sweep directory to merge (default: {DEFAULT_WORKDIR})",
    )
    p_merge.add_argument(
        "--objective", default="latency",
        choices=["latency", "throughput", "energy_efficiency"],
    )
    p_merge.add_argument("--top", type=int, default=10)
    p_merge.add_argument(
        "--recover", action="store_true",
        help="evaluate missing units inline instead of reporting an "
        "incomplete merge (exit 1)",
    )
    p_merge.add_argument("--save", help="write ranked points to a JSON file")
    add_obs_flags(p_merge)
    add_fault_plan_flag(p_merge)
    p_merge.set_defaults(func=cmd_dse_merge)

    p_model = sub.add_parser("model", help="performance-model breakdown")
    p_model.add_argument("--size", type=int, default=256)
    p_model.add_argument("--p-eng", type=int, default=8)
    p_model.add_argument("--p-task", type=int, default=1)
    p_model.add_argument("--freq", type=float, default=208.3,
                         help="PL clock in MHz")
    p_model.add_argument("--iterations", type=int, default=6)
    p_model.set_defaults(func=cmd_model)

    p_place = sub.add_parser("placement", help="render the AIE placement")
    p_place.add_argument("--size", type=int, default=256)
    p_place.add_argument("--p-eng", type=int, default=8)
    p_place.add_argument("--p-task", type=int, default=1)
    p_place.set_defaults(func=cmd_placement)

    p_validate = sub.add_parser(
        "validate",
        help="differential self-test: every solver's contract vs LAPACK",
    )
    p_validate.set_defaults(func=cmd_validate)

    p_sens = sub.add_parser(
        "sensitivity", help="rank calibration constants by timing impact"
    )
    p_sens.add_argument("--size", type=int, default=256)
    p_sens.add_argument("--p-eng", type=int, default=8)
    p_sens.add_argument("--p-task", type=int, default=1)
    p_sens.add_argument("--scale", type=float, default=1.2)
    add_jobs_flag(p_sens)
    add_obs_flags(p_sens)
    add_fault_plan_flag(p_sens)
    add_checkpoint_flags(p_sens)
    add_deadline_flag(p_sens)
    p_sens.set_defaults(func=cmd_sensitivity)

    p_profile = sub.add_parser(
        "profile",
        help="run a DSE sweep under tracing and print the hot spans",
    )
    p_profile.add_argument("--size", type=int, default=128)
    p_profile.add_argument("--batch", type=int, default=1)
    p_profile.add_argument(
        "--objective", default="latency",
        choices=["latency", "throughput", "energy_efficiency"],
    )
    p_profile.add_argument(
        "--top", type=int, default=15,
        help="hot-span rows to print (0 = all)",
    )
    add_jobs_flag(p_profile)
    add_cache_flag(p_profile)
    add_obs_flags(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_report = sub.add_parser(
        "report", help="write an HTML reproduction report"
    )
    p_report.add_argument("--output", default="heterosvd_report.html")
    p_report.set_defaults(func=cmd_report)

    p_bench = sub.add_parser(
        "bench",
        help="run a benchmark suite and check for regressions",
        description="Run a declared benchmark suite, write a "
        "BENCH_<suite>.json report, and compare wall times against the "
        "previous report (see docs/performance.md).",
    )
    p_bench.add_argument(
        "--suite", default=None, metavar="NAME",
        help="suite to run: dse, dse_sharded, scheduler, batch, serve, "
        "chaos or workloads",
    )
    p_bench.add_argument(
        "--size", type=int, default=None, metavar="N",
        help="problem-size knob (default: per-suite full size; "
        "CI smoke uses a small value)",
    )
    p_bench.add_argument(
        "--repeat", type=int, default=1, metavar="R",
        help="timed repetitions per case; the minimum wall time is "
        "compared (default: 1)",
    )
    p_bench.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="deterministic seed forwarded to every case (default: 0)",
    )
    p_bench.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for BENCH_<suite>.json (default: .)",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=0.25, metavar="T",
        help="relative slowdown treated as a regression "
        "(default: 0.25 = 25%% slower than baseline)",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="compare against this report instead of the existing "
        "BENCH_<suite>.json in --out",
    )
    p_bench.add_argument(
        "--no-compare", action="store_true",
        help="skip the baseline comparison (still writes the report)",
    )
    p_bench.add_argument(
        "--check", default=None, metavar="FILE",
        help="only validate FILE against the BENCH schema and exit",
    )
    p_bench.add_argument(
        "--list", action="store_true",
        help="list the registered suites and exit",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the SVD serving daemon (NDJSON over TCP)",
        description="Serve decompose requests over newline-delimited "
        "JSON: coalesced batches, weighted tenants, deadline SLOs and "
        "brownout load-shedding (see docs/serving.md).",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = ephemeral; the bound address is "
        "printed as 'serving on HOST:PORT')",
    )
    p_serve.add_argument(
        "--p-eng", type=int, default=4,
        help="default engine block width for requests without one",
    )
    p_serve.add_argument(
        "--p-task", type=int, default=2,
        help="pipeline workers per coalesced engine batch",
    )
    p_serve.add_argument("--precision", type=float, default=1e-6)
    p_serve.add_argument(
        "--max-queue", type=int, default=4096, metavar="N",
        help="hard queue-depth cap; beyond it requests are rejected "
        "with code=overloaded (default: 4096)",
    )
    p_serve.add_argument(
        "--high-water", type=int, default=256, metavar="N",
        help="queue depth above which batches are shed to the "
        "degraded LAPACK brownout tier (default: 256)",
    )
    p_serve.add_argument(
        "--max-cells", type=int, default=65536, metavar="CELLS",
        help="largest m*n served by the engine; bigger requests are "
        "shed to the brownout tier (default: 65536)",
    )
    p_serve.add_argument(
        "--reject-cells", type=int, default=16 * 65536, metavar="CELLS",
        help="hard m*n cap; beyond it requests are rejected with "
        "code=oversized (default: 1048576)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="widest coalesced batch handed to the executor "
        "(default: 32)",
    )
    p_serve.add_argument(
        "--max-oversized", type=int, default=32, metavar="N",
        help="in-flight cap for oversized brownout-tier jobs; at the "
        "cap they are rejected with code=overloaded (default: 32)",
    )
    p_serve.add_argument(
        "--tenant", action="append", metavar="NAME=WEIGHT",
        help="weighted-fair-queuing weight for a tenant (repeatable; "
        "unlisted tenants get weight 1)",
    )
    p_serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="SLO budget applied to requests without their own "
        "deadline_s (default: unbounded)",
    )
    p_serve.add_argument(
        "--drain-deadline", type=float, default=30.0, metavar="SECONDS",
        help="budget for finishing queued work after a drain op or "
        "SIGTERM; leftovers are answered code=shutdown (default: 30)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive engine-batch failures that trip the engine "
        "circuit breaker (default: 3)",
    )
    p_serve.add_argument(
        "--breaker-probe-after", type=int, default=4, metavar="N",
        help="batches withheld from a tripped engine before a half-open "
        "recovery probe (default: 4, plus seeded jitter)",
    )
    add_jobs_flag(p_serve)
    add_obs_flags(p_serve)
    add_fault_plan_flag(p_serve)
    add_retries_flag(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``heterosvd`` console script.

    ``--trace FILE`` / ``--metrics FILE`` (on ``svd``, ``dse``,
    ``sensitivity`` and ``profile``) enable the observability layer
    around the subcommand and export on the way out — to stderr-logged
    files, so stdout stays byte-identical to an uninstrumented run.
    ``--fault-plan FILE`` activates a deterministic fault-injection
    plan around the subcommand the same way (summary on stderr).

    Exit codes: a configuration the subcommand cannot run
    (:class:`~repro.errors.ConfigurationError`, e.g. an out-of-range
    derate) is a usage error and exits 2 with one ``error:`` line on
    stderr, like argparse's own usage errors; invalid input
    (:class:`~repro.errors.InputValidationError`) exits 4; an expired
    ``--deadline`` (:class:`~repro.errors.DeadlineExceeded`) exits 5
    with the partial-progress summary on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_shard_flags_without_shards(parser, args)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    wants_obs = trace_path is not None or metrics_path is not None
    if wants_obs:
        from repro import obs

        obs.reset()
        obs.enable()

    def invoke() -> int:
        fault_path = getattr(args, "fault_plan", None)
        if fault_path is None:
            return args.func(args)
        command = getattr(args, "command", None)
        if command == "serve":
            # load_fault_plan rejects unregistered site names, and the
            # serve.* sites register at serve-module import — which
            # cmd_serve would otherwise only reach after the plan load.
            import repro.serve.server  # noqa: F401
        if command in ("dse", "dse-merge"):
            # Same pattern: dse.shard_crash / dse.shard_stall /
            # checkpoint.torn_write register at sharded-module import.
            import repro.dse.sharded  # noqa: F401
        from repro.resilience import load_fault_plan

        plan = load_fault_plan(fault_path)
        with plan.activate():
            status = args.func(args)
        print(
            f"fault plan {fault_path}: {plan.injected} faults injected",
            file=sys.stderr,
        )
        return status

    from repro.errors import (
        ConfigurationError,
        DeadlineExceeded,
        InputValidationError,
    )

    try:
        return invoke()
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except InputValidationError as error:
        print(f"error: invalid input: {error}", file=sys.stderr)
        return 4
    except DeadlineExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        if error.partial is not None:
            print(f"partial progress: {error.partial.describe()}",
                  file=sys.stderr)
            if error.partial.details.get("checkpointed"):
                print("completed work is checkpointed; rerun with "
                      "--checkpoint FILE --resume to continue",
                      file=sys.stderr)
        return 5
    finally:
        if wants_obs:
            from repro import obs
            from repro.obs.exporters import (
                export_chrome_trace,
                export_metrics_json,
            )

            obs.disable()
            if trace_path:
                export_chrome_trace(obs.get_tracer(), trace_path)
                print(
                    f"wrote {len(obs.get_tracer().spans)} spans to "
                    f"{trace_path}",
                    file=sys.stderr,
                )
            if metrics_path:
                export_metrics_json(obs.get_metrics(), metrics_path)
                print(f"wrote metrics to {metrics_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
