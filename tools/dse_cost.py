"""Measure what one DSE design point costs, per path, in a warm process.

Prints one row per path: the median over ``--repeats`` runs of the
path's wall time divided by the points it scores, in microseconds.

* ``widened stage 2`` / ``classic stage 2``: the stage-2 timer
  (``dse.stage2_seconds``) of a 128x128 widened sweep (380 units) and
  of a classic one (95 points), each on a fresh space object;
* ``widened sweep``: the whole ``DesignSpace(128, 128).explore_serial()``;
* ``shard loop``: the loop a shard runs (``_sweep_units``, chunks of
  8) over every unit of a 256x256 plan (380 units), its ledger held in
  memory: flushes are stubbed out, since each rewrites the whole
  ledger file and would swamp the scoring;
* ``no cache`` / ``warm disk hit`` / ``cold, writing``: the classic
  sweep of ``benchmarks/bench_parallel_dse.py`` (sizes 128, 192, 256;
  285 points) without a cache, against a warm on-disk cache (fresh
  ``EvalCache`` objects), and against an empty one;
* ``PerformanceModel.task_time``: one model built and read for the
  default 128x128 configuration (a single design point, no sweep).

docs/performance.md and ROADMAP.md quote its output.

Run:  python tools/dse_cost.py --repeats 15
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.config import HeteroSVDConfig  # noqa: E402
from repro.core.dse import DesignSpaceExplorer  # noqa: E402
from repro.core.perf_model import PerformanceModel  # noqa: E402
from repro.dse import DesignSpace  # noqa: E402
from repro.dse.sharded import SHARD_KIND, ShardPlan, _sweep_units  # noqa: E402
from repro.exec.cache import EvalCache  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.resilience.checkpoint import (  # noqa: E402
    DEFAULT_FLUSH_INTERVAL,
    SweepCheckpoint,
)

BENCH_SIZES = (128, 192, 256)


def _stage2_seconds(sweep) -> float:
    registry = metrics.get_metrics()
    registry.reset()
    registry.enable()
    try:
        sweep()
        return registry.snapshot()["histograms"]["dse.stage2_seconds"]["total"]
    finally:
        registry.disable()
        registry.reset()


def _wall(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _bench_sweep(cache_dir=None) -> None:
    for size in BENCH_SIZES:
        cache = EvalCache(disk_dir=cache_dir) if cache_dir else None
        DesignSpaceExplorer(size, size).explore(cache=cache)


def _shard_loop(workdir: str) -> float:
    plan = ShardPlan.partition(DesignSpace(256, 256), 2)
    units = plan.units_for(0) + plan.units_for(1)
    ledger = SweepCheckpoint(os.path.join(workdir, "ledger.json"),
                             kind=SHARD_KIND)
    ledger.flush = lambda: None
    stats = {"skipped": 0, "evaluated": 0}
    return _wall(lambda: _sweep_units(
        plan.space, ledger, units, (), DEFAULT_FLUSH_INTERVAL, 0, stats
    ))


def measure(repeats: int):
    """(path, points, seconds per run) rows."""
    rows = []
    rows.append(("widened stage 2", 380, [
        _stage2_seconds(DesignSpace(128, 128).explore_serial)
        for _ in range(repeats)
    ]))
    rows.append(("classic stage 2", 95, [
        _stage2_seconds(DesignSpaceExplorer(128, 128).explore)
        for _ in range(repeats)
    ]))
    rows.append(("widened sweep", 380, [
        _wall(DesignSpace(128, 128).explore_serial) for _ in range(repeats)
    ]))
    with tempfile.TemporaryDirectory() as scratch:
        rows.append(("shard loop", 380, [
            _shard_loop(tempfile.mkdtemp(dir=scratch)) for _ in range(repeats)
        ]))
        rows.append(("no cache", 285, [
            _wall(_bench_sweep) for _ in range(repeats)
        ]))
        cold, warm = [], []
        for _ in range(repeats):
            cache_dir = tempfile.mkdtemp(dir=scratch)
            cold.append(_wall(lambda: _bench_sweep(cache_dir)))
            warm.append(_wall(lambda: _bench_sweep(cache_dir)))
        rows.append(("warm disk hit", 285, warm))
        rows.append(("cold, writing", 285, cold))
    config = HeteroSVDConfig(128, 128)
    calls = 2000
    rows.append(("PerformanceModel.task_time", 1, [
        _wall(lambda: [
            PerformanceModel(config).task_time() for _ in range(calls)
        ]) / calls
        for _ in range(repeats)
    ]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    measure(1)  # warm-up: imports, first-call set-up
    print(f"{'path':<28} {'points':>6} {'us/point (median)':>18} "
          f"{'quartiles':>18}")
    for name, points, seconds in measure(args.repeats):
        per_point = [s / points * 1e6 for s in seconds]
        q1, median, q3 = statistics.quantiles(per_point, n=4)
        print(f"{name:<28} {points:>6} {median:>18.2f} "
              f"{q1:>8.2f}-{q3:<9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
