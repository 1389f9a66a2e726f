"""Parallel, cached execution layer.

The paper's thesis is that a fast analytical model makes sweeping a
large design space practical; this package makes those sweeps fast in
*wall-clock* terms too:

* :mod:`repro.exec.cache` — content-keyed memoization of perf-model
  evaluations, with an in-memory LRU and an optional on-disk JSON
  store under ``.repro_cache/``.
* :mod:`repro.exec.parallel` — :class:`ParallelRunner`, a chunked
  process/thread-pool fan-out with deterministic result ordering.  It
  knows nothing of what it runs: the DSE loop lives in
  :meth:`repro.dse.DesignSpace.explore`, the sensitivity sweep in
  :mod:`repro.analysis.sensitivity`.
* :mod:`repro.exec.batch` — :class:`BatchExecutor`, which runs a
  :class:`TaskBatch` SVD stream through ``P_task``-many workers that
  mirror :class:`BatchScheduler`'s pipeline assignment.

Everything here is a pure execution layer: with ``jobs=1`` and no
cache, results are byte-identical to the serial code paths.
"""

from repro.exec.cache import CacheStats, EvalCache
from repro.exec.parallel import (
    JOBS_ENV_VAR,
    ParallelRunner,
    resolve_jobs,
)
from repro.exec.batch import BatchExecutor, BatchReport, PipelineRun

__all__ = [
    "BatchExecutor",
    "BatchReport",
    "CacheStats",
    "EvalCache",
    "JOBS_ENV_VAR",
    "ParallelRunner",
    "PipelineRun",
    "resolve_jobs",
]
