"""Sharded, crash-safe design-space exploration.

``repro.dse`` scales :class:`repro.core.dse.DesignSpaceExplorer` from
one process pool to a sharded sweep over a *widened* space:

* :mod:`repro.dse.space` — :class:`DesignSpace` / :class:`SpaceUnit`:
  the classic feasible ``(P_eng, P_task)`` enumeration crossed with
  new first-class axes (ring ordering from
  :mod:`repro.core.ordering_codesign`, frequency derating), with a
  canonical unit order, content keys shared with the cache and
  checkpoint layers, and :meth:`DesignSpace.explore` — the one
  stage-2 loop, which the classic explorer runs on the one-ordering,
  one-derate space;
* :mod:`repro.dse.sharded` — :class:`ShardPlan` partitioning, the
  per-shard worker loop (own :class:`~repro.resilience.SweepCheckpoint`
  ledger + heartbeat lease), lease-based work stealing from dead or
  stalled siblings, and the multi-process coordinator
  :func:`run_sharded`.

The merged global Pareto frontier lives in
:func:`repro.analysis.pareto.merge_shards`; it is pinned byte-identical
to a serial sweep of the same space (see ``tests/analysis``).
"""

from repro.dse.space import DesignSpace, SpaceUnit
from repro.dse.sharded import ShardPlan, run_shard, run_sharded

__all__ = [
    "DesignSpace",
    "ShardPlan",
    "SpaceUnit",
    "run_shard",
    "run_sharded",
]
