"""Fault injection and resilience for long-running co-design flows.

The ``repro.resilience`` package makes the sweep machinery survivable
and testable under failure:

* :mod:`repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` that injects failures at named sites (PLIO
  transfer errors, AIE tile memory drops, worker crashes and stalls,
  cache corruption, forced solver non-convergence), activated via a
  context manager or the ``--fault-plan FILE`` CLI flag and zero-cost
  when absent;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, exponential
  backoff with deterministic jitter and a per-exception-class
  allowlist, applied by :class:`~repro.exec.batch.BatchExecutor` and
  the DSE fan-out;
* :mod:`repro.resilience.circuit` — :class:`CircuitBreaker`, the
  closed → open → half-open state machine (seeded probe scheduling)
  the serving layer uses to send a failing engine's batches to the
  brownout tier and recover it by probing (see ``docs/serving.md``);
* :mod:`repro.resilience.checkpoint` — :class:`SweepCheckpoint`,
  atomic JSON checkpointing of completed design-point evaluations so a
  killed sweep resumes (``--resume``) losing at most one chunk; a
  torn or corrupt ledger is quarantined (``*.corrupt-<n>``), never
  fatal;
* :mod:`repro.resilience.lease` — heartbeat/lease files
  (:class:`Lease`, :class:`LeaseMonitor`) that let a sharded sweep
  detect dead workers and steal their remaining work (see
  ``docs/resilience.md`` § sharded sweeps).

Graceful numerical degradation (non-convergent blocks falling back to
the reference LAPACK SVD) lives with the solvers in
:mod:`repro.linalg.hestenes` and the batch executor; its warnings use
:class:`repro.errors.DegradedResultWarning`.

A chaos run end to end::

    from repro.resilience import FaultPlan, FaultSpec, RetryPolicy

    plan = FaultPlan(seed=7, faults=[
        FaultSpec(site="exec.worker_crash", at=(0,)),
        FaultSpec(site="linalg.nonconvergence", at=(0,)),
    ])
    with plan.activate():
        report = BatchExecutor(config, retry=RetryPolicy(seed=7)).run(batch)
    assert report.degraded_tasks >= 1   # degraded, not dead
"""

from repro.resilience.checkpoint import SweepCheckpoint, as_checkpoint
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.faults import (
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    fired,
    load_fault_plan,
    register_site,
)
from repro.resilience.lease import (
    Lease,
    LeaseMonitor,
    LeaseRecord,
    claim,
    read_lease,
    wall_expired,
)
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = [
    "KNOWN_SITES",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "Lease",
    "LeaseMonitor",
    "LeaseRecord",
    "RetryPolicy",
    "SweepCheckpoint",
    "active_plan",
    "as_checkpoint",
    "call_with_retry",
    "claim",
    "fired",
    "load_fault_plan",
    "read_lease",
    "register_site",
    "wall_expired",
]
