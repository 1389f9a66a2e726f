"""Admission-controlled, tenant-weighted job queue with coalescing.

The queue is the heart of the serving layer: it decides *whether* a
request gets in (admission control), *when* it runs (weighted fair
queuing across tenants), and *with whom* (coalescing same-key jobs
into one wide :class:`~repro.exec.batch.BatchExecutor` run — the
EA4RCA-style communication-avoiding move of paying the executor's
fixed cost once per batch instead of once per request).

Admission control is a three-tier ladder (cheapest answer first):

1. normal service — queued and executed on the engine;
2. **brownout** — when depth is above ``high_water`` at dispatch time,
   or a request is oversized (``cells > max_cells``), the answer comes
   from the degraded LAPACK tier (``degraded=True``, ``shed=True``);
3. **rejection** — a full queue (``depth >= max_depth``) or a request
   beyond the hard cap (``cells > reject_cells``) raises
   :class:`~repro.errors.ServiceOverloadError`.

Scheduling is classic virtual-time weighted fair queuing: each tenant
accumulates virtual work ``cells / weight`` as it is served, and the
dispatcher always serves the backlogged tenant with the smallest
virtual time.  A tenant with weight 4 therefore gets ~4x the service
share of a weight-1 tenant under contention, while an idle tenant
re-enters at the current virtual clock (no credit hoarding).

The queue itself is not thread-safe: all mutation happens on the
server's event loop.  It is plain data + bookkeeping so it can be
tested exhaustively without any asyncio machinery.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.guard.deadline import Deadline
from repro.obs import metrics as _metrics
from repro.serve.protocol import CoalesceKey


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the admission-control ladder.

    Attributes:
        max_depth: Hard queue-depth cap; a push at this depth is
            rejected with :class:`~repro.errors.ServiceOverloadError`.
        high_water: Depth above which dispatched batches are answered
            from the brownout (degraded LAPACK) tier instead of the
            engine, shedding load while still answering every request.
        max_cells: Largest ``m * n`` served by the engine; bigger
            requests are shed straight to the brownout tier.
        reject_cells: Hard size cap; beyond this even the brownout
            tier refuses (``code="oversized"``).
        max_batch: Widest coalesced batch handed to the executor.
        max_oversized: In-flight cap for oversized (brownout-tier)
            jobs, which never enter the queue; at the cap further
            oversized requests are rejected with ``code="overloaded"``.
    """

    max_depth: int = 4096
    high_water: int = 256
    max_cells: int = 65536
    reject_cells: int = 16 * 65536
    max_batch: int = 32
    max_oversized: int = 32

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigurationError(
                f"max_depth must be >= 1, got {self.max_depth}"
            )
        if not 0 < self.high_water <= self.max_depth:
            raise ConfigurationError(
                f"high_water must be in [1, max_depth={self.max_depth}], "
                f"got {self.high_water}"
            )
        if self.max_cells < 4:
            raise ConfigurationError(
                f"max_cells must be >= 4, got {self.max_cells}"
            )
        if self.reject_cells < self.max_cells:
            raise ConfigurationError(
                f"reject_cells ({self.reject_cells}) must be >= "
                f"max_cells ({self.max_cells})"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_oversized < 1:
            raise ConfigurationError(
                f"max_oversized must be >= 1, got {self.max_oversized}"
            )


@dataclass
class Job:
    """One admitted decompose request, queued for dispatch.

    Attributes:
        request_id: Client-chosen correlation id (echoed in the
            response envelope).
        tenant: Tenant name for weighted scheduling.
        key: Coalescing key (shape/dtype/strategy/block width).
        matrix: The materialized input.
        deadline: Per-job SLO budget, or None.
        enqueued_at: ``time.monotonic()`` at admission.
        future: Resolution target — an :class:`asyncio.Future` in the
            server, any object with ``set_result``/``set_exception``
            semantics in tests.  The queue never touches it.
        attempts: Engine runs already spent on this job; the dispatcher
            requeues a transiently failed batch at most once.
    """

    request_id: str
    tenant: str
    key: CoalesceKey
    matrix: np.ndarray
    deadline: Optional[Deadline] = None
    enqueued_at: float = field(default_factory=time.monotonic)
    future: Any = None
    attempts: int = 0

    @property
    def cells(self) -> int:
        """The request's own ``m * n``: its admission size and its
        fair-share work (the key's prepared shape can be smaller)."""
        return int(self.matrix.size)

    def queue_seconds(self) -> float:
        """Seconds spent queued so far."""
        return time.monotonic() - self.enqueued_at


class JobQueue:
    """Tenant-sharded FIFO queues with WFQ selection and coalescing.

    Args:
        policy: Admission knobs.
        tenant_weights: Mapping tenant name -> positive weight; tenants
            not listed get weight 1.0.
    """

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
    ):
        self.policy = policy or AdmissionPolicy()
        self._weights: Dict[str, float] = {}
        for name, weight in (tenant_weights or {}).items():
            if not weight > 0:
                raise ConfigurationError(
                    f"tenant {name!r} weight must be > 0, got {weight}"
                )
            self._weights[name] = float(weight)
        self._queues: Dict[str, Deque[Job]] = {}
        self._vtime: Dict[str, float] = {}
        self._virtual_now = 0.0
        self._depth = 0
        self.peak_depth = 0
        self.total_admitted = 0
        self.total_rejected = 0

    # -- introspection -------------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs currently queued across all tenants."""
        return self._depth

    def __len__(self) -> int:
        return self._depth

    def weight(self, tenant: str) -> float:
        """Effective weight of a tenant (default 1.0)."""
        return self._weights.get(tenant, 1.0)

    def backlogged_tenants(self) -> List[str]:
        """Tenants with queued jobs, in virtual-time service order."""
        names = [t for t, q in self._queues.items() if q]
        names.sort(key=lambda t: (self._vtime[t], t))
        return names

    # -- admission -----------------------------------------------------------
    def classify(self, cells: int) -> str:
        """Admission tier for a request of ``cells = m * n``:
        ``"engine"``, ``"brownout"`` (oversized shed) or ``"reject"``.
        """
        if cells > self.policy.reject_cells:
            return "reject"
        if cells > self.policy.max_cells:
            return "brownout"
        return "engine"

    def push(self, job: Job) -> None:
        """Admit a job, or raise under overload.

        Raises:
            ServiceOverloadError: when the queue is at ``max_depth``
                (``code="overloaded"``).
        """
        if self._depth >= self.policy.max_depth:
            self.total_rejected += 1
            _metrics.counter("serve.rejected").inc()
            raise ServiceOverloadError(
                f"queue at capacity ({self._depth}/"
                f"{self.policy.max_depth} jobs); request rejected",
                code="overloaded",
                depth=self._depth,
                limit=self.policy.max_depth,
            )
        queue = self._queues.get(job.tenant)
        if queue is None:
            queue = self._queues[job.tenant] = deque()
        if not queue:
            # Re-entering tenant starts at the current virtual clock so
            # idle time never accumulates into a service burst.
            self._vtime[job.tenant] = max(
                self._vtime.get(job.tenant, 0.0), self._virtual_now
            )
        queue.append(job)
        self._depth += 1
        self.total_admitted += 1
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
            _metrics.gauge("serve.queue_depth_peak").set(self.peak_depth)

    # -- dispatch ------------------------------------------------------------
    def pop_batch(
        self, max_batch: Optional[int] = None
    ) -> Tuple[List[Job], Optional[CoalesceKey]]:
        """Remove and return the next coalesced batch.

        The head tenant (smallest virtual time) contributes its oldest
        job, whose key selects the batch; further same-key jobs are
        gathered first from the head tenant, then from the remaining
        tenants in virtual-time order, up to ``max_batch`` (default:
        the policy's).  Each served tenant is charged
        ``cells / weight`` of virtual work per job.

        Returns ``([], None)`` on an empty queue.
        """
        limit = self.policy.max_batch if max_batch is None else max_batch
        if limit < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {limit}")
        order = self.backlogged_tenants()
        if not order:
            return [], None
        head = order[0]
        self._virtual_now = max(self._virtual_now, self._vtime[head])
        key = self._queues[head][0].key
        batch: List[Job] = []
        for tenant in order:
            if len(batch) >= limit:
                break
            queue = self._queues[tenant]
            kept: Deque[Job] = deque()
            while queue and len(batch) < limit:
                job = queue.popleft()
                if job.key == key:
                    batch.append(job)
                    self._vtime[tenant] += job.cells / self.weight(tenant)
                else:
                    kept.append(job)
            # Preserve FIFO order of the jobs we skipped past.
            kept.extend(queue)
            queue.clear()
            queue.extend(kept)
        self._depth -= len(batch)
        # Tenant names are arbitrary client strings: drop emptied
        # tenants so _queues/_vtime stay bounded by the backlog, not by
        # every name ever seen.  Folding the dropped tenant's charge
        # into the (monotonic) clock keeps the fairness contract: its
        # re-entry anchors at or past its last charge, so going idle
        # still earns no credit.
        for tenant in order:
            if not self._queues[tenant]:
                del self._queues[tenant]
                self._virtual_now = max(
                    self._virtual_now, self._vtime.pop(tenant)
                )
        return batch, key

    def requeue(self, jobs: List[Job]) -> None:
        """Return popped jobs to the *front* of their tenant queues.

        Used by the dispatcher after a transient engine failure: the
        batch goes back ahead of younger work (its jobs kept their
        original ``enqueued_at``, so deadline accounting is unchanged)
        and is not re-charged virtual time — the charge from the
        original ``pop_batch`` stands.  Bypasses admission: these jobs
        were already admitted once.
        """
        for job in reversed(jobs):
            queue = self._queues.get(job.tenant)
            if queue is None:
                queue = self._queues[job.tenant] = deque()
            if not queue:
                self._vtime[job.tenant] = max(
                    self._vtime.get(job.tenant, 0.0), self._virtual_now
                )
            queue.appendleft(job)
        self._depth += len(jobs)
        if self._depth > self.peak_depth:
            self.peak_depth = self._depth
            _metrics.gauge("serve.queue_depth_peak").set(self.peak_depth)

    def drain(self) -> List[Job]:
        """Remove and return every queued job (shutdown path)."""
        jobs: List[Job] = []
        for tenant in sorted(self._queues):
            jobs.extend(self._queues[tenant])
        self._queues.clear()
        self._vtime.clear()
        self._depth = 0
        return jobs

    def stats(self) -> Dict[str, Any]:
        """JSON-compatible snapshot for the ``stats`` op."""
        return {
            "queue_depth": self._depth,
            "peak_queue_depth": self.peak_depth,
            "admitted": self.total_admitted,
            "rejected": self.total_rejected,
            # Backlogged tenants only — emptied tenants are dropped in
            # pop_batch/drain, so this cannot grow with names seen.
            "tenants": len(self._queues),
        }
