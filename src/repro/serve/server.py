"""The ``heterosvd serve`` daemon: asyncio front-end over the solver stack.

Architecture (one process, stdlib-only)::

    client sockets ──NDJSON──▶ connection handlers (event loop)
                                  │ parse + schema-check + admit
                                  ▼
                              JobQueue  (WFQ tenants, coalescing,
                                  │      admission ladder)
                                  ▼
                              dispatcher task
                                  │ pop coalesced batch
                                  ▼
                    one compute thread (run_in_executor)
                      ├─ engine tier: exec.BatchExecutor (software
                      │   block-Jacobi, RetryPolicy, Deadline)
                      └─ brownout tier: LAPACK singular values
                                  │
                                  ▼
                       response futures ──▶ per-connection writers

The event loop never does matrix math: admission (parse, validate,
classify) is O(m*n) bookkeeping, and all solver work happens on a
single compute thread so the daemon's CPU use stays bounded and the
loop keeps accepting — which is what lets thousands of requests queue
while one batch executes (the back-pressure the admission ladder then
acts on).

SLO semantics: a job's ``deadline_s`` starts at admission.  Jobs whose
budget expires while queued are answered with ``code="deadline"`` at
dispatch; a batch whose shared budget (minimum member deadline)
expires mid-run answers its completed prefix normally — the partial
results ride on :class:`~repro.errors.DeadlineExceeded` — and the
unfinished remainder is answered from the brownout tier rather than
dropped.

Chaos hardening (``docs/serving.md`` has the failure-mode matrix):

* five registered fault sites (:data:`SERVE_FAULT_SITES`) let a seeded
  :class:`~repro.resilience.FaultPlan` attack a live daemon — dropped
  admissions, dispatcher crashes, dropped/slowed responses, injected
  engine failures;
* a per-strategy :class:`~repro.resilience.CircuitBreaker` sends the
  batches of a repeatedly failing strategy to the brownout tier and
  recovers it via seeded half-open probes;
* the dispatcher runs under a supervisor: a crash answers the
  in-flight batch with structured ``internal`` errors and restarts the
  loop, so every admitted request is answered exactly once;
* SIGTERM or a ``drain`` op closes admission (``code="draining"`` +
  ``retry_after_s``), finishes queued work under a drain
  :class:`~repro.guard.deadline.Deadline`, then exits cleanly.

All of it is inert by default: without an active fault plan, a drain
request, or a breaker-tripping failure, responses are byte-identical
to the pre-hardening daemon.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import signal
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import P_ENG_RANGE, P_TASK_RANGE, HeteroSVDConfig
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    DegradedResultWarning,
    InputValidationError,
    ServeError,
    ServeProtocolError,
    ServiceOverloadError,
)
from repro.guard.deadline import Deadline
from repro.guard.validate import validate_matrix
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience.circuit import CircuitBreaker
from repro.resilience.faults import fired, register_site
from repro.resilience.retry import RetryPolicy
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    CoalesceKey,
    decode_line,
    encode,
    error_response,
    request_key,
    request_matrix,
    result_response,
    validate_request,
)
from repro.serve.queue import AdmissionPolicy, Job, JobQueue
from repro.workloads.batch import TaskBatch

#: Largest row count the engine tier accepts (one AIE memory bank of
#: fp32 elements — the same bound ``HeteroSVDConfig`` enforces);
#: taller matrices are served by the brownout tier.
ENGINE_MAX_M = 2048

#: Serve-layer fault sites, registered so ``load_fault_plan`` accepts
#: them in plan files (see ``examples/fault_plans/serve_chaos.json``).
SERVE_FAULT_SITES = tuple(register_site(name) for name in (
    "serve.accept_drop",     # admission silently drops the request
    "serve.compute_crash",   # dispatcher loop raises mid-dispatch
    "serve.response_drop",   # a response frame is never written
    "serve.slow_write",      # a response write stalls (param = seconds)
    "serve.engine_fault",    # engine batch raises a transient ServeError
))


@dataclass
class ServeConfig:
    """Everything the daemon needs to run.

    Attributes:
        host / port: Bind address; port 0 picks an ephemeral port
            (the actual address is reported through the ``ready``
            callback and ``SVDServer.address``).
        p_eng: Default engine block width for requests that do not
            send ``block_width``.
        p_task: Pipeline workers per :class:`~repro.exec.batch.BatchExecutor`
            run.
        jobs: OS-level parallelism for the executor (1 = inline, the
            recommended serving default — the compute thread is the
            unit of parallelism).
        strategy: Default Jacobi strategy for the engine tier.
        precision: Convergence threshold forwarded to the solver.
        admission: The admission-control ladder knobs.
        tenant_weights: WFQ weights (unlisted tenants get 1.0).
        default_deadline_s: SLO budget applied to requests without
            their own ``deadline_s`` (None = unbounded).
        retries: Transient-failure re-attempts for each engine batch
            (builds a :class:`~repro.resilience.RetryPolicy`; 0 = off).
            Also enables the one-shot batch requeue after a transient
            engine failure.
        drain_deadline_s: Wall-clock budget for finishing queued work
            after a ``drain`` op / SIGTERM; leftovers past it are
            answered with ``code="shutdown"``.
        breaker_threshold: Consecutive engine-batch failures of one
            strategy that trip its circuit breaker.
        breaker_probe_after: Batches withheld from a tripped strategy
            before a half-open recovery probe (plus seeded jitter).
    """

    host: str = "127.0.0.1"
    port: int = 0
    p_eng: int = 4
    p_task: int = 2
    jobs: int = 1
    strategy: str = "auto"
    precision: float = 1e-6
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    default_deadline_s: Optional[float] = None
    retries: int = 0
    drain_deadline_s: float = 30.0
    breaker_threshold: int = 3
    breaker_probe_after: int = 4

    def __post_init__(self):
        if self.p_eng not in P_ENG_RANGE:
            raise ConfigurationError(
                f"p_eng={self.p_eng} outside [{P_ENG_RANGE.start}, "
                f"{P_ENG_RANGE.stop - 1}]"
            )
        if self.p_task not in P_TASK_RANGE:
            raise ConfigurationError(
                f"p_task={self.p_task} outside [{P_TASK_RANGE.start}, "
                f"{P_TASK_RANGE.stop - 1}]"
            )
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if (self.default_deadline_s is not None
                and not self.default_deadline_s > 0):
            raise ConfigurationError(
                f"default_deadline_s must be > 0, got "
                f"{self.default_deadline_s}"
            )
        if not self.drain_deadline_s > 0:
            raise ConfigurationError(
                f"drain_deadline_s must be > 0, got "
                f"{self.drain_deadline_s}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_probe_after < 1:
            raise ConfigurationError(
                f"breaker_probe_after must be >= 1, got "
                f"{self.breaker_probe_after}"
            )


def _brownout_sigma(matrix: np.ndarray) -> np.ndarray:
    """The degraded tier: reference LAPACK singular values."""
    return np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)


class SVDServer:
    """Asyncio NDJSON server around :class:`~repro.serve.queue.JobQueue`.

    Use :meth:`serve` inside an event loop (the CLI does
    ``asyncio.run(server.serve(ready=print_ready))``) or
    :class:`ServerThread` to host one in a background thread for tests
    and the in-process load generator.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.queue = JobQueue(
            policy=self.config.admission,
            tenant_weights=self.config.tenant_weights,
        )
        self.address: Optional[Tuple[str, int]] = None
        self._counters: Dict[str, int] = {}
        self._configs: Dict[CoalesceKey, HeteroSVDConfig] = {}
        self._retry = (
            RetryPolicy(max_attempts=self.config.retries + 1)
            if self.config.retries > 0 else None
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._wake: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._side_tasks: set = set()
        self._oversized_inflight = 0
        #: Per-strategy circuit breakers, created lazily on the first
        #: engine failure of a strategy — zero cost on the happy path.
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: The batch currently on the compute thread; a dispatcher
        #: crash answers these jobs instead of stranding their clients.
        self._inflight: List[Job] = []
        self._draining = False
        self._drain_deadline: Optional[Deadline] = None

    # -- bookkeeping ---------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        """Increment a server-local stat and the matching obs counter."""
        self._counters[name] = self._counters.get(name, 0) + amount
        _metrics.counter(name).inc(amount)

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for the ``stats`` op (always on)."""
        snapshot: Dict[str, Any] = dict(self.queue.stats())
        snapshot.update(sorted(self._counters.items()))
        snapshot["draining"] = int(self._draining)
        snapshot["version"] = PROTOCOL_VERSION
        return snapshot

    # -- lifecycle -----------------------------------------------------------
    async def serve(
        self,
        ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Accept and serve until a ``shutdown`` op (or cancellation)."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._wake = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compute"
        )
        server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
            reuse_address=True,
        )
        self.address = server.sockets[0].getsockname()[:2]
        # SIGTERM means "drain": stop admitting, finish queued work,
        # then exit.  Not every host loop supports signal handlers
        # (Windows, nested loops) — degrade to no handler there.
        with contextlib.suppress(NotImplementedError, RuntimeError,
                                 ValueError):
            self._loop.add_signal_handler(
                signal.SIGTERM, self.request_drain
            )
        dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if ready is not None:
            ready(self.address)
        try:
            await self._shutdown.wait()
            await dispatcher
            if self._side_tasks:
                await asyncio.wait(list(self._side_tasks), timeout=5.0)
        finally:
            dispatcher.cancel()
            server.close()
            await server.wait_closed()
            for writer in list(self._writers):
                with contextlib.suppress(Exception):
                    writer.close()
            # Closed transports deliver EOF to the handlers' readline;
            # give them a moment to exit on their own rather than being
            # cancelled by loop teardown (which logs a noisy callback
            # error per still-parked connection).
            if self._conn_tasks:
                await asyncio.wait(list(self._conn_tasks), timeout=1.0)
            self._pool.shutdown(wait=True)

    def request_shutdown(self) -> None:
        """Stop serving (call from the loop, or via
        ``loop.call_soon_threadsafe`` from another thread)."""
        if self._shutdown is not None:
            self._shutdown.set()
        if self._wake is not None:
            self._wake.set()

    def request_drain(self) -> None:
        """Begin a graceful drain: admission closes (decompose requests
        are answered ``code="draining"`` with a ``retry_after_s``
        hint), queued work finishes under ``drain_deadline_s``, then
        the daemon shuts down.  Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_deadline = Deadline(self.config.drain_deadline_s)
        self._count("serve.drains")
        if self._wake is not None:
            self._wake.set()

    def _drain_retry_after_s(self) -> float:
        """Back-off hint for a draining rejection: the remaining drain
        budget (a restarted daemon is the earliest useful retry time),
        floored so clients never spin."""
        remaining = (
            self._drain_deadline.remaining()
            if self._drain_deadline is not None
            else self.config.drain_deadline_s
        )
        return max(0.1, round(remaining, 3))

    def _spawn(self, coro) -> "asyncio.Task":
        task = asyncio.ensure_future(coro)
        self._side_tasks.add(task)
        task.add_done_callback(self._side_tasks.discard)
        return task

    # -- connection handling -------------------------------------------------
    async def _send(self, writer, lock: asyncio.Lock,
                    message: Dict[str, Any]) -> None:
        spec = fired("serve.slow_write")
        if spec is not None:
            self._count("serve.slow_writes")
            await asyncio.sleep(spec.param if spec.param > 0 else 0.05)
        if fired("serve.response_drop") is not None:
            # The frame is never written: the client sees a hung read
            # (loadgen's per-request timeout) — the envelope is dropped,
            # not the connection.
            self._count("serve.responses_dropped")
            return
        with contextlib.suppress(ConnectionError, RuntimeError):
            async with lock:
                writer.write(encode(message))
                await writer.drain()

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        lock = asyncio.Lock()
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # Overlong line: framing is lost, answer and close.
                    self._count("serve.schema_errors")
                    await self._send(writer, lock, error_response(
                        None, "schema",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(line, writer, lock)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_line(self, line: bytes, writer, lock) -> None:
        request_id: Optional[str] = None
        try:
            doc = decode_line(line)
            raw_id = doc.get("id")
            request_id = raw_id if isinstance(raw_id, str) else None
            validate_request(doc)
        except ServeProtocolError as error:
            self._count("serve.schema_errors")
            await self._send(
                writer, lock,
                error_response(request_id, "schema", str(error)),
            )
            return
        op = doc["op"]
        if op == "ping":
            await self._send(writer, lock, {
                "id": doc["id"], "ok": True, "pong": True,
                "version": PROTOCOL_VERSION,
            })
        elif op == "stats":
            await self._send(writer, lock, {
                "id": doc["id"], "ok": True, "stats": self.stats(),
            })
        elif op == "drain":
            await self._send(writer, lock, {"id": doc["id"], "ok": True})
            self.request_drain()
        elif op == "shutdown":
            await self._send(writer, lock, {"id": doc["id"], "ok": True})
            self.request_shutdown()
        else:
            await self._admit(doc, writer, lock)

    # -- admission -----------------------------------------------------------
    async def _admit(self, doc: Dict[str, Any], writer, lock) -> None:
        request_id = doc["id"]
        self._count("serve.requests")
        if fired("serve.accept_drop") is not None:
            # Admission silently swallows the request: no response ever
            # leaves — the client's timeout is the only recovery.
            self._count("serve.requests_dropped")
            return
        if self._draining:
            self._count("serve.drained_rejects")
            await self._send(writer, lock, error_response(
                request_id, "draining",
                "daemon is draining; admission is closed",
                retry_after_s=self._drain_retry_after_s(),
            ))
            return
        block_width = int(doc.get("block_width", self.config.p_eng))
        if block_width not in P_ENG_RANGE:
            self._count("serve.schema_errors")
            await self._send(writer, lock, error_response(
                request_id, "schema",
                f"$.block_width: must be in [{P_ENG_RANGE.start}, "
                f"{P_ENG_RANGE.stop - 1}], got {block_width}",
            ))
            return
        # Classify from the *declared* shape before materializing: a
        # 60-byte seeded request can name an arbitrarily large shape,
        # and the hard cap must fire without ever allocating m*n
        # floats on the event loop.
        if "matrix" in doc:
            shape = (len(doc["matrix"]), len(doc["matrix"][0]))
        else:
            shape = (int(doc["shape"][0]), int(doc["shape"][1]))
        key = request_key(doc, shape, self.config.p_eng)
        # Admission judges the request's own (factored) shape: the key
        # holds the prepared shape, which for the Jacobi methods drops
        # the QR that a tall request still costs.
        m, n = max(shape), min(shape)
        tier = self.queue.classify(m * n)
        if tier == "engine" and m > ENGINE_MAX_M:
            tier = "brownout"
        if tier == "reject":
            self._count("serve.rejected")
            await self._send(writer, lock, error_response(
                request_id, "oversized",
                f"{m}x{n} ({m * n} cells) exceeds the hard "
                f"cap of {self.queue.policy.reject_cells} cells",
            ))
            return
        if (tier == "brownout"
                and self._oversized_inflight
                >= self.queue.policy.max_oversized):
            self._count("serve.rejected")
            await self._send(writer, lock, error_response(
                request_id, "overloaded",
                f"{self._oversized_inflight} oversized jobs already in "
                f"flight (cap {self.queue.policy.max_oversized}); "
                f"request rejected",
            ))
            return
        try:
            matrix = request_matrix(doc)
        except (ValueError, TypeError) as error:
            self._count("serve.schema_errors")
            await self._send(writer, lock, error_response(
                request_id, "schema", f"matrix payload: {error}",
            ))
            return
        except MemoryError:
            self._count("serve.internal_errors")
            await self._send(writer, lock, error_response(
                request_id, "internal",
                f"materializing a {m}x{n} matrix exhausted "
                f"memory",
            ))
            return
        try:
            validate_matrix(matrix, name="matrix")
        except InputValidationError as error:
            self._count("serve.invalid_input")
            await self._send(writer, lock, error_response(
                request_id, "invalid", str(error),
            ))
            return
        deadline_s = doc.get("deadline_s", self.config.default_deadline_s)
        deadline = (
            Deadline(float(deadline_s)) if deadline_s is not None else None
        )
        job = Job(
            request_id=request_id,
            tenant=doc.get("tenant", "default"),
            key=key,
            matrix=matrix,
            deadline=deadline,
            future=self._loop.create_future(),
        )
        if tier == "brownout":
            self._oversized_inflight += 1
            self._spawn(self._run_oversized(job))
        else:
            try:
                self.queue.push(job)
            except ServiceOverloadError as error:
                self._count("serve.rejected")
                await self._send(writer, lock, error_response(
                    request_id, "overloaded", str(error),
                ))
                return
            self._wake.set()
        self._spawn(self._respond_when_done(job, writer, lock))

    async def _respond_when_done(self, job: Job, writer, lock) -> None:
        response = await job.future
        await self._send(writer, lock, response)

    def _resolve(self, job: Job, response: Dict[str, Any]) -> None:
        if job.future is not None and not job.future.done():
            job.future.set_result(response)

    # -- dispatch ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Supervisor: keep the dispatcher alive for the daemon's whole
        life.  A crashed iteration (bug or injected
        ``serve.compute_crash``) answers the stranded in-flight batch
        with structured errors and restarts the loop — admitted clients
        are never left waiting on a dead dispatcher.
        """
        while True:
            try:
                await self._dispatch_forever()
                return
            except asyncio.CancelledError:
                raise
            except Exception as error:
                self._count("serve.dispatcher_restarts")
                print(f"serve: dispatcher crashed ({error!r}); "
                      f"restarting", file=sys.stderr)
                self._fail_orphans(error)
                if self._shutdown.is_set():
                    self._drain_on_shutdown()
                    return

    def _fail_orphans(self, error: BaseException) -> None:
        """Answer jobs stranded by a dispatcher crash exactly once."""
        orphans, self._inflight = self._inflight, []
        for job in orphans:
            if job.future is not None and not job.future.done():
                self._count("serve.orphaned")
                self._resolve(job, error_response(
                    job.request_id, "internal",
                    f"dispatcher crashed while the job was in flight: "
                    f"{error!r}",
                ))

    async def _dispatch_forever(self) -> None:
        while True:
            if self._shutdown.is_set():
                self._drain_on_shutdown()
                return
            if self._draining and (
                    self.queue.depth == 0
                    or self._drain_deadline.expired()):
                # Drained (or out of drain budget): stop the daemon.
                # Any leftover queued jobs get code="shutdown" from
                # _drain_on_shutdown on the next iteration.
                self.request_shutdown()
                continue
            if self.queue.depth == 0:
                self._wake.clear()
                if self.queue.depth == 0 and not self._shutdown.is_set():
                    await self._wake.wait()
                continue
            depth_before = self.queue.depth
            jobs, key = self.queue.pop_batch()
            if not jobs:
                continue
            # On an exception anywhere below, _inflight stays set so
            # the supervisor's _fail_orphans can answer these jobs (a
            # try/finally would clear it during unwinding, before the
            # supervisor ever sees it).
            self._inflight = list(jobs)
            if fired("serve.compute_crash") is not None:
                raise RuntimeError(
                    "injected dispatcher crash (serve.compute_crash)"
                )
            live: List[Job] = []
            for job in jobs:
                if job.deadline is not None and job.deadline.expired():
                    self._count("serve.deadline_expired")
                    self._resolve(job, error_response(
                        job.request_id, "deadline",
                        f"deadline of {job.deadline.budget_s:.3f}s "
                        f"expired after {job.queue_seconds():.3f}s "
                        f"in queue",
                    ))
                else:
                    live.append(job)
            if live:
                if depth_before > self.queue.policy.high_water:
                    self._count("serve.shed_batches")
                    await self._run_brownout(live, shed=True)
                else:
                    await self._run_engine(live, key)
            self._inflight = []

    def _drain_on_shutdown(self) -> None:
        for job in self.queue.drain():
            self._resolve(job, error_response(
                job.request_id, "shutdown",
                "server shut down before the job was serviced",
            ))

    # -- execution tiers -----------------------------------------------------
    def _engine_config(self, key: CoalesceKey) -> HeteroSVDConfig:
        config = self._configs.get(key)
        if config is None:
            width = key.block_width
            padded_n = max(2 * width, math.ceil(key.n / width) * width)
            config = HeteroSVDConfig(
                m=key.m,
                n=padded_n,
                p_eng=width,
                p_task=self.config.p_task,
                precision=self.config.precision,
            )
            self._configs[key] = config
        return config

    def _admit_engine(
        self, strategy: str
    ) -> Tuple[bool, Optional[CircuitBreaker]]:
        """Whether the strategy's breaker admits an engine batch (a
        closed breaker, no breaker yet, or an open breaker due for a
        half-open probe), and that breaker.

        Returns ``(False, None)`` when the breaker is open — the
        batch is then served from the brownout tier.
        """
        breaker = self._breakers.get(strategy)
        if breaker is None:
            return True, None
        if not breaker.allow():
            return False, None
        if breaker.state == "half_open":
            self._count("serve.breaker_probes")
        return True, breaker

    def _strategy_breaker(self, strategy: str) -> CircuitBreaker:
        breaker = self._breakers.get(strategy)
        if breaker is None:
            breaker = self._breakers[strategy] = CircuitBreaker(
                name=f"serve.engine.{strategy}",
                failure_threshold=self.config.breaker_threshold,
                probe_after=self.config.breaker_probe_after,
            )
        return breaker

    async def _handle_engine_failure(
        self, jobs: List[Job], strategy: str, error: BaseException
    ) -> None:
        """Feed an engine-batch failure to the strategy's breaker, then
        either requeue the batch once (transient failures, when a retry
        policy is configured) or answer every job ``internal``.
        """
        event = self._strategy_breaker(strategy).record_failure()
        if event == "tripped":
            self._count("serve.breaker_trips")
            print(
                f"serve: circuit breaker tripped for strategy "
                f"{strategy!r} after {self.config.breaker_threshold} "
                f"consecutive failures", file=sys.stderr,
            )
        elif event == "reopened":
            self._count("serve.breaker_reopened")
        retryable = (
            self._retry is not None
            and isinstance(error, self._retry.retry_on)
            and not isinstance(error, DeadlineExceeded)
            and max(job.attempts for job in jobs) == 0
        )
        if retryable:
            for job in jobs:
                job.attempts += 1
            self.queue.requeue(jobs)
            self._count("serve.requeued_batches")
            self._count("serve.requeued_jobs", len(jobs))
            if self._wake is not None:
                self._wake.set()
            return
        self._count("serve.internal_errors")
        for job in jobs:
            self._resolve(job, error_response(
                job.request_id, "internal",
                f"engine batch failed: {error!r}",
            ))

    async def _run_engine(self, jobs: List[Job], key: CoalesceKey) -> None:
        from repro.exec.batch import BatchExecutor

        config = self.config
        dispatched_at = time.monotonic()
        strategy = key.strategy
        admitted, breaker = self._admit_engine(strategy)
        if not admitted:
            # The strategy's breaker is open: brownout keeps answering.
            self._count("serve.breaker_browned_out")
            await self._run_brownout(jobs, shed=True)
            return

        def work():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                executor = BatchExecutor(
                    self._engine_config(key),
                    engine="software",
                    jobs=config.jobs,
                    retry=self._retry,
                    strategy=strategy,
                    method=key.method,
                )
                batch = TaskBatch(
                    m=key.m, n=key.n,
                    matrices=[job.matrix for job in jobs],
                )
                deadlines = [
                    job.deadline for job in jobs if job.deadline is not None
                ]
                deadline = (
                    min(deadlines, key=lambda d: d.remaining())
                    if deadlines else None
                )
                with _tracer.span("serve.batch", category="serve",
                                  tasks=len(jobs), shape=f"{key.m}x{key.n}"):
                    return executor.run(batch, deadline=deadline)

        try:
            if fired("serve.engine_fault") is not None:
                raise ServeError(
                    "injected engine fault (serve.engine_fault)"
                )
            report = await self._loop.run_in_executor(self._pool, work)
        except DeadlineExceeded as error:
            await self._finish_expired_batch(jobs, dispatched_at, error)
            return
        except Exception as error:
            await self._handle_engine_failure(jobs, strategy, error)
            return
        if breaker is not None and breaker.record_success() == "recovered":
            self._count("serve.breaker_recoveries")
        self._count("serve.batches")
        self._count("serve.coalesced_tasks", len(jobs))
        by_task = {result.task_id: result for result in report.results}
        for task_id, job in enumerate(jobs):
            result = by_task.get(task_id)
            if result is None:
                # A report hole must not raise here: that would kill
                # the dispatcher and strand every in-flight client.
                self._count("serve.internal_errors")
                self._resolve(job, error_response(
                    job.request_id, "internal",
                    f"engine batch returned no result for task "
                    f"{task_id}",
                ))
                continue
            if result.degraded:
                self._count("serve.degraded")
            queue_s = max(0.0, dispatched_at - job.enqueued_at)
            _metrics.histogram("serve.queue_seconds").observe(queue_s)
            _metrics.histogram("serve.service_seconds").observe(
                report.wall_makespan
            )
            self._resolve(job, result_response(
                job.request_id, result.sigma, result.degraded,
                shed=False, queue_s=queue_s,
                service_s=report.wall_makespan, pipeline=result.pipeline,
            ))

    async def _finish_expired_batch(
        self, jobs: List[Job], dispatched_at: float, error: DeadlineExceeded
    ) -> None:
        """Answer a deadline-cut batch: completed prefix normally,
        expired jobs with ``code="deadline"``, the rest via brownout.

        Relies on :class:`~repro.exec.batch.BatchExecutor` attaching
        the completed :class:`~repro.exec.batch.TaskResult` list to the
        partial result (``details["results"]``) instead of discarding
        it.
        """
        partial = getattr(error, "partial", None)
        completed = {}
        if partial is not None:
            for result in partial.details.get("results", []):
                completed[result.task_id] = result
        leftovers: List[Job] = []
        for task_id, job in enumerate(jobs):
            result = completed.get(task_id)
            if result is not None:
                self._count("serve.batches_partial", 0)  # key visibility
                if result.degraded:
                    self._count("serve.degraded")
                queue_s = max(0.0, dispatched_at - job.enqueued_at)
                self._resolve(job, result_response(
                    job.request_id, result.sigma, result.degraded,
                    shed=False, queue_s=queue_s,
                    service_s=error.elapsed_s, pipeline=result.pipeline,
                ))
            elif job.deadline is not None and job.deadline.expired():
                self._count("serve.deadline_expired")
                self._resolve(job, error_response(
                    job.request_id, "deadline",
                    f"deadline of {job.deadline.budget_s:.3f}s expired "
                    f"mid-batch ({error})",
                ))
            else:
                leftovers.append(job)
        self._count("serve.batches_partial")
        if leftovers:
            await self._run_brownout(leftovers, shed=False)

    async def _run_oversized(self, job: Job) -> None:
        """Brownout-serve one oversized job, releasing its slot in the
        in-flight cap that stands in for queue admission on this path."""
        try:
            await self._run_brownout([job], shed=True, oversized=True)
        finally:
            self._oversized_inflight -= 1

    async def _run_brownout(
        self, jobs: List[Job], shed: bool, oversized: bool = False
    ) -> None:
        """Serve jobs from the degraded LAPACK tier."""
        def work():
            out = []
            with _tracer.span("serve.brownout", category="serve",
                              tasks=len(jobs)):
                for job in jobs:
                    # Per-job dispatch stamp: queue time must end when
                    # *this* job's SVD starts, not when the whole batch
                    # finishes, or batchmates' compute time would be
                    # booked as queueing.
                    dispatched = time.monotonic()
                    sigma = _brownout_sigma(job.matrix)
                    out.append(
                        (sigma, dispatched,
                         time.monotonic() - dispatched)
                    )
            return out

        try:
            computed = await self._loop.run_in_executor(self._pool, work)
        except Exception as error:
            self._count("serve.internal_errors")
            for job in jobs:
                self._resolve(job, error_response(
                    job.request_id, "internal",
                    f"brownout tier failed: {error!r}",
                ))
            return
        self._count("serve.brownout_batches")
        for job, (sigma, dispatched, service_s) in zip(jobs, computed):
            self._count("serve.degraded")
            if shed:
                self._count("serve.shed")
            if oversized:
                self._count("serve.oversized")
            queue_s = max(0.0, dispatched - job.enqueued_at)
            _metrics.histogram("serve.queue_seconds").observe(queue_s)
            _metrics.histogram("serve.service_seconds").observe(service_s)
            self._resolve(job, result_response(
                job.request_id, sigma, degraded=True, shed=shed,
                queue_s=queue_s, service_s=service_s,
            ))


class ServerThread:
    """Host an :class:`SVDServer` in a daemon thread.

    The building block for tests and the in-process load generator::

        with ServerThread(ServeConfig(port=0)) as handle:
            client = ServeClient(*handle.address)
            ...

    ``start`` blocks until the socket is bound (or raises the startup
    error); ``stop`` requests a graceful shutdown and joins.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.server = SVDServer(config)
        self._thread: Optional[Any] = None
        self._error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        address = self.server.address
        if address is None:
            raise RuntimeError("server is not running")
        return address

    def start(self, timeout: float = 10.0) -> "ServerThread":
        import threading

        ready = threading.Event()

        def on_ready(_address):
            ready.set()

        def run():
            try:
                asyncio.run(self.server.serve(ready=on_ready))
            except BaseException as error:  # surfaced by start()/stop()
                self._error = error
            finally:
                ready.set()

        self._thread = threading.Thread(
            target=run, name="serve-thread", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("serve thread did not start in time")
        if self._error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._error!r}"
            )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        loop = self.server._loop
        if loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
