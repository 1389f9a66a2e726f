"""Chunked, deterministic parallel fan-out for sweeps.

:class:`ParallelRunner` wraps ``concurrent.futures`` with the three
properties every sweep in this library needs:

* **deterministic ordering** — results come back in input order no
  matter which worker finished first, so a parallel sweep is
  byte-identical to the serial one;
* **chunked distribution** — items are grouped into contiguous chunks
  (default: four chunks per worker) so per-task IPC overhead amortizes
  over many cheap model evaluations;
* **graceful degradation** — ``jobs=1`` (the default) runs inline with
  zero pool or pickling overhead, so library code can call the runner
  unconditionally.

Worker callables used in ``"process"`` mode must be module-level
functions (picklable); ``"thread"`` mode accepts anything but only
helps for workloads that release the GIL.

The job count resolves from an explicit argument, then the
``HETEROSVD_JOBS`` environment variable, then 1 — mirroring the CLI's
``--jobs`` flag.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.exec import shm as _shm
from repro.guard.watchdog import Watchdog
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience import faults as _faults

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "HETEROSVD_JOBS"

#: Chunks submitted per worker; >1 smooths over uneven chunk cost.
CHUNKS_PER_WORKER = 4

VALID_MODES = ("process", "thread")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument, else ``HETEROSVD_JOBS``, else 1.

    Raises:
        ConfigurationError: for a non-positive count (from either
            source) or an unparseable environment value.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR)
        if raw is None or raw.strip() == "":
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV_VAR}={raw!r} is not an integer"
            ) from None
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


class _ChunkItemFailure(Exception):
    """Worker-side wrapper locating a failure within a chunk.

    Carries the in-chunk offset and a truncated ``repr`` of the item,
    plus the repr of the original exception — all plain strings and
    ints, so the wrapper survives pickling back across a process pool
    (chained ``__cause__`` exceptions do not).
    """

    def __init__(self, offset: int, item_repr: str, error_repr: str):
        super().__init__(offset, item_repr, error_repr)
        self.offset = offset
        self.item_repr = item_repr
        self.error_repr = error_repr


def _clip(text: str, limit: int = 120) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[Any]
) -> Tuple[float, List[Any]]:
    """Worker-side loop over one contiguous chunk of items.

    Returns ``(wall_seconds, results)`` — the duration is measured
    where the work happens, so the parent can publish accurate
    per-chunk timings even across a process boundary.  A failing item
    is re-raised as :class:`_ChunkItemFailure` so the parent can name
    the exact input that broke the sweep.
    """
    started = time.perf_counter()
    results: List[Any] = []
    attachments: dict = {}
    try:
        for offset, item in enumerate(chunk):
            try:
                item = _shm.resolve_item(item, attachments)
                results.append(fn(item))
            except Exception as exc:
                raise _ChunkItemFailure(
                    offset, _clip(repr(item)), _clip(repr(exc))
                ) from exc
    finally:
        # Views into the shared segment must not outlive this chunk:
        # results crossing the pool are pickled (copied) anyway.
        _shm.close_attachments(attachments)
    return time.perf_counter() - started, results


class ParallelRunner:
    """Deterministic chunked map over a worker pool.

    The pool is created lazily on the first parallel :meth:`map` and
    reused across calls (a multi-size sweep issues several maps;
    re-spawning workers each time would dominate small sweeps).  Use
    the runner as a context manager, or call :meth:`close`, to release
    the workers eagerly; otherwise they are reaped with the runner.

    Args:
        jobs: Worker count; None resolves via :func:`resolve_jobs`.
        mode: ``"process"`` (default; true parallelism for the
            pure-Python model code) or ``"thread"``.
        chunk_size: Items per submitted chunk; None picks
            ``ceil(len(items) / (jobs * CHUNKS_PER_WORKER))``.
        stall_timeout: Optional watchdog timeout in seconds.  When set,
            a :class:`~repro.guard.Watchdog` monitors every :meth:`map`
            for progress (each completed chunk feeds it); a stall
            longer than this raises a *retryable*
            :class:`~repro.errors.ParallelExecutionError`, so wrapping
            the map in a :class:`~repro.resilience.RetryPolicy` turns a
            hung worker into a cancel-and-retry instead of a hung sweep.
        shared_memory: Zero-copy array passing for ``"process"`` mode
            (see :mod:`repro.exec.shm`): large ndarrays inside the
            items ride one shared segment instead of being pickled
            per chunk.  None (default) enables it automatically when
            the platform supports it; False forces plain pickling;
            True requests it explicitly (still degrading silently to
            pickling when unsupported — packing never fails a map).
        shm_min_bytes: Smallest array (in bytes) placed in the shared
            segment; smaller ones pickle faster than they attach.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        mode: str = "process",
        chunk_size: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        shared_memory: Optional[bool] = None,
        shm_min_bytes: int = _shm.SHM_MIN_BYTES,
    ):
        if mode not in VALID_MODES:
            raise ConfigurationError(
                f"unknown mode {mode!r}; expected one of {VALID_MODES}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if stall_timeout is not None and not stall_timeout > 0:
            raise ConfigurationError(
                f"stall_timeout must be > 0 seconds, got {stall_timeout!r}"
            )
        if shm_min_bytes < 1:
            raise ConfigurationError(
                f"shm_min_bytes must be >= 1, got {shm_min_bytes}"
            )
        self.jobs = resolve_jobs(jobs)
        self.mode = mode
        self.chunk_size = chunk_size
        self.stall_timeout = stall_timeout
        self.shared_memory = shared_memory
        self.shm_min_bytes = shm_min_bytes
        self._pool = None

    def _shm_enabled(self) -> bool:
        if self.mode != "process":
            return False
        if self.shared_memory is False:
            return False
        return _shm.shm_supported()

    def _chunks(self, items: Sequence[Any]) -> List[Sequence[Any]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(items) / (self.jobs * CHUNKS_PER_WORKER)))
        return [items[i:i + size] for i in range(0, len(items), size)]

    def _get_pool(self):
        if self._pool is None:
            executor_cls = (
                ProcessPoolExecutor if self.mode == "process"
                else ThreadPoolExecutor
            )
            self._pool = executor_cls(max_workers=self.jobs)
        return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item; results in input order.

        With one worker (or at most one item) this runs inline in the
        calling process — no pool, no pickling, no ordering caveats.

        Raises:
            ParallelExecutionError: when a pooled worker raises; the
                error names the failing item's index and repr and
                chains the worker's wrapped exception.  Pending chunks
                are cancelled first (already-running chunks finish, but
                their results are discarded).  The inline path re-raises
                the original exception untouched — nothing is swallowed
                when there is no pool in the way.
        """
        items = list(items)
        watchdog = (
            Watchdog(self.stall_timeout).start()
            if self.stall_timeout is not None
            else None
        )
        try:
            return self._map_guarded(fn, items, watchdog)
        finally:
            if watchdog is not None:
                watchdog.stop()

    def _stall_error(self, completed: int) -> ParallelExecutionError:
        return ParallelExecutionError(
            f"worker stalled: no progress within {self.stall_timeout:.3f}s "
            f"(watchdog fired); remaining chunks cancelled",
            item_index=-1,
            item_repr="<watchdog>",
            completed_items=completed,
        )

    def _map_guarded(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        watchdog: Optional[Watchdog],
    ) -> List[Any]:
        # Fault-plan hooks: checked parent-side (before any pool work)
        # so firing counters persist across retry attempts — a plan
        # that crashes the first map call is survived by the second.
        stall = _faults.fired("exec.worker_stall")
        if stall is not None:
            _metrics.counter("resilience.stalls").inc()
            time.sleep(stall.param if stall.param > 0 else 0.05)
            # The injected stall sleeps in the parent, exactly where a
            # hung fan-out would block: the watchdog detecting it here
            # exercises the same fired-flag path a real stall takes.
            if watchdog is not None and watchdog.fired:
                raise self._stall_error(0)
        if _faults.fired("exec.worker_crash") is not None:
            raise ParallelExecutionError(
                "injected worker crash (fault plan)",
                item_index=-1,
                item_repr="<fault-injection>",
                completed_items=0,
            )
        with _tracer.span(
            "parallel.map", items=len(items), jobs=self.jobs, mode=self.mode,
        ):
            if self.jobs == 1 or len(items) <= 1:
                results = []
                for item in items:
                    results.append(fn(item))
                    if watchdog is not None:
                        watchdog.feed()
                        if watchdog.fired:
                            raise self._stall_error(len(results))
                return results
            segment = None
            if self._shm_enabled():
                # One shared segment per map: the chunks' large arrays
                # travel as tiny refs, workers map the pages read-only,
                # and the parent reclaims the segment after the map.
                segment, items = _shm.pack_items(
                    items, min_bytes=self.shm_min_bytes
                )
            try:
                return self._map_pooled(fn, items, watchdog)
            finally:
                _shm.release_segment(segment)

    def _map_pooled(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        watchdog: Optional[Watchdog],
    ) -> List[Any]:
        chunks = self._chunks(items)
        pool = self._get_pool()
        futures: List[Future] = [
            pool.submit(_run_chunk, fn, chunk) for chunk in chunks
        ]
        _metrics.counter("parallel.chunks").inc(len(chunks))
        results: List[Any] = []
        offset = 0
        for chunk_index, future in enumerate(futures):
            # submit order == input order
            try:
                if watchdog is None:
                    duration, chunk_results = future.result()
                else:
                    while True:
                        try:
                            duration, chunk_results = future.result(
                                timeout=watchdog.poll_interval
                            )
                            break
                        except _FuturesTimeout:
                            if watchdog.fired:
                                for pending in futures[chunk_index + 1:]:
                                    pending.cancel()
                                raise self._stall_error(offset) from None
                    watchdog.feed()
            except _ChunkItemFailure as failure:
                for pending in futures[chunk_index + 1:]:
                    pending.cancel()
                item_index = offset + failure.offset
                raise ParallelExecutionError(
                    f"worker failed on item {item_index} "
                    f"({failure.item_repr}): {failure.error_repr}",
                    item_index=item_index,
                    item_repr=failure.item_repr,
                    # Later chunks may have finished out of order,
                    # but only the contiguous prefix is credited:
                    # that is what resume machinery can trust.
                    completed_items=item_index,
                ) from failure
            except Exception:
                # Pool-level failure (broken pool, unpicklable fn):
                # still stop the sweep promptly.
                for pending in futures[chunk_index + 1:]:
                    pending.cancel()
                raise
            _metrics.histogram("parallel.chunk_seconds").observe(duration)
            _tracer.get_tracer().record_span(
                "parallel.chunk", duration, category="parallel",
                chunk=chunk_index, items=len(chunks[chunk_index]),
            )
            results.extend(chunk_results)
            offset += len(chunks[chunk_index])
        return results

    def starmap(
        self, fn: Callable[..., Any], items: Sequence[Tuple]
    ) -> List[Any]:
        """:meth:`map` for argument tuples."""
        return self.map(_StarCall(fn), items)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _StarCall:
    """Picklable ``fn(*args)`` adapter (lambdas cannot cross a pool)."""

    def __init__(self, fn: Callable[..., Any]):
        self.fn = fn

    def __call__(self, args: Tuple) -> Any:
        return self.fn(*args)
