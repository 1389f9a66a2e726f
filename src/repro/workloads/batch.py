"""Batched task streams for throughput experiments.

Table III and Fig. 9 benchmark batches of 100 same-sized SVDs; this
module packages such batches with deterministic seeding so benchmark
runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.matrices import random_matrix


@dataclass
class TaskBatch:
    """A batch of same-sized SVD tasks.

    Attributes:
        m / n: Matrix dimensions.
        matrices: The task inputs.
    """

    m: int
    n: int
    matrices: List[np.ndarray] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of tasks in the batch."""
        return len(self.matrices)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)

    def total_bits(self) -> int:
        """Aggregate input size in bits (DDR traffic estimate)."""
        return sum(int(a.size) * 32 for a in self.matrices)

    def to_specs(self) -> list:
        """Scheduler :class:`~repro.core.scheduler.TaskSpec` view.

        Task ids are the batch indices, so executor results map back
        to input order.
        """
        from repro.core.scheduler import TaskSpec

        return [
            TaskSpec(m=a.shape[0], n=a.shape[1], task_id=i)
            for i, a in enumerate(self.matrices)
        ]

    def split(self, parts: int) -> List["TaskBatch"]:
        """Shard the batch into ``parts`` contiguous sub-batches.

        Shards are as even as possible (sizes differ by at most one);
        empty shards are dropped, so fewer than ``parts`` batches come
        back when the batch is small.
        """
        if parts < 1:
            raise ConfigurationError(f"parts must be >= 1, got {parts}")
        size, extra = divmod(len(self.matrices), parts)
        shards: List[TaskBatch] = []
        start = 0
        for index in range(parts):
            stop = start + size + (1 if index < extra else 0)
            if stop > start:
                shards.append(
                    TaskBatch(m=self.m, n=self.n,
                              matrices=self.matrices[start:stop])
                )
            start = stop
        return shards


def make_batch(m: int, n: int, batch: int, seed: int = 0) -> TaskBatch:
    """Generate a deterministic batch of Gaussian SVD tasks."""
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    matrices = [random_matrix(m, n, seed=seed + i) for i in range(batch)]
    return TaskBatch(m=m, n=n, matrices=matrices)


def solve_batch(
    batch: TaskBatch,
    strategy: str = "auto",
    deadline=None,
    **svd_kwargs,
) -> List:
    """Factor every task of a batch in-process with the software solver.

    The serial batched-SVD path: each matrix is factored as
    :func:`repro.linalg.svd` would, with the selected inner-loop
    ``strategy`` (``"auto"``/``"scalar"``/``"vectorized"``).
    For the ``"hestenes"`` and ``"block"`` methods the tasks of one
    shape run as one stacked Jacobi run: each round-kernel call rotates
    that round of every task still sweeping, and each task's result is
    bit-identical to a solo ``svd``.  Use
    :class:`~repro.exec.batch.BatchExecutor` instead when the batch
    should fan out across pipeline workers; this helper is the
    single-process building block the benchmark suites time.

    Args:
        batch: The task batch.
        strategy: Jacobi inner-loop strategy, forwarded to ``svd``.
        deadline: Optional wall-clock budget for the *whole batch* (a
            :class:`~repro.guard.Deadline` or seconds).  Anchored once
            here, so every task draws from the same budget; expiry
            raises :class:`~repro.errors.DeadlineExceeded`.
        **svd_kwargs: Further keyword arguments for ``svd`` (method,
            block_width, precision, ...).

    Returns:
        The per-task :class:`~repro.linalg.svd.SVDResult` list, in
        batch order.  The first task failure, in batch order, raises.
    """
    from repro.linalg.svd import _svd_many

    return _svd_many(
        list(batch), strategy=strategy, deadline=deadline, **svd_kwargs
    )
